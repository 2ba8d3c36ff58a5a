#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace focus::obs {

namespace {

// %XX / '+' decoding for query components. Invalid escapes pass through
// verbatim — this is an introspection port, not a public parser.
std::string PercentDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      out.push_back(static_cast<char>(
          std::strtol(s.substr(i + 1, 2).c_str(), nullptr, 16)));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

// Per-connection send/receive timeout. Connections are served one at a
// time, so a client that stalls mid-request must not hold the port (or
// Stop(), which joins the serving thread) for longer than this.
constexpr timeval kConnectionTimeout{1, 0};

const char* StatusLine(int status) {
  switch (status) {
    case 200:
      return "200 OK";
    case 400:
      return "400 Bad Request";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    default:
      return "500 Internal Server Error";
  }
}

}  // namespace

std::string AdminRequest::Param(const std::string& key,
                                const std::string& def) const {
  auto it = query.find(key);
  return it == query.end() ? def : it->second;
}

int64_t AdminRequest::ParamInt(const std::string& key, int64_t def) const {
  auto it = query.find(key);
  if (it == query.end() || it->second.empty()) return def;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') return def;
  return static_cast<int64_t>(v);
}

AdminRequest ParseRequestTarget(const std::string& target) {
  AdminRequest req;
  size_t qpos = target.find('?');
  req.path = PercentDecode(target.substr(0, qpos));
  if (qpos == std::string::npos) return req;
  std::string qs = target.substr(qpos + 1);
  size_t start = 0;
  while (start <= qs.size()) {
    size_t amp = qs.find('&', start);
    std::string pair = qs.substr(
        start, amp == std::string::npos ? std::string::npos : amp - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        req.query[PercentDecode(pair)] = "";
      } else {
        req.query[PercentDecode(pair.substr(0, eq))] =
            PercentDecode(pair.substr(eq + 1));
      }
    }
    if (amp == std::string::npos) break;
    start = amp + 1;
  }
  return req;
}

AdminServer::AdminServer(Options options) : options_(options) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::AddHandler(
    std::string path,
    std::function<AdminResponse(const AdminRequest&)> handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[std::move(path)] = std::move(handler);
}

AdminResponse AdminServer::Handle(const AdminRequest& request) const {
  AdminResponse resp;
  if (request.path == "/healthz") {
    resp.body = "ok\n";
    return resp;
  }
  if (request.path == "/metrics") {
    MetricsRegistry* r = MetricsRegistry::OrGlobal(options_.metrics);
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = r->ToPrometheusText();
    return resp;
  }
  if (request.path == "/metrics.json") {
    MetricsRegistry* r = MetricsRegistry::OrGlobal(options_.metrics);
    resp.content_type = "application/json";
    resp.body = r->ToJson();
    return resp;
  }
  if (request.path == "/trace") {
    TraceBuffer* t =
        options_.trace != nullptr ? options_.trace : &TraceBuffer::Global();
    resp.content_type = "application/json";
    resp.body = t->ToChromeTraceJson();
    return resp;
  }
  if (request.path == "/events") {
    resp.content_type = "application/x-ndjson";
    if (options_.events == nullptr) return resp;
    EventFilter filter;
    std::string type = request.Param("type");
    if (!type.empty()) {
      CrawlEventType parsed;
      if (!CrawlEventTypeFromName(type, &parsed)) {
        resp.status = 400;
        resp.content_type = "text/plain; charset=utf-8";
        resp.body = "unknown event type: " + type + "\n";
        return resp;
      }
      filter.type = static_cast<int32_t>(parsed);
    }
    filter.oid = request.ParamInt("oid", -1);
    filter.min_seq = static_cast<uint64_t>(request.ParamInt("min_seq", 0));
    // Unfiltered tails are bounded: an admin page must never ship the
    // whole ring set by accident.
    filter.limit = static_cast<size_t>(request.ParamInt("limit", 1000));
    resp.body = options_.events->ToJsonl(filter);
    return resp;
  }
  std::function<AdminResponse(const AdminRequest&)> handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (handler) return handler(request);
  resp.status = 404;
  resp.body = "not found: " + request.path + "\n";
  return resp;
}

Status AdminServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("admin server already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError(std::string("bind 127.0.0.1:") +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() wakes the blocked accept(); close() after join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AdminServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the socket down (or something unrecoverable happened);
      // either way this thread is done.
      return;
    }
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &kConnectionTimeout,
                 sizeof(kConnectionTimeout));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &kConnectionTimeout,
                 sizeof(kConnectionTimeout));
    ServeConnection(conn);
    ::close(conn);
  }
}

void AdminServer::ServeConnection(int fd) {
  // Read until the end of the request head. Serial, bounded, blocking
  // up to kConnectionTimeout: the client is curl/a scraper on loopback.
  std::string head;
  char buf[4096];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    head.append(buf, static_cast<size_t>(n));
    if (head.size() > 64 * 1024) return;  // absurd request head; drop
  }
  size_t line_end = head.find('\n');
  std::string request_line = head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  size_t sp1 = request_line.find(' ');
  size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  AdminResponse resp;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    resp.status = 400;
    resp.body = "malformed request line\n";
  } else if (request_line.substr(0, sp1) != "GET") {
    resp.status = 405;
    resp.body = "read-only server: GET only\n";
  } else {
    resp = Handle(
        ParseRequestTarget(request_line.substr(sp1 + 1, sp2 - sp1 - 1)));
  }
  std::string out = "HTTP/1.1 ";
  out += StatusLine(resp.status);
  out += "\r\nContent-Type: ";
  out += resp.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(resp.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += resp.body;
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace focus::obs
