// AdminServer: request parsing, route dispatch, and the real socket path.
//
// Most coverage goes through Handle() — the exact function the accept
// thread calls — so the tests are deterministic; one test exercises the
// actual loopback socket end to end (ephemeral port, raw GET, non-GET
// rejection, idempotent Stop), and one checks that a stalled client
// cannot wedge the serving thread.

#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace focus::obs {
namespace {

TEST(ParseRequestTargetTest, SplitsPathAndQuery) {
  AdminRequest req = ParseRequestTarget("/events?type=fetch_failure&limit=10");
  EXPECT_EQ(req.path, "/events");
  EXPECT_EQ(req.Param("type"), "fetch_failure");
  EXPECT_EQ(req.ParamInt("limit", -1), 10);
  EXPECT_EQ(req.Param("absent", "def"), "def");
  EXPECT_EQ(req.ParamInt("absent", 42), 42);
}

TEST(ParseRequestTargetTest, PercentDecodesAndPlusMeansSpace) {
  AdminRequest req = ParseRequestTarget("/p%61th?k%65y=a+b%2Fc&flag");
  EXPECT_EQ(req.path, "/path");
  EXPECT_EQ(req.Param("key"), "a b/c");
  // A bare key (no '=') is present with an empty value.
  EXPECT_EQ(req.query.count("flag"), 1u);
  EXPECT_EQ(req.Param("flag", "def"), "");
  // Escapes that decode to bytes >= 0x80, and '%' followed by such
  // bytes, pass through verbatim.
  AdminRequest high = ParseRequestTarget("/x?v=%\xff\xfe&w=%e9");
  EXPECT_EQ(high.Param("v"), "%\xff\xfe");
  EXPECT_EQ(high.Param("w"), "\xe9");
}

TEST(ParseRequestTargetTest, NegativeAndMalformedInts) {
  AdminRequest req = ParseRequestTarget("/events?oid=-12345&limit=abc");
  EXPECT_EQ(req.ParamInt("oid", -1), -12345);
  // Unparseable value falls back to the default.
  EXPECT_EQ(req.ParamInt("limit", 7), 7);
}

TEST(AdminServerTest, HealthzAndUnknownPath) {
  AdminServer server(AdminServer::Options{});
  AdminResponse ok = server.Handle(ParseRequestTarget("/healthz"));
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "ok\n");

  AdminResponse missing = server.Handle(ParseRequestTarget("/nope"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("/nope"), std::string::npos);
}

TEST(AdminServerTest, MetricsRoutesUsePrivateRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("admin_test_requests_total", {{"route", "a"}})->Add(3);
  AdminServer::Options opts;
  opts.metrics = &registry;
  AdminServer server(opts);

  AdminResponse prom = server.Handle(ParseRequestTarget("/metrics"));
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(prom.body.find("admin_test_requests_total"), std::string::npos);
  EXPECT_NE(prom.body.find("# HELP"), std::string::npos);

  AdminResponse json = server.Handle(ParseRequestTarget("/metrics.json"));
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.body.find("admin_test_requests_total"), std::string::npos);
}

TEST(AdminServerTest, TraceRouteServesChromeJson) {
  AdminServer::Options opts;
  opts.trace = &TraceBuffer::Global();
  AdminServer server(opts);
  AdminResponse resp = server.Handle(ParseRequestTarget("/trace"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  EXPECT_NE(resp.body.find("\"traceEvents\""), std::string::npos);
}

TEST(AdminServerTest, EventsRouteFiltersAndBounds) {
  EventLog log;
  log.Enable(1024);
  // A negative oid (full-range 64-bit hash) must round-trip the query
  // string and the filter.
  const int64_t neg_oid = -77;
  log.Record(CrawlEventType::kFrontierAdmit, neg_oid, -1, 0, 10, 0.5, 0);
  log.Record(CrawlEventType::kFetchAttempt, neg_oid, -1, 0, 11, 0.0, 1);
  log.Record(CrawlEventType::kFetchSuccess, 42, -1, 0, 12, 0.0, 0);

  AdminServer::Options opts;
  opts.events = &log;
  AdminServer server(opts);

  AdminResponse all = server.Handle(ParseRequestTarget("/events"));
  EXPECT_EQ(all.status, 200);
  EXPECT_EQ(all.content_type, "application/x-ndjson");
  EXPECT_EQ(std::count(all.body.begin(), all.body.end(), '\n'), 3);

  AdminResponse typed =
      server.Handle(ParseRequestTarget("/events?type=fetch_success"));
  EXPECT_EQ(std::count(typed.body.begin(), typed.body.end(), '\n'), 1);
  EXPECT_NE(typed.body.find("\"fetch_success\""), std::string::npos);

  AdminResponse by_oid = server.Handle(ParseRequestTarget("/events?oid=-77"));
  EXPECT_EQ(std::count(by_oid.body.begin(), by_oid.body.end(), '\n'), 2);
  EXPECT_NE(by_oid.body.find("\"oid\":-77"), std::string::npos);

  AdminResponse limited =
      server.Handle(ParseRequestTarget("/events?limit=1"));
  EXPECT_EQ(std::count(limited.body.begin(), limited.body.end(), '\n'), 1);
  // limit keeps the LAST events, so the survivor is the newest one.
  EXPECT_NE(limited.body.find("\"fetch_success\""), std::string::npos);

  AdminResponse bad = server.Handle(ParseRequestTarget("/events?type=bogus"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("bogus"), std::string::npos);
}

TEST(AdminServerTest, EventsRouteWithoutLogIsEmptyNotAnError) {
  AdminServer server(AdminServer::Options{});
  AdminResponse resp = server.Handle(ParseRequestTarget("/events"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.body.empty());
}

TEST(AdminServerTest, AddHandlerRegistersAndReplacesRoutes) {
  AdminServer server(AdminServer::Options{});
  server.AddHandler("/custom", [](const AdminRequest& req) {
    AdminResponse resp;
    resp.body = "v1:" + req.Param("q");
    return resp;
  });
  EXPECT_EQ(server.Handle(ParseRequestTarget("/custom?q=x")).body, "v1:x");

  // Re-registering the same path replaces the handler (the long-lived
  // server re-points routes at each new crawl session).
  server.AddHandler("/custom", [](const AdminRequest&) {
    AdminResponse resp;
    resp.body = "v2";
    return resp;
  });
  EXPECT_EQ(server.Handle(ParseRequestTarget("/custom")).body, "v2");
}

// Opens a connection to 127.0.0.1:port with a 5 s receive timeout (so a
// wedged server fails the test instead of hanging it); -1 on error.
int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one raw HTTP request to 127.0.0.1:port and returns the full
// response (headers + body), empty on any socket error.
std::string RawRequest(int port, const std::string& request) {
  int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(AdminServerSocketTest, ServesGetRejectsOthersOnEphemeralPort) {
  EventLog log;
  log.Enable(64);
  log.Record(CrawlEventType::kWalCommit, -1, -1, -1, -1, 0.0, 5);

  AdminServer::Options opts;
  opts.port = 0;  // ephemeral
  opts.events = &log;
  AdminServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  // A second Start() while running must refuse, not rebind.
  EXPECT_FALSE(server.Start().ok());

  std::string health =
      RawRequest(server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  std::string events = RawRequest(
      server.port(), "GET /events?type=wal_commit HTTP/1.1\r\n\r\n");
  EXPECT_NE(events.find("application/x-ndjson"), std::string::npos);
  EXPECT_NE(events.find("\"wal_commit\""), std::string::npos);

  std::string post =
      RawRequest(server.port(), "POST /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  std::string malformed = RawRequest(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent

  // The port is released: a fresh server can bind and serve again.
  AdminServer again(opts);
  ASSERT_TRUE(again.Start().ok());
  std::string health2 =
      RawRequest(again.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health2.find("HTTP/1.1 200 OK"), std::string::npos);
  again.Stop();
}

// A client that sends a partial request head and then goes silent holds
// its connection open. The server must give up on it after its
// per-connection timeout, serve the next client, and still stop cleanly
// while another stalled client is connected.
TEST(AdminServerSocketTest, StalledClientDoesNotWedgeServer) {
  AdminServer::Options opts;
  opts.port = 0;
  AdminServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  const std::string partial = "GET /healthz HTTP/1.1\r\nHost: x\r\n";

  int stalled = ConnectLoopback(server.port());
  ASSERT_GE(stalled, 0);
  ASSERT_EQ(::send(stalled, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  std::string health =
      RawRequest(server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;

  int stalled2 = ConnectLoopback(server.port());
  ASSERT_GE(stalled2, 0);
  ASSERT_EQ(::send(stalled2, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  // Let the accept thread pick stalled2 up and block reading from it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto stopped = std::async(std::launch::async, [&server] { server.Stop(); });
  bool returned =
      stopped.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  // Closing the stalled clients unblocks a server without a timeout, so a
  // regression fails here instead of hanging the suite.
  ::close(stalled);
  ::close(stalled2);
  stopped.wait();
  EXPECT_TRUE(returned) << "Stop() blocked behind a stalled client";
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace focus::obs
