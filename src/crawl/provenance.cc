#include "crawl/provenance.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "crawl/crawler.h"
#include "crawl/frontier.h"
#include "obs/admin_server.h"
#include "obs/json_writer.h"
#include "crawl/retry_policy.h"

namespace focus::crawl {

Result<std::vector<DiscoveryHop>> DiscoveryPath(const obs::EventLog& log,
                                                const CrawlDb& db,
                                                uint64_t target_oid) {
  std::vector<obs::CrawlEvent> events = log.Snapshot();

  // Per-oid lifecycle rollup. The first admit (lowest seq — Snapshot is
  // sequence-ordered) defines the discovering parent; later re-admits
  // (backlink boosts, truncated roots already known) do not rewrite
  // history.
  struct OidFacts {
    const obs::CrawlEvent* admit = nullptr;
    int attempts = 0;
    int failures = 0;
    int retries = 0;
    int breaker_denials = 0;
    std::vector<int64_t> failure_classes;
    bool visited = false;
    double relevance = 0.0;
  };
  std::unordered_map<int64_t, OidFacts> facts;
  for (const obs::CrawlEvent& e : events) {
    // URL oids are full-range 64-bit hashes, so negative int64 values are
    // real URLs; only the exact -1 marks a process-level event.
    if (e.oid == -1) continue;
    OidFacts& f = facts[e.oid];
    switch (e.type) {
      case obs::CrawlEventType::kFrontierAdmit:
        if (f.admit == nullptr) f.admit = &e;
        break;
      case obs::CrawlEventType::kFetchAttempt:
        ++f.attempts;
        break;
      case obs::CrawlEventType::kFetchFailure:
        ++f.failures;
        f.failure_classes.push_back(e.aux);
        break;
      case obs::CrawlEventType::kRetryScheduled:
        ++f.retries;
        break;
      case obs::CrawlEventType::kBreakerDenied:
        ++f.breaker_denials;
        break;
      case obs::CrawlEventType::kClassifyVerdict:
        f.visited = true;
        f.relevance = e.value;
        break;
      default:
        break;
    }
  }

  auto target = facts.find(static_cast<int64_t>(target_oid));
  if (target == facts.end() || target->second.admit == nullptr) {
    return Status::NotFound("no admit event for oid " +
                            std::to_string(target_oid));
  }

  // Walk child -> parent, then reverse so the seed leads.
  std::vector<DiscoveryHop> path;
  std::unordered_set<int64_t> on_path;  // cycle guard (corrupt logs)
  int64_t cur = static_cast<int64_t>(target_oid);
  while (cur != -1 && on_path.insert(cur).second) {
    auto it = facts.find(cur);
    if (it == facts.end() || it->second.admit == nullptr) {
      return Status::Internal("discovery chain broken at oid " +
                              std::to_string(cur) +
                              ": no admit event (ring overwrote it?)");
    }
    const OidFacts& f = it->second;
    DiscoveryHop hop;
    hop.oid = cur;
    hop.parent_oid = f.admit->parent_oid;
    hop.admit_seq = f.admit->seq;
    hop.priority = f.admit->value;
    hop.device = f.admit->aux;
    hop.reconciled = f.admit->reconciled;
    hop.attempts = f.attempts;
    hop.failures = f.failures;
    hop.retries = f.retries;
    hop.breaker_denials = f.breaker_denials;
    hop.failure_classes = f.failure_classes;
    hop.visited = f.visited;
    hop.relevance = f.relevance;
    FOCUS_ASSIGN_OR_RETURN(auto rec, db.Lookup(static_cast<uint64_t>(cur)));
    if (rec.has_value()) {
      hop.url = rec->url;
      if (!hop.visited) hop.relevance = rec->relevance;
    }
    path.push_back(std::move(hop));
    cur = path.back().parent_oid;
  }
  if (cur != -1) {
    return Status::Internal("discovery chain for oid " +
                            std::to_string(target_oid) + " cycles at oid " +
                            std::to_string(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string FormatDiscoveryPath(const std::vector<DiscoveryHop>& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    const DiscoveryHop& hop = path[i];
    for (size_t d = 0; d < i; ++d) out += "  ";
    if (i == 0) {
      out += "seed ";
    } else {
      const char* via = hop.device == 1   ? "truncation"
                        : hop.device == 2 ? "backlink"
                                          : "link";
      out += "└─(";
      out += via;
      out += ")─> ";
    }
    out += hop.url.empty() ? ("oid:" + std::to_string(hop.oid)) : hop.url;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  [seq %llu, priority %.3f, attempts %d, failures %d, "
                  "retries %d, denials %d%s%s",
                  static_cast<unsigned long long>(hop.admit_seq), hop.priority,
                  hop.attempts, hop.failures, hop.retries, hop.breaker_denials,
                  hop.reconciled ? ", reconciled" : "",
                  hop.visited ? "" : ", unvisited");
    out += buf;
    if (hop.visited) {
      std::snprintf(buf, sizeof(buf), ", R=%.3f", hop.relevance);
      out += buf;
    }
    out += "]\n";
  }
  return out;
}

void RegisterCrawlAdminEndpoints(obs::AdminServer* server, Crawler* crawler) {
  server->AddHandler("/frontier", [crawler](const obs::AdminRequest&) {
    obs::JsonWriter w;
    w.BeginObject();
    FrontierCensus census = crawler->TakeFrontierCensus();
    w.Field("live", static_cast<uint64_t>(census.live));
    w.Field("parked", static_cast<uint64_t>(census.parked));
    w.Field("next_ready_us", census.next_ready_us);
    w.Key("breakers").BeginArray();
    for (const BreakerRecord& b : crawler->breakers().Snapshot()) {
      w.BeginObject()
          .Field("sid", b.sid)
          .Field("state", BreakerStateName(b.state))
          .Field("failures", b.consecutive_failures)
          .Field("open_until_us", b.open_until_us)
          .Field("cooldown_s", b.cooldown_s)
          .EndObject();
    }
    w.EndArray();
    w.EndObject();
    obs::AdminResponse resp;
    resp.content_type = "application/json";
    resp.body = w.TakeString();
    return resp;
  });
}

}  // namespace focus::crawl
