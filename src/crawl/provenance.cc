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
#include "sql/exec/basic.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/join.h"
#include "sql/exec/scan.h"
#include "sql/exec/sort.h"

namespace focus::crawl {

using sql::SortKey;
using sql::TypeId;
using sql::Value;

sql::Schema EventsSchema() {
  return sql::Schema({{"seq", TypeId::kInt64},
                      {"type", TypeId::kInt32},
                      {"oid", TypeId::kInt64},
                      {"parent_oid", TypeId::kInt64},
                      {"sid", TypeId::kInt32},
                      {"virtual_us", TypeId::kInt64},
                      {"value", TypeId::kDouble},
                      {"aux", TypeId::kInt64}});
}

Result<sql::Table*> MaterializeEvents(const obs::EventLog& log,
                                      sql::Catalog* catalog,
                                      const std::string& name,
                                      const obs::EventFilter& filter) {
  std::vector<obs::CrawlEvent> events = log.Snapshot(filter);
  if (catalog->GetTable(name) != nullptr) {
    FOCUS_RETURN_IF_ERROR(catalog->DropTable(name));
  }
  FOCUS_ASSIGN_OR_RETURN(sql::Table * table,
                         catalog->CreateTable(name, EventsSchema()));
  for (const obs::CrawlEvent& e : events) {
    FOCUS_RETURN_IF_ERROR(
        table
            ->Insert(sql::Tuple({Value::Int64(static_cast<int64_t>(e.seq)),
                                 Value::Int32(static_cast<int32_t>(e.type)),
                                 Value::Int64(e.oid), Value::Int64(e.parent_oid),
                                 Value::Int32(e.sid), Value::Int64(e.virtual_us),
                                 Value::Double(e.value), Value::Int64(e.aux)}))
            .status());
  }
  return table;
}

namespace {

// EVENTS column positions (EventsSchema order).
constexpr int kColSeq = 0;
constexpr int kColType = 1;
constexpr int kColOid = 2;
constexpr int kColParent = 3;
constexpr int kColValue = 6;

constexpr int32_t kAdmit =
    static_cast<int32_t>(obs::CrawlEventType::kFrontierAdmit);

Result<std::vector<sql::Tuple>> DiscoveryEdgesScalar(const sql::Table* events,
                                                     const sql::Table* link) {
  using namespace sql;
  // Admit events that claim a discovering parent.
  OperatorPtr admits = std::make_unique<Filter>(
      std::make_unique<SeqScan>(events), [](const Tuple& t) {
        // oids are full-range 64-bit hashes (negative as int64 is fine);
        // only the exact sentinel -1 means "no parent".
        return t.Get(kColType).AsInt32() == kAdmit &&
               t.Get(kColParent).AsInt64() != -1;
      });
  OperatorPtr projected = Project::Columns(
      std::move(admits), {kColSeq, kColOid, kColParent, kColValue});
  // projected: 0 seq, 1 oid, 2 parent_oid, 3 value
  OperatorPtr by_edge = std::make_unique<Sort>(
      std::move(projected), std::vector<SortKey>{{2, false}, {1, false}});
  OperatorPtr link_sorted = std::make_unique<Sort>(
      std::make_unique<SeqScan>(link),
      std::vector<SortKey>{{0, false}, {2, false}});
  OperatorPtr joined = std::make_unique<MergeJoin>(
      std::move(by_edge), std::move(link_sorted), std::vector<int>{2, 1},
      std::vector<int>{0, 2});
  // joined: 0 seq, 1 oid, 2 parent_oid, 3 value, 4.. LINK (wgt_fwd at 8)
  OperatorPtr out = Project::Columns(std::move(joined), {0, 1, 2, 3, 8});
  OperatorPtr by_seq =
      std::make_unique<Sort>(std::move(out), std::vector<SortKey>{{0, false}});
  return Collect(by_seq.get());
}

Result<std::vector<sql::Tuple>> DiscoveryEdgesVectorized(
    const sql::Table* events, const sql::Table* link) {
  using namespace sql;
  // The URL strings never leave EVENTS/LINK, so only the joined numerics
  // are read: 0 seq, 1 type, 2 oid, 3 parent_oid, 4 value.
  BatchOperatorPtr scan = std::make_unique<BatchTableScan>(
      events,
      std::vector<int>{kColSeq, kColType, kColOid, kColParent, kColValue});
  BatchOperatorPtr filtered = std::make_unique<BatchFilter>(
      std::move(scan), [](const Batch& in, std::vector<int64_t>* sel) {
        const auto& type = in.col(1).i32;
        const auto& parent = in.col(3).i64;
        for (size_t i = 0; i < type.size(); ++i) {
          if (type[i] == kAdmit && parent[i] != -1) {
            sel->push_back(static_cast<int64_t>(i));
          }
        }
      });
  BatchOperatorPtr projected = std::make_unique<BatchProject>(
      std::move(filtered),
      std::vector<BatchExpr>{
          BatchExpr::Passthrough("seq", TypeId::kInt64, 0),
          BatchExpr::Passthrough("oid", TypeId::kInt64, 2),
          BatchExpr::Passthrough("parent_oid", TypeId::kInt64, 3),
          BatchExpr::Passthrough("value", TypeId::kDouble, 4)});
  BatchOperatorPtr by_edge = std::make_unique<BatchSort>(
      std::move(projected), std::vector<SortKey>{{2, false}, {1, false}});
  BatchOperatorPtr link_sorted = std::make_unique<BatchSort>(
      std::make_unique<BatchTableScan>(link),
      std::vector<SortKey>{{0, false}, {2, false}});
  BatchOperatorPtr joined = std::make_unique<BatchMergeJoin>(
      std::move(by_edge), std::move(link_sorted), std::vector<int>{2, 1},
      std::vector<int>{0, 2});
  // joined: 0 seq, 1 oid, 2 parent_oid, 3 value, 4.. LINK (wgt_fwd at 8)
  BatchOperatorPtr out = std::make_unique<BatchProject>(
      std::move(joined),
      std::vector<BatchExpr>{
          BatchExpr::Passthrough("seq", TypeId::kInt64, 0),
          BatchExpr::Passthrough("oid", TypeId::kInt64, 1),
          BatchExpr::Passthrough("parent_oid", TypeId::kInt64, 2),
          BatchExpr::Passthrough("value", TypeId::kDouble, 3),
          BatchExpr::Passthrough("wgt_fwd", TypeId::kDouble, 8)});
  BatchOperatorPtr by_seq = std::make_unique<BatchSort>(
      std::move(out), std::vector<SortKey>{{0, false}});
  Devectorize tail(std::move(by_seq));
  return Collect(&tail);
}

}  // namespace

Result<std::vector<sql::Tuple>> DiscoveryEdges(const sql::Table* events,
                                               const sql::Table* link,
                                               sql::ExecEngine engine) {
  return engine == sql::ExecEngine::kScalar
             ? DiscoveryEdgesScalar(events, link)
             : DiscoveryEdgesVectorized(events, link);
}

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
