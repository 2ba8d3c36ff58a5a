// Crawl provenance: EVENTS materialization, the canned discovery-edges
// query on both engines, and full discovery-path reconstruction —
// including across a crash/recover boundary, where admits are reconciled
// from the WAL-recovered tables instead of the lost in-memory rings.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "crawl/provenance.h"
#include "crawl/relevance_evaluator.h"
#include "obs/admin_server.h"
#include "obs/event_log.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/hash.h"

namespace focus {
namespace {

using crawl::CrawlDb;
using crawl::CrawlRecord;
using crawl::Crawler;
using crawl::CrawlerOptions;
using storage::MemDiskManager;
using storage::WalDiskManager;

// Judges everything maximally relevant so the crawl expands freely.
class ConstantEvaluator final : public crawl::RelevanceEvaluator {
 public:
  Result<crawl::PageJudgment> Judge(const text::TermVector&) override {
    crawl::PageJudgment j;
    j.relevance = 1.0;
    j.best_leaf_is_good = true;
    return j;
  }
};

// A hostile simulated web: ~10% of fetch attempts fail across the fault
// classes, so discovery paths carry retries, drops and breaker activity.
// The web keeps a pointer to `tax`, which must outlive it.
std::unique_ptr<webgraph::SimulatedWeb> MakeFaultyWeb(
    const taxonomy::Taxonomy& tax, uint64_t seed) {
  webgraph::WebConfig config;
  config.seed = seed;
  config.pages_per_topic = 150;
  config.background_pages = 500;
  config.fetch_failure_prob = 0.05;
  config.faults.permanent_prob = 0.02;
  config.faults.timeout_prob = 0.02;
  config.faults.truncate_prob = 0.01;
  config.faults.flaky_server_fraction = 0.05;
  auto web = webgraph::SimulatedWeb::Generate(tax, config, {});
  EXPECT_TRUE(web.ok()) << web.status();
  return std::make_unique<webgraph::SimulatedWeb>(web.TakeValue());
}

taxonomy::Taxonomy MakeTinyTaxonomy() {
  taxonomy::Taxonomy tax;
  taxonomy::Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  EXPECT_TRUE(tax.AddTopic(rec, "cycling").ok());
  return tax;
}

struct CrawlFixture {
  taxonomy::Taxonomy tax;
  std::unique_ptr<webgraph::SimulatedWeb> web;
  MemDiskManager disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<sql::Catalog> catalog;
  std::unique_ptr<CrawlDb> db;
  ConstantEvaluator evaluator;
  std::unique_ptr<Crawler> crawler;
};

// Runs a faulty multi-threaded crawl with `log` attached.
std::unique_ptr<CrawlFixture> RunFaultyCrawl(obs::EventLog* log,
                                             int max_fetches,
                                             int num_threads) {
  auto fx = std::make_unique<CrawlFixture>();
  fx->tax = MakeTinyTaxonomy();
  fx->web = MakeFaultyWeb(fx->tax, 17);
  fx->pool = std::make_unique<storage::BufferPool>(&fx->disk, 2048);
  fx->catalog = std::make_unique<sql::Catalog>(fx->pool.get());
  fx->db = std::make_unique<CrawlDb>(
      CrawlDb::Create(fx->catalog.get()).TakeValue());
  CrawlerOptions options;
  options.max_fetches = max_fetches;
  options.num_threads = num_threads;
  options.event_log = log;
  fx->crawler = std::make_unique<Crawler>(fx->web.get(), &fx->evaluator,
                                          fx->db.get(), fx->catalog.get(),
                                          options);
  EXPECT_TRUE(fx->crawler->AddSeed(fx->web->page(0).url).ok());
  EXPECT_TRUE(fx->crawler->AddSeed(fx->web->page(3).url).ok());
  EXPECT_TRUE(fx->crawler->Crawl().ok());
  EXPECT_GT(fx->crawler->visits().size(), 0u);
  return fx;
}

// Asserts `path` is a well-formed seed-to-target chain for `target`.
void CheckPathShape(const std::vector<crawl::DiscoveryHop>& path,
                    uint64_t target) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front().parent_oid, -1) << "path must start at a seed";
  EXPECT_EQ(path.back().oid, static_cast<int64_t>(target));
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(path[i].parent_oid, path[i - 1].oid)
        << "chain broken between hops " << i - 1 << " and " << i;
  }
  for (const crawl::DiscoveryHop& hop : path) {
    EXPECT_FALSE(hop.url.empty()) << "oid " << hop.oid << " not in CRAWL";
    EXPECT_GE(hop.attempts, 1) << hop.url;
  }
}

TEST(EventLogCrawlTest, LifecycleEventsCoverEveryVisit) {
  obs::EventLog log;
  log.Enable();
  auto fx = RunFaultyCrawl(&log, 120, 4);

  std::vector<obs::CrawlEvent> events = log.Snapshot();
  ASSERT_GT(events.size(), 0u);
  // Sequence order is total and strictly increasing, and a single-shard
  // crawl stamps every event with shard 0.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  for (const obs::CrawlEvent& e : events) {
    EXPECT_EQ(e.shard_id, 0);
  }
  // Every visit has attempt, success and verdict events.
  std::unordered_set<int64_t> attempted, succeeded, judged;
  uint64_t failures = 0;
  for (const obs::CrawlEvent& e : events) {
    switch (e.type) {
      case obs::CrawlEventType::kFetchAttempt:
        attempted.insert(e.oid);
        break;
      case obs::CrawlEventType::kFetchSuccess:
        succeeded.insert(e.oid);
        break;
      case obs::CrawlEventType::kClassifyVerdict:
        judged.insert(e.oid);
        break;
      case obs::CrawlEventType::kFetchFailure:
        ++failures;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(failures, fx->crawler->stats().transient_failures +
                          fx->crawler->stats().dropped_urls);
  for (const crawl::Visit& v : fx->crawler->visits()) {
    int64_t oid = static_cast<int64_t>(v.oid);
    EXPECT_TRUE(attempted.contains(oid)) << v.url;
    EXPECT_TRUE(succeeded.contains(oid)) << v.url;
    EXPECT_TRUE(judged.contains(oid)) << v.url;
  }
}

TEST(DiscoveryPathTest, ReconstructsEveryVisitedUrlUnderFaults) {
  obs::EventLog log;
  log.Enable();
  auto fx = RunFaultyCrawl(&log, 150, 4);

  // Full-range oid hashes: with ~hundreds of URLs the crawl must touch
  // oids that are negative as int64 — the regression this guards is a
  // sign test silently dropping half the web from provenance.
  bool negative_oid_seen = false;
  for (const crawl::Visit& v : fx->crawler->visits()) {
    auto path = crawl::DiscoveryPath(log, *fx->db, v.oid);
    ASSERT_TRUE(path.ok()) << v.url << ": " << path.status();
    CheckPathShape(path.value(), v.oid);
    EXPECT_TRUE(path.value().back().visited) << v.url;
    EXPECT_EQ(path.value().back().url, v.url);
    for (const crawl::DiscoveryHop& hop : path.value()) {
      if (hop.oid < 0) negative_oid_seen = true;
    }
  }
  EXPECT_TRUE(negative_oid_seen);

  // Fault marks: every URL that failed at least once — visited, parked
  // for retry, or dropped — carries its failures and their classes on its
  // own hop of a well-formed path.
  obs::EventFilter fail_filter;
  fail_filter.type = static_cast<int32_t>(obs::CrawlEventType::kFetchFailure);
  std::vector<obs::CrawlEvent> failure_events = log.Snapshot(fail_filter);
  ASSERT_GT(failure_events.size(), 0u)
      << "10% faults should produce failures";
  std::unordered_set<int64_t> failed_oids;
  for (const obs::CrawlEvent& f : failure_events) failed_oids.insert(f.oid);
  for (int64_t oid : failed_oids) {
    auto path = crawl::DiscoveryPath(log, *fx->db, static_cast<uint64_t>(oid));
    ASSERT_TRUE(path.ok()) << "failed oid " << oid << ": " << path.status();
    CheckPathShape(path.value(), static_cast<uint64_t>(oid));
    const crawl::DiscoveryHop& hop = path.value().back();
    EXPECT_GT(hop.failures, 0) << hop.url;
    EXPECT_EQ(hop.failure_classes.size(), static_cast<size_t>(hop.failures))
        << hop.url;
  }

  // Unknown oid: NotFound, not a crash.
  EXPECT_EQ(crawl::DiscoveryPath(log, *fx->db, 0xDEADBEEFu).status().code(),
            StatusCode::kNotFound);

  // The human rendering names every hop.
  auto path =
      crawl::DiscoveryPath(log, *fx->db, fx->crawler->visits().back().oid);
  ASSERT_TRUE(path.ok());
  std::string pretty = crawl::FormatDiscoveryPath(path.value());
  EXPECT_NE(pretty.find("seed "), std::string::npos) << pretty;
  for (const crawl::DiscoveryHop& hop : path.value()) {
    EXPECT_NE(pretty.find(hop.url), std::string::npos) << pretty;
  }
}

TEST(DiscoveryPathTest, SurvivesCrashRecoverViaReconciledEvents) {
  taxonomy::Taxonomy tax = MakeTinyTaxonomy();
  std::unique_ptr<webgraph::SimulatedWeb> web_ptr = MakeFaultyWeb(tax, 23);
  webgraph::SimulatedWeb& web = *web_ptr;
  MemDiskManager data, wal_log;

  // Phase 1: WAL-backed crawl, then "crash" (drop everything without a
  // final checkpoint; the in-memory event rings die with the process).
  {
    auto wal = WalDiskManager::Open(&data, &wal_log).TakeValue();
    storage::BufferPool pool(wal.get(), 2048);
    sql::Catalog catalog(&pool);
    auto db = CrawlDb::Open(&catalog, wal.get()).TakeValue();
    obs::EventLog lost_log;
    lost_log.Enable();
    ConstantEvaluator evaluator;
    CrawlerOptions options;
    options.max_fetches = 60;
    options.num_threads = 2;
    // Never checkpoint: the crash must leave commits in the WAL so the
    // reopen below demonstrably replays (and marks) them.
    options.checkpoint_every_batches = 0;
    options.event_log = &lost_log;
    Crawler crawler(&web, &evaluator, &db, &catalog, options);
    ASSERT_TRUE(crawler.AddSeed(web.page(0).url).ok());
    ASSERT_TRUE(crawler.Crawl().ok());
    ASSERT_GT(crawler.visits().size(), 0u);
  }

  // Phase 2: a new "process" — fresh WAL recovery, fresh (empty) event
  // log, resumed crawler, more crawling.
  auto wal = WalDiskManager::Open(&data, &wal_log).TakeValue();
  storage::BufferPool pool(wal.get(), 2048);
  sql::Catalog catalog(&pool);
  auto db = CrawlDb::Open(&catalog, wal.get()).TakeValue();
  obs::EventLog log;
  log.Enable();
  wal->BindEventLog(&log);  // retrospective wal_replay marker
  ConstantEvaluator evaluator;
  CrawlerOptions options;
  options.max_fetches = 60;
  options.num_threads = 2;
  options.event_log = &log;
  Crawler crawler(&web, &evaluator, &db, &catalog, options);
  ASSERT_TRUE(crawler.ResumeFromDb().ok());
  ASSERT_TRUE(crawler.Crawl().ok());
  ASSERT_GT(crawler.visits().size(), 0u);

  // The recovery left its marks: a wal_replay event and reconciled admits
  // for the pre-crash history.
  obs::EventFilter replay_filter;
  replay_filter.type = static_cast<int32_t>(obs::CrawlEventType::kWalReplay);
  EXPECT_FALSE(log.Snapshot(replay_filter).empty());
  obs::EventFilter admit_filter;
  admit_filter.type =
      static_cast<int32_t>(obs::CrawlEventType::kFrontierAdmit);
  size_t reconciled_admits = 0;
  for (const obs::CrawlEvent& e : log.Snapshot(admit_filter)) {
    if (e.reconciled) ++reconciled_admits;
  }
  EXPECT_GT(reconciled_admits, 0u);

  // Every visited row in the recovered store — pre- and post-crash — has
  // a complete discovery path; pre-crash pages walk reconciled admits.
  auto it = db.crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  size_t visited_rows = 0, paths_with_reconciled_hops = 0;
  while (it.Next(&rid, &row)) {
    CrawlRecord rec = CrawlDb::RecordFromTuple(row);
    if (!rec.visited) continue;
    ++visited_rows;
    auto path = crawl::DiscoveryPath(log, db, rec.oid);
    ASSERT_TRUE(path.ok()) << rec.url << ": " << path.status();
    CheckPathShape(path.value(), rec.oid);
    for (const crawl::DiscoveryHop& hop : path.value()) {
      if (hop.reconciled) {
        ++paths_with_reconciled_hops;
        break;
      }
    }
  }
  ASSERT_TRUE(it.status().ok());
  EXPECT_GT(visited_rows, 0u);
  EXPECT_GT(paths_with_reconciled_hops, 0u);
}

TEST(AdminEndpointTest, FrontierRouteServesLiveCrawlState) {
  obs::EventLog log;
  log.Enable();
  auto fx = RunFaultyCrawl(&log, 80, 2);

  obs::AdminServer::Options opts;
  opts.events = &log;
  obs::AdminServer admin(opts);
  crawl::RegisterCrawlAdminEndpoints(&admin, fx->crawler.get());

  obs::AdminResponse frontier =
      admin.Handle(obs::ParseRequestTarget("/frontier"));
  EXPECT_EQ(frontier.status, 200);
  EXPECT_EQ(frontier.content_type, "application/json");
  EXPECT_NE(frontier.body.find("\"live\""), std::string::npos)
      << frontier.body;
  EXPECT_NE(frontier.body.find("\"parked\""), std::string::npos);
  EXPECT_NE(frontier.body.find("\"breakers\""), std::string::npos);

  // /events?oid= filters on the exact oid — including oids that are
  // negative as int64 (the JSONL export is what a scraper copies from).
  int64_t target = static_cast<int64_t>(fx->crawler->visits().front().oid);
  obs::AdminResponse events = admin.Handle(obs::ParseRequestTarget(
      "/events?oid=" + std::to_string(target) + "&limit=5"));
  EXPECT_EQ(events.status, 200);
  ASSERT_FALSE(events.body.empty());
  size_t lines = 0;
  for (size_t pos = 0; (pos = events.body.find('\n', pos)) !=
                       std::string::npos;
       ++pos) {
    ++lines;
  }
  EXPECT_LE(lines, 5u);
  EXPECT_NE(events.body.find("\"oid\":" + std::to_string(target)),
            std::string::npos)
      << events.body;
  // The JSONL export carries the shard id on every line (0 here — the
  // admin server fronts a single-shard crawl).
  EXPECT_NE(events.body.find("\"shard_id\":0"), std::string::npos)
      << events.body;
}

TEST(EventLogShardStampTest, ShardIdFlowsThroughSnapshotAndJsonl) {
  obs::EventLog log;
  log.Enable();
  log.SetShardId(3);
  log.Record(obs::CrawlEventType::kFetchAttempt, /*oid=*/42,
             /*parent_oid=*/-1, /*sid=*/7, /*virtual_us=*/100, /*value=*/0.5,
             /*aux=*/0);
  std::vector<obs::CrawlEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].shard_id, 3);
  std::string jsonl = log.ToJsonl();
  EXPECT_NE(jsonl.find("\"shard_id\":3"), std::string::npos) << jsonl;
  // A log that never calls SetShardId reports shard 0 (the single-shard
  // default every pre-distributed consumer relies on).
  obs::EventLog plain;
  plain.Enable();
  plain.Record(obs::CrawlEventType::kFetchAttempt, 1, -1, 0, 0, 0.0, 0);
  ASSERT_EQ(plain.Snapshot().size(), 1u);
  EXPECT_EQ(plain.Snapshot()[0].shard_id, 0);
  EXPECT_NE(plain.ToJsonl().find("\"shard_id\":0"), std::string::npos);
}

}  // namespace
}  // namespace focus
