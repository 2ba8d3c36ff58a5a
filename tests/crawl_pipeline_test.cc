// Tests for the concurrent crawl pipeline: the server-sharded frontier,
// the batched relevance evaluator, and thread-count invariance of the
// crawl outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "crawl/batch_evaluator.h"
#include "crawl/frontier.h"
#include "crawl/metrics.h"
#include "crawl/monitor.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "text/document.h"
#include "util/clock.h"
#include "util/hash.h"

namespace focus::core {
namespace {

using crawl::BatchRelevanceEvaluator;
using crawl::ClassifierEvaluator;
using crawl::Crawler;
using crawl::CrawlerOptions;
using crawl::Frontier;
using crawl::FrontierEntry;
using crawl::PageJudgment;
using crawl::PriorityPolicy;
using crawl::ShardedFrontier;
using taxonomy::Cid;
using taxonomy::Taxonomy;

FrontierEntry Entry(uint64_t oid, const std::string& url, double relevance,
                    int32_t numtries = 0, int32_t serverload = 0) {
  FrontierEntry e;
  e.oid = oid;
  e.url = url;
  e.relevance = relevance;
  e.numtries = numtries;
  e.serverload = serverload;
  return e;
}

TEST(ShardedFrontierTest, SingleShardMatchesPlainFrontierOrder) {
  // With one shard the sharded frontier must reproduce the classic
  // frontier's pop sequence exactly (single-threaded crawls depend on it).
  Frontier plain(PriorityPolicy::kAggressiveDiscovery);
  ShardedFrontier sharded(PriorityPolicy::kAggressiveDiscovery, 1);
  std::vector<FrontierEntry> entries = {
      Entry(1, "http://a/1", 0.9, 0, 3), Entry(2, "http://b/2", 0.9, 0, 1),
      Entry(3, "http://c/3", 0.2, 1, 0), Entry(4, "http://d/4", 0.5, 0, 1),
      Entry(5, "http://e/5", 0.9, 0, 1), Entry(6, "http://f/6", 0.1, 0, 9),
  };
  for (const FrontierEntry& e : entries) {
    plain.AddOrUpdate(e);
    sharded.AddOrUpdate(e);
  }
  // Re-rank one entry through both paths.
  FrontierEntry update = Entry(6, "http://f/6", 0.95, 0, 0);
  plain.AddOrUpdate(update);
  sharded.AddOrUpdate(update);

  ASSERT_EQ(plain.size(), sharded.size());
  while (!plain.empty()) {
    auto expected = plain.PopBest();
    auto got = sharded.PopPreferShard(0);
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(expected->oid, got->oid);
  }
  EXPECT_TRUE(sharded.empty());
}

TEST(ShardedFrontierTest, PreservesPriorityOrderWithinAServerShard) {
  // Same server => same shard, so the politeness-aware lexicographic
  // order is preserved among a server's pages.
  ShardedFrontier frontier(PriorityPolicy::kAggressiveDiscovery, 8);
  frontier.AddOrUpdate(Entry(1, "http://srv/a", 0.3));
  frontier.AddOrUpdate(Entry(2, "http://srv/b", 0.9));
  frontier.AddOrUpdate(Entry(3, "http://srv/c", 0.6, /*numtries=*/1));
  frontier.AddOrUpdate(Entry(4, "http://srv/d", 0.6));

  int shard = frontier.ShardOf("http://srv/a");
  EXPECT_EQ(shard, frontier.ShardOf("http://srv/d"));

  std::vector<uint64_t> order;
  bool stolen = true;
  while (auto e = frontier.PopPreferShard(shard, &stolen)) {
    EXPECT_FALSE(stolen);  // everything lives in the preferred shard
    order.push_back(e->oid);
  }
  // numtries asc first, then relevance desc.
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 4, 1, 3}));
}

TEST(ShardedFrontierTest, StealsFromOtherShardsWhenPreferredRunsDry) {
  ShardedFrontier frontier(PriorityPolicy::kAggressiveDiscovery, 4);
  frontier.AddOrUpdate(Entry(1, "http://server-x/page", 0.8));
  int home = frontier.ShardOf("http://server-x/page");

  bool stolen = false;
  auto e = frontier.PopPreferShard((home + 1) % frontier.num_shards(),
                                   &stolen);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->oid, 1u);
  EXPECT_TRUE(stolen);
  EXPECT_TRUE(frontier.empty());

  // Popping the home shard directly is not a steal.
  frontier.AddOrUpdate(Entry(2, "http://server-x/other", 0.5));
  stolen = true;
  e = frontier.PopPreferShard(home, &stolen);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(stolen);
}

TEST(ShardedFrontierTest, LookupEraseAndSnapshotSpanShards) {
  ShardedFrontier frontier(PriorityPolicy::kAggressiveDiscovery, 4);
  for (int i = 0; i < 20; ++i) {
    frontier.AddOrUpdate(Entry(100 + i,
                               "http://host" + std::to_string(i) + "/p",
                               0.1 * (i % 7)));
  }
  EXPECT_EQ(frontier.size(), 20u);
  EXPECT_TRUE(frontier.Contains(105));
  auto copy = frontier.PeekCopy(105);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->url, "http://host5/p");

  frontier.Erase(105);
  EXPECT_FALSE(frontier.Contains(105));
  EXPECT_FALSE(frontier.PeekCopy(105).has_value());

  std::vector<FrontierEntry> all = frontier.Snapshot();
  EXPECT_EQ(all.size(), 19u);
  std::unordered_set<uint64_t> oids;
  for (const FrontierEntry& e : all) oids.insert(e.oid);
  EXPECT_EQ(oids.size(), 19u);
  EXPECT_FALSE(oids.contains(105));
}

FocusOptions TinyOptions(uint64_t seed) {
  FocusOptions options;
  options.seed = seed;
  options.web.seed = seed;
  options.web.pages_per_topic = 60;
  options.web.background_pages = 800;
  options.web.background_servers = 60;
  options.examples_per_topic = 15;
  options.trainer.max_features_per_node = 200;
  return options;
}

std::unique_ptr<FocusSystem> TrainedSystem(uint64_t seed,
                                           double failure_prob = 0.0) {
  Taxonomy tax = BuildSampleTaxonomy();
  FocusOptions options = TinyOptions(seed);
  options.web.fetch_failure_prob = failure_prob;
  auto system = FocusSystem::Create(std::move(tax), options);
  EXPECT_TRUE(system.ok()) << system.status();
  auto sys = system.TakeValue();
  EXPECT_TRUE(sys->MarkGood("cycling").ok());
  EXPECT_TRUE(sys->Train().ok());
  return sys;
}

std::vector<text::TermVector> SamplePages(FocusSystem* system, int count) {
  Cid cycling = system->tax().FindByName("cycling").value();
  std::vector<text::TermVector> docs;
  VirtualClock clock;
  for (const std::string& url :
       system->web().KeywordSeeds(cycling, count)) {
    auto fetched = system->web().Fetch(url, &clock);
    EXPECT_TRUE(fetched.ok()) << fetched.status();
    docs.push_back(text::BuildTermVector(fetched.value().tokens));
  }
  return docs;
}

TEST(BatchRelevanceEvaluatorTest, MatchesInMemoryEvaluatorExactly) {
  auto system = TrainedSystem(11);
  std::vector<text::TermVector> docs = SamplePages(system.get(), 8);
  // An empty document exercises the fallback for pages that materialize
  // no DOCUMENT rows.
  docs.push_back(text::TermVector{});

  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 4096);
  sql::Catalog catalog(&pool);
  auto tables =
      classify::BuildClassifierTables(&catalog, system->tax(),
                                      system->model());
  ASSERT_TRUE(tables.ok()) << tables.status();
  classify::BulkProbeClassifier bulk(&system->classifier(),
                                     &tables.value());
  BatchRelevanceEvaluator batch_eval(&bulk, &system->classifier(),
                                     &catalog);
  ClassifierEvaluator ref_eval(&system->classifier());

  auto batched = batch_eval.JudgeBatch(docs);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched.value().size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto expected = ref_eval.Judge(docs[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(batched.value()[i].relevance, expected.value().relevance,
                1e-9)
        << "doc " << i;
    EXPECT_EQ(batched.value()[i].best_leaf, expected.value().best_leaf)
        << "doc " << i;
    EXPECT_EQ(batched.value()[i].best_leaf_is_good,
              expected.value().best_leaf_is_good)
        << "doc " << i;
  }

  // Size-1 batches take the in-memory shortcut; scores must still agree.
  auto single = batch_eval.JudgeBatch({docs[0]});
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single.value().size(), 1u);
  auto expected = ref_eval.Judge(docs[0]);
  ASSERT_TRUE(expected.ok());
  EXPECT_NEAR(single.value()[0].relevance, expected.value().relevance,
              1e-9);

  // Empty batches are a no-op.
  auto empty = batch_eval.JudgeBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(BatchRelevanceEvaluatorTest, ReusableAcrossBatches) {
  // The scratch DOCUMENT table is per-call; consecutive batches must not
  // contaminate each other.
  auto system = TrainedSystem(12);
  std::vector<text::TermVector> docs = SamplePages(system.get(), 6);

  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 4096);
  sql::Catalog catalog(&pool);
  auto tables =
      classify::BuildClassifierTables(&catalog, system->tax(),
                                      system->model());
  ASSERT_TRUE(tables.ok());
  classify::BulkProbeClassifier bulk(&system->classifier(),
                                     &tables.value());
  BatchRelevanceEvaluator batch_eval(&bulk, &system->classifier(),
                                     &catalog);

  std::vector<text::TermVector> first(docs.begin(), docs.begin() + 3);
  std::vector<text::TermVector> second(docs.begin() + 3, docs.end());
  auto all = batch_eval.JudgeBatch(docs);
  auto a = batch_eval.JudgeBatch(first);
  auto b = batch_eval.JudgeBatch(second);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_NEAR(a.value()[i].relevance, all.value()[i].relevance, 1e-12);
  }
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_NEAR(b.value()[i].relevance, all.value()[i + 3].relevance,
                1e-12);
  }
}

// A crawl run to frontier exhaustion, with its owning system kept alive.
struct ExhaustedCrawl {
  std::unique_ptr<FocusSystem> system;
  std::unique_ptr<CrawlSession> session;
  std::unordered_map<uint64_t, double> relevance_by_oid;
};

ExhaustedCrawl CrawlToExhaustion(uint64_t seed, int num_threads) {
  ExhaustedCrawl run;
  run.system = TrainedSystem(seed);
  Cid cycling = run.system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 5000;  // > total page count: crawl runs to stagnation
  copts.num_threads = num_threads;
  copts.distill_every = 0;  // boosts mutate priorities, not the reachable set
  run.session =
      run.system->NewCrawl(run.system->web().KeywordSeeds(cycling, 8),
                           copts)
          .TakeValue();
  EXPECT_TRUE(run.session->crawler().Crawl().ok());
  EXPECT_TRUE(run.session->crawler().stats().stagnated);
  for (const auto& v : run.session->crawler().visits()) {
    EXPECT_FALSE(run.relevance_by_oid.contains(v.oid))
        << "double visit: " << v.url;
    run.relevance_by_oid[v.oid] = v.relevance;
  }
  return run;
}

TEST(CrawlPipelineTest, EightThreadsVisitSamePagesAsOneThread) {
  // With no fetch failures and soft focus, the visited set is the link
  // closure of the seeds — independent of worker count and pop order.
  const std::unordered_map<uint64_t, double> solo =
      CrawlToExhaustion(21, /*num_threads=*/1).relevance_by_oid;
  ExhaustedCrawl run = CrawlToExhaustion(21, /*num_threads=*/8);
  const std::unordered_map<uint64_t, double>& pooled = run.relevance_by_oid;

  ASSERT_GT(solo.size(), 100u);
  ASSERT_EQ(solo.size(), pooled.size());
  for (const auto& [oid, relevance] : solo) {
    auto it = pooled.find(oid);
    ASSERT_NE(it, pooled.end()) << "oid " << oid << " missing from pooled";
    // Classification is a pure function of page text, so scores must be
    // identical no matter which worker judged the page.
    EXPECT_DOUBLE_EQ(relevance, it->second) << "oid " << oid;
  }

  // Stage counters must reflect a real batched pipeline run.
  const crawl::StageMetricsSnapshot metrics =
      run.session->crawler().stage_metrics().Snapshot();
  EXPECT_GT(metrics.batches, 0u);
  EXPECT_EQ(metrics.batched_pages, pooled.size());
  EXPECT_GE(metrics.frontier_pops, pooled.size());
  EXPECT_GE(metrics.AvgBatchOccupancy(), 1.0);
  EXPECT_LE(metrics.AvgBatchOccupancy(), 32.0);
  // The formatted report is for the monitoring console; just check it
  // renders every counter group.
  std::string report = crawl::FormatStageMetrics(metrics);
  EXPECT_NE(report.find("classify"), std::string::npos);
  EXPECT_NE(report.find("occupancy"), std::string::npos);
  EXPECT_NE(report.find("steal_rate"), std::string::npos);
}

TEST(CrawlPipelineTest, BatchSizeOneStillCompletes) {
  auto system = TrainedSystem(31);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 120;
  copts.num_threads = 4;
  copts.classify_batch_size = 1;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 120u);
}

TEST(CrawlPipelineTest, ExplicitShardCountIsRespected) {
  auto system = TrainedSystem(32);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 80;
  copts.num_threads = 4;
  copts.frontier_shards = 3;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                  copts)
                     .TakeValue();
  EXPECT_EQ(session->crawler().frontier()->num_shards(), 3);
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 80u);
}

TEST(CrawlPipelineTest, CrawlContinuesAfterAFailedCall) {
  // An aborted Crawl() must not poison the next one on the same crawler:
  // the second call picks up where the first stopped and spends the rest
  // of the budget.
  auto system = TrainedSystem(33);
  Cid cycling = system->tax().FindByName("cycling").value();
  int polls = 0;
  CrawlerOptions copts;
  copts.max_fetches = 100;
  copts.interrupt = [&polls](int64_t) {
    return ++polls == 40 ? Status::Internal("injected abort") : Status::OK();
  };
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                  copts)
                     .TakeValue();
  EXPECT_FALSE(session->crawler().Crawl().ok());
  size_t after_abort = session->crawler().visits().size();
  EXPECT_GT(after_abort, 0u);
  EXPECT_LT(after_abort, 100u);
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 100u);
}

TEST(CrawlPipelineTest, SingleThreadCrawlKeepsClassicOrderOnHostileWeb) {
  // A 1-thread crawl is one pipeline worker with batch size 1, so it must
  // keep the classic fetch-classify-expand order exactly: the same visit
  // sequence, virtual times, counters and WAL commit boundaries as the
  // dedicated single-threaded loop it replaced. The constants below were
  // recorded by running this body at commit 68b0483, the last one with
  // that loop (Crawler::Step). Every hostile-web
  // device is on (failures, dead servers, outages, the breaker) together
  // with backlink expansion, URL truncation and distillation boosts.
  FocusOptions options = TinyOptions(41);
  options.web.fetch_latency_mean_ms = 120;
  options.web.fetch_failure_prob = 0.3;
  options.web.faults.permanent_prob = 0.06;
  options.web.faults.timeout_prob = 0.06;
  options.web.faults.truncate_prob = 0.15;
  options.web.faults.timeout_ms = 500;
  options.web.faults.dead_server_fraction = 0.1;
  for (int32_t s = 0; s < 4; ++s) {
    double start = 5.0 + 10.0 * s;
    options.web.faults.outages.push_back(
        webgraph::ServerOutage{s, start, start + 60.0});
  }
  Taxonomy tax = BuildSampleTaxonomy();
  auto created = FocusSystem::Create(std::move(tax), options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<FocusSystem> system = created.TakeValue();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();

  storage::MemDiskManager data;
  storage::MemDiskManager log;
  auto wal = storage::WalDiskManager::Open(&data, &log).TakeValue();
  storage::BufferPool pool(wal.get(), 4096);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  ClassifierEvaluator evaluator(&system->classifier());
  CrawlerOptions copts;
  copts.max_fetches = 300;
  copts.num_threads = 1;
  copts.distill_every = 100;
  copts.expand_backlinks = true;
  copts.try_truncated_urls = true;
  copts.breaker.enabled = true;
  copts.checkpoint_every_batches = 16;
  Crawler crawler(&system->web(), &evaluator, &db, &catalog, copts);
  for (const std::string& url : system->web().KeywordSeeds(cycling, 8)) {
    ASSERT_TRUE(crawler.AddSeed(url).ok());
  }
  ASSERT_TRUE(crawler.Crawl().ok());

  uint64_t visit_hash = 0;
  for (const crawl::Visit& v : crawler.visits()) {
    visit_hash = HashCombine(visit_hash, v.oid);
    visit_hash = HashCombine(visit_hash, std::bit_cast<uint64_t>(v.relevance));
    visit_hash =
        HashCombine(visit_hash, static_cast<uint64_t>(v.virtual_time_us));
  }
  const crawl::CrawlStats& stats = crawler.stats();
  const storage::WalStats wal_stats = wal->wal_stats();
  EXPECT_EQ(crawler.visits().size(), 300u);
  EXPECT_EQ(visit_hash, 427302753439002336u);
  EXPECT_EQ(stats.attempts, 629u);
  EXPECT_EQ(stats.transient_failures, 194u);
  EXPECT_EQ(stats.dropped_urls, 135u);
  EXPECT_EQ(stats.breaker_skips, 37u);
  EXPECT_EQ(stats.distill_rounds, 3u);
  EXPECT_FALSE(stats.stagnated);
  // One durable commit per attempt, successful or failed.
  EXPECT_EQ(wal_stats.commits, 629u);
  EXPECT_EQ(wal_stats.checkpoints, 39u);
}

}  // namespace
}  // namespace focus::core
