// Tests for the concurrent crawl pipeline: global frontier order, the
// batched relevance evaluator, and thread-count invariance of the crawl
// outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "crawl/batch_evaluator.h"
#include "crawl/metrics.h"
#include "crawl/provenance.h"
#include "obs/admin_server.h"
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
using crawl::PageJudgment;
using crawl::PriorityPolicy;
using taxonomy::Cid;
using taxonomy::Taxonomy;

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

TEST(BatchRelevanceEvaluatorTest, ConcurrentBatchesMatchInMemory) {
  // Four fetch workers judge through one evaluator at once, as a 4-thread
  // crawl does (the TSan job runs this test). Each batch builds its own
  // DOCUMENT table on the shared scratch pool, so concurrent batches
  // neither mix their scores nor leave pages behind.
  auto system = TrainedSystem(13);
  std::vector<text::TermVector> pages = SamplePages(system.get(), 24);
  pages.push_back(text::TermVector{});

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

  constexpr int kThreads = 4;
  constexpr int kBatches = 12;
  constexpr size_t kBatchSize = 8;
  std::vector<std::vector<text::TermVector>> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    for (size_t i = 0; i < kBatchSize; ++i) {
      batches[b].push_back(pages[(b * 5 + i) % pages.size()]);
    }
  }
  // Nothing has been freed yet, so the free-page list starts empty.
  const uint32_t pages_before = disk.NumPages();
  std::vector<Status> statuses(kBatches);
  std::vector<std::vector<PageJudgment>> judged(kBatches);
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int b = next++; b < kBatches; b = next++) {
        auto result = batch_eval.JudgeBatch(batches[b]);
        statuses[b] = result.status();
        if (result.ok()) judged[b] = result.TakeValue();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(statuses[b].ok()) << "batch " << b << ": " << statuses[b];
    ASSERT_EQ(judged[b].size(), kBatchSize) << "batch " << b;
    for (size_t i = 0; i < kBatchSize; ++i) {
      auto expected = ref_eval.Judge(batches[b][i]);
      ASSERT_TRUE(expected.ok());
      EXPECT_NEAR(judged[b][i].relevance, expected.value().relevance, 1e-9)
          << "batch " << b << " doc " << i;
      EXPECT_EQ(judged[b][i].best_leaf, expected.value().best_leaf)
          << "batch " << b << " doc " << i;
    }
  }
  // Every page the batches grew the device by is back on the free-page
  // list: handing out that many fresh pages grows the device no further.
  const uint32_t pages_after = disk.NumPages();
  for (uint32_t i = pages_before; i < pages_after; ++i) {
    storage::PageId id;
    ASSERT_TRUE(pool.NewPage(&id).ok());
    pool.UnpinPage(id, /*dirty=*/false);
  }
  EXPECT_EQ(disk.NumPages(), pages_after);
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

TEST(CrawlPipelineTest, FourThreadsPopInGlobalPriorityOrder) {
  // §3.2: work is checked out of CRAWL in one global (numtries asc,
  // relevance desc, serverload asc) order at any thread count. Every entry
  // below is untried on an unloaded server, so that order is relevance
  // desc. With a budget of 8 the workers reserve all 8 pages before any
  // page is recorded (a record needs a finished gather, fetch and
  // classify), so no expansion can reorder them: the visited set is the
  // top 8.
  auto system = TrainedSystem(34);
  CrawlerOptions copts;
  copts.max_fetches = 8;
  copts.num_threads = 4;
  auto session = system->NewCrawl({}, copts).TakeValue();
  const webgraph::SimulatedWeb& web = system->web();
  std::unordered_set<int32_t> servers;
  std::vector<std::pair<double, uint64_t>> admitted;  // (relevance, oid)
  for (uint32_t i = 0; i < web.num_pages() && admitted.size() < 64; ++i) {
    const webgraph::PageInfo& page = web.page(i);
    if (!servers.insert(page.server_id).second) continue;
    // Distinct relevances, shuffled against admission order so the FIFO
    // tie-break cannot stand in for priority.
    double relevance =
        0.01 * static_cast<double>((admitted.size() * 37) % 64 + 1);
    ASSERT_TRUE(session->crawler()
                    .AdmitRemoteLink(page.url, relevance, /*parent_oid=*/-1,
                                     /*raise_if_known=*/true)
                    .ok());
    admitted.emplace_back(relevance, UrlOid(page.url));
  }
  ASSERT_EQ(admitted.size(), 64u);
  std::sort(admitted.begin(), admitted.end(), std::greater<>());
  std::unordered_set<uint64_t> top8;
  for (size_t i = 0; i < 8; ++i) top8.insert(admitted[i].second);

  ASSERT_TRUE(session->crawler().Crawl().ok());
  std::unordered_set<uint64_t> visited;
  for (const auto& v : session->crawler().visits()) visited.insert(v.oid);
  EXPECT_EQ(visited, top8);
}

TEST(CrawlPipelineTest, FrontierReadersRaceSafelyWithARunningCrawl) {
  // The admin /frontier handler and SetPolicy reach the frontier from
  // another thread while four workers pop and expand it. Both must go
  // through the crawl-state lock (the TSan job runs this test).
  auto system = TrainedSystem(35);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 300;
  copts.num_threads = 4;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                  copts)
                     .TakeValue();
  Crawler& crawler = session->crawler();
  obs::AdminServer admin{obs::AdminServer::Options{}};
  crawl::RegisterCrawlAdminEndpoints(&admin, &crawler);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    do {
      obs::AdminResponse r =
          admin.Handle(obs::ParseRequestTarget("/frontier"));
      EXPECT_EQ(r.status, 200);
      EXPECT_NE(r.body.find("\"parked\""), std::string::npos) << r.body;
      crawler.SetPolicy(PriorityPolicy::kAggressiveDiscovery);
    } while (!done.load());
  });
  Status crawled = crawler.Crawl();
  done.store(true);
  reader.join();
  ASSERT_TRUE(crawled.ok()) << crawled;
  EXPECT_EQ(crawler.visits().size(), 300u);
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

// A log device whose sync barrier lasts until two more commits have been
// staged behind it, or 100 ms, like a slow fdatasync under a steady commit
// stream. Waiting on staging instead of sleeping a fixed time keeps the
// overlap under sanitizer slowdowns. It reads the WAL's pending bytes, so
// it may only serve syncs issued with the WAL's lock released (flush
// leaders), not checkpoint syncs.
class StallingSyncDisk final : public storage::DiskManager {
 public:
  explicit StallingSyncDisk(storage::DiskManager* inner) : inner_(inner) {}
  void Watch(const storage::WalDiskManager* wal) { wal_ = wal; }
  Status ReadPage(storage::PageId id, char* out) override {
    return inner_->ReadPage(id, out);
  }
  Status WritePage(storage::PageId id, const char* in) override {
    return inner_->WritePage(id, in);
  }
  Result<storage::PageId> AllocatePage() override {
    return inner_->AllocatePage();
  }
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override {
    if (wal_ != nullptr) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
      uint64_t seen = wal_->wal_stats().pending_bytes;
      for (int grew = 0;
           grew < 2 && std::chrono::steady_clock::now() < deadline;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        uint64_t pending = wal_->wal_stats().pending_bytes;
        if (pending > seen) ++grew;
        seen = pending;
      }
    }
    return inner_->Sync();
  }

 private:
  storage::DiskManager* inner_;
  const storage::WalDiskManager* wal_ = nullptr;
};

TEST(CrawlPipelineTest, WalCommitsCoalesceAcrossWorkers) {
  // Workers stage their batch commits under the crawl-state lock and wait
  // for the log sync after releasing it, so batches staged while one sync
  // runs share the next barrier. Were the sync still inside the lock, no
  // batch could stage during it and every barrier would cover exactly one
  // commit.
  auto system = TrainedSystem(36);
  Cid cycling = system->tax().FindByName("cycling").value();
  storage::MemDiskManager data;
  storage::MemDiskManager log;
  StallingSyncDisk stalling_log(&log);
  auto wal = storage::WalDiskManager::Open(&data, &stalling_log).TakeValue();
  stalling_log.Watch(wal.get());
  storage::BufferPool pool(wal.get(), 4096);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  ClassifierEvaluator evaluator(&system->classifier());
  CrawlerOptions copts;
  copts.max_fetches = 256;
  copts.num_threads = 4;
  copts.classify_batch_size = 8;
  copts.checkpoint_every_batches = 0;  // see StallingSyncDisk
  Crawler crawler(&system->web(), &evaluator, &db, &catalog, copts);
  for (const std::string& url : system->web().KeywordSeeds(cycling, 8)) {
    ASSERT_TRUE(crawler.AddSeed(url).ok());
  }
  ASSERT_TRUE(crawler.Crawl().ok());
  EXPECT_EQ(crawler.visits().size(), 256u);
  const storage::WalStats stats = wal->wal_stats();
  EXPECT_GE(stats.group_commit_max_batch, 2u)
      << stats.commits << " commits took " << stats.syncs << " syncs";
  EXPECT_LT(stats.group_commit_flushes, stats.commits);
}

TEST(CrawlPipelineTest, BoostsIterateBesideFourWorkers) {
  // Each boost snapshots the graph under the crawl-state lock, runs its
  // HITS iterations on a boost thread while the four workers keep
  // recording (the TSan job runs this test), and applies its hub raises
  // half a period later. The budget ends after the third trigger (visit
  // 192) and before its apply point (224), so Crawl() itself must apply
  // that boost before returning.
  auto system = TrainedSystem(37);
  Cid cycling = system->tax().FindByName("cycling").value();
  storage::MemDiskManager data;
  storage::MemDiskManager log;
  auto wal = storage::WalDiskManager::Open(&data, &log).TakeValue();
  storage::BufferPool pool(wal.get(), 4096);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  ClassifierEvaluator evaluator(&system->classifier());
  CrawlerOptions copts;
  copts.max_fetches = 200;
  copts.num_threads = 4;
  copts.classify_batch_size = 8;
  copts.distill_every = 64;
  Crawler crawler(&system->web(), &evaluator, &db, &catalog, copts);
  for (const std::string& url : system->web().KeywordSeeds(cycling, 8)) {
    ASSERT_TRUE(crawler.AddSeed(url).ok());
  }
  ASSERT_TRUE(crawler.Crawl().ok());
  EXPECT_EQ(crawler.visits().size(), 200u);
  EXPECT_EQ(crawler.stats().distill_rounds, 3u);
  // The raises reached the frontier and, through the final commit, CRAWL.
  bool raised = false;
  for (const crawl::FrontierEntry& e : crawler.frontier().Snapshot()) {
    if (e.hub_score <= 0) continue;
    raised = true;
    auto rec = db.Lookup(e.oid);
    ASSERT_TRUE(rec.ok() && rec.value().has_value());
    EXPECT_GE(rec.value()->relevance, copts.hub_boost_relevance) << e.url;
  }
  EXPECT_TRUE(raised) << "no frontier entry carries a hub score";
  // The boosts' HUBS live in the crawler's private catalog, not the
  // store's.
  ASSERT_NE(crawler.distill_tables().hubs, nullptr);
  EXPECT_EQ(catalog.GetTable("HUBS"), nullptr);

  // A second call on the same crawler: 80 revisits ranked by the last
  // boost's hub scores cross the trigger at 256 and end before its apply
  // point (288).
  ASSERT_TRUE(crawler.ScheduleRevisits(crawler.distill_tables().hubs, 80)
                  .ok());
  ASSERT_TRUE(crawler.Crawl().ok());
  EXPECT_EQ(crawler.visits().size(), 280u);
  EXPECT_EQ(crawler.stats().distill_rounds, 4u);
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
