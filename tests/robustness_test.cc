// System-level robustness: determinism guarantees, multi-threaded stress
// with failure injection, and hostile tokenizer input.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "storage/crash_fault_disk.h"
#include "storage/wal.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/string_util.h"
#include "webgraph/web_config.h"

namespace focus::core {
namespace {

using crawl::CrawlerOptions;
using taxonomy::Cid;

FocusOptions Options(uint64_t seed) {
  FocusOptions options;
  options.seed = seed;
  options.web.pages_per_topic = 250;
  options.web.background_pages = 4000;
  options.web.background_servers = 120;
  return options;
}

TEST(RobustnessTest, IdenticalSeedsGiveIdenticalCrawls) {
  // The whole pipeline — generation, training, crawling, distillation —
  // is a pure function of the seed.
  std::vector<std::string> urls[2];
  std::vector<double> scores[2];
  for (int run = 0; run < 2; ++run) {
    taxonomy::Taxonomy tax = BuildSampleTaxonomy();
    auto system = FocusSystem::Create(std::move(tax), Options(99))
                      .TakeValue();
    ASSERT_TRUE(system->MarkGood("cycling").ok());
    ASSERT_TRUE(system->Train().ok());
    Cid cycling = system->tax().FindByName("cycling").value();
    CrawlerOptions copts;
    copts.max_fetches = 200;
    copts.distill_every = 80;
    auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                    copts)
                       .TakeValue();
    ASSERT_TRUE(session->crawler().Crawl().ok());
    for (const auto& v : session->crawler().visits()) {
      urls[run].push_back(v.url);
      scores[run].push_back(v.relevance);
    }
    auto top = session->Distill({.iterations = 10, .rho = 0.1}, 5);
    ASSERT_TRUE(top.ok());
    for (const auto& hub : top.value().hubs) {
      urls[run].push_back(hub.url);
      scores[run].push_back(hub.score);
    }
  }
  ASSERT_EQ(urls[0].size(), urls[1].size());
  for (size_t i = 0; i < urls[0].size(); ++i) {
    EXPECT_EQ(urls[0][i], urls[1][i]) << i;
    EXPECT_DOUBLE_EQ(scores[0][i], scores[1][i]) << i;
  }
}

TEST(RobustnessTest, DifferentSeedsDiverge) {
  std::vector<std::string> first_urls[2];
  for (int run = 0; run < 2; ++run) {
    taxonomy::Taxonomy tax = BuildSampleTaxonomy();
    auto system =
        FocusSystem::Create(std::move(tax), Options(run == 0 ? 1 : 2))
            .TakeValue();
    ASSERT_TRUE(system->MarkGood("cycling").ok());
    ASSERT_TRUE(system->Train().ok());
    Cid cycling = system->tax().FindByName("cycling").value();
    CrawlerOptions copts;
    copts.max_fetches = 50;
    auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                    copts)
                       .TakeValue();
    ASSERT_TRUE(session->crawler().Crawl().ok());
    for (const auto& v : session->crawler().visits()) {
      first_urls[run].push_back(v.url);
    }
  }
  EXPECT_NE(first_urls[0], first_urls[1]);
}

TEST(RobustnessTest, MultiThreadedCrawlWithFailuresAndDistillation) {
  taxonomy::Taxonomy tax = BuildSampleTaxonomy();
  FocusOptions options = Options(7);
  options.web.fetch_failure_prob = 0.15;
  auto system = FocusSystem::Create(std::move(tax), options).TakeValue();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 400;
  copts.num_threads = 8;
  copts.distill_every = 150;
  copts.try_truncated_urls = true;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  const auto& visits = session->crawler().visits();
  EXPECT_EQ(visits.size(), 400u);
  std::unordered_set<uint64_t> oids;
  for (const auto& v : visits) {
    EXPECT_TRUE(oids.insert(v.oid).second);
  }
  EXPECT_GT(session->crawler().stats().transient_failures +
                session->crawler().stats().dropped_urls,
            0u);
  // The relational state is consistent: every visited row is classified.
  auto it = session->db().crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  int visited_rows = 0;
  while (it.Next(&rid, &row)) {
    if (row.Get(8).AsInt32() != 0) {
      ++visited_rows;
      EXPECT_GE(row.Get(7).AsInt32(), 0);   // kcid assigned
      EXPECT_GT(row.Get(6).AsInt64(), 0);   // lastvisited set
    }
  }
  EXPECT_EQ(visited_rows, 400);
}

TEST(RobustnessTest, TokenizerSurvivesHostileInput) {
  text::Tokenizer tokenizer;
  Rng rng(3);
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    int len = static_cast<int>(rng.Uniform(2000));
    for (int i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto tokens = tokenizer.Tokenize(garbage);
    for (const auto& tok : tokens) {
      EXPECT_GE(tok.size(), 2u);
      for (char c : tok) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '_');
      }
    }
  }
}

TEST(RobustnessTest, CrawlerHandlesAllSeedsFailing) {
  taxonomy::Taxonomy tax = BuildSampleTaxonomy();
  auto system = FocusSystem::Create(std::move(tax), Options(11))
                    .TakeValue();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  CrawlerOptions copts;
  copts.max_fetches = 50;
  // Seeds that do not exist in the web: every fetch 404s.
  auto session = system
                     ->NewCrawl({"http://no.such.host/a",
                                 "http://no.such.host/b"},
                                copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_TRUE(session->crawler().visits().empty());
  EXPECT_TRUE(session->crawler().stats().stagnated);
  EXPECT_GT(session->crawler().stats().dropped_urls, 0u);
}

// A hostile-web config: ~10% transient failures plus permanent losses,
// timeouts, truncation, flaky servers and two scheduled outages.
FocusOptions FaultyOptions(uint64_t seed) {
  FocusOptions options = Options(seed);
  options.web.fetch_failure_prob = 0.10;
  options.web.faults.permanent_prob = 0.02;
  options.web.faults.timeout_prob = 0.03;
  options.web.faults.truncate_prob = 0.05;
  options.web.faults.flaky_server_fraction = 0.05;
  options.web.faults.slow_server_fraction = 0.10;
  options.web.faults.outages.push_back(
      webgraph::ServerOutage{/*server_id=*/0, /*start_s=*/2.0,
                             /*end_s=*/30.0});
  options.web.faults.outages.push_back(
      webgraph::ServerOutage{/*server_id=*/1, /*start_s=*/10.0,
                             /*end_s=*/60.0});
  return options;
}

std::unique_ptr<FocusSystem> TrainedSystem(FocusOptions options) {
  auto system =
      FocusSystem::Create(BuildSampleTaxonomy(), std::move(options))
          .TakeValue();
  EXPECT_TRUE(system->MarkGood("cycling").ok());
  EXPECT_TRUE(system->Train().ok());
  return system;
}

// A crawl-to-exhaustion over the hostile web, with its owning system.
struct FaultyExhaustion {
  std::unique_ptr<FocusSystem> system;
  std::unique_ptr<CrawlSession> session;
  std::unordered_map<uint64_t, double> relevance_by_oid;
};

FaultyExhaustion ExhaustWithFaults(uint64_t seed, int num_threads) {
  FaultyExhaustion run;
  run.system = TrainedSystem(FaultyOptions(seed));
  Cid cycling = run.system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 20000;  // > total page count: runs to stagnation
  copts.num_threads = num_threads;
  copts.distill_every = 0;
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

TEST(RobustnessTest, DeterministicUnderFaultsAcrossThreadCounts) {
  // Fault outcomes are a pure function of (seed, page, attempt ordinal);
  // backoff, outages and breakers only *delay* entries. So even with ~10%
  // fault injection, the set of pages a crawl-to-exhaustion visits — and
  // which URLs it drops — is identical at any thread count. (Attempt and
  // transient-failure counts ARE timing-dependent: outage hits vary with
  // when workers land on a server. The visit set must not.)
  FaultyExhaustion solo = ExhaustWithFaults(33, /*num_threads=*/1);
  FaultyExhaustion pooled = ExhaustWithFaults(33, /*num_threads=*/8);

  ASSERT_GT(solo.relevance_by_oid.size(), 100u);
  ASSERT_EQ(solo.relevance_by_oid.size(), pooled.relevance_by_oid.size());
  for (const auto& [oid, relevance] : solo.relevance_by_oid) {
    auto it = pooled.relevance_by_oid.find(oid);
    ASSERT_NE(it, pooled.relevance_by_oid.end())
        << "oid " << oid << " missing from the 8-thread crawl";
    EXPECT_DOUBLE_EQ(relevance, it->second) << "oid " << oid;
  }
  // The fault model actually fired, and drop decisions are deterministic.
  const auto& solo_stats = solo.session->crawler().stats();
  const auto& pooled_stats = pooled.session->crawler().stats();
  EXPECT_GT(solo_stats.transient_failures, 0u);
  EXPECT_GT(solo_stats.dropped_urls, 0u);
  EXPECT_EQ(solo_stats.dropped_urls, pooled_stats.dropped_urls);
}

TEST(RobustnessTest, KillAndResumeConvergesToUninterruptedCrawl) {
  // Uninterrupted reference run.
  FaultyExhaustion full = ExhaustWithFaults(35, /*num_threads=*/1);

  // Same-seed run "killed" by budget exhaustion mid-crawl...
  auto system = TrainedSystem(FaultyOptions(35));
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 8);
  CrawlerOptions partial;
  partial.max_fetches = 120;
  partial.distill_every = 0;
  auto session = system->NewCrawl(seeds, partial).TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  std::unordered_map<uint64_t, double> merged;
  for (const auto& v : session->crawler().visits()) {
    merged[v.oid] = v.relevance;
  }
  ASSERT_LT(merged.size(), full.relevance_by_oid.size());

  // ...then resumed by a brand-new crawler over the same CrawlDb: numtries,
  // nextretry and BREAKER rows restore the retry schedule.
  crawl::ClassifierEvaluator evaluator(&system->classifier());
  CrawlerOptions rest;
  rest.max_fetches = 20000;
  rest.distill_every = 0;
  crawl::Crawler resumed(&system->web(), &evaluator, &session->db(),
                         &session->catalog(), rest);
  ASSERT_TRUE(resumed.ResumeFromDb().ok());
  ASSERT_TRUE(resumed.Crawl().ok());
  EXPECT_TRUE(resumed.stats().stagnated);
  for (const auto& v : resumed.visits()) {
    EXPECT_FALSE(merged.contains(v.oid)) << "revisited " << v.url;
    merged[v.oid] = v.relevance;
  }

  // The interrupted crawl converges to the uninterrupted one: same visit
  // set, same judged relevances, same discovered URL and LINK rows.
  ASSERT_EQ(merged.size(), full.relevance_by_oid.size());
  for (const auto& [oid, relevance] : full.relevance_by_oid) {
    auto it = merged.find(oid);
    ASSERT_NE(it, merged.end()) << "oid " << oid << " never revisited";
    EXPECT_DOUBLE_EQ(relevance, it->second) << "oid " << oid;
  }
  EXPECT_EQ(session->db().num_urls(), full.session->db().num_urls());
  EXPECT_EQ(session->db().num_links(), full.session->db().num_links());
}

// Visited rows of a crawl database: oid -> judged relevance.
std::unordered_map<uint64_t, double> VisitedRows(crawl::CrawlDb* db) {
  std::unordered_map<uint64_t, double> out;
  auto it = db->crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    if (row.Get(8).AsInt32() != 0) {
      out[static_cast<uint64_t>(row.Get(0).AsInt64())] =
          row.Get(4).AsDouble();
    }
  }
  EXPECT_TRUE(it.status().ok());
  return out;
}

// Parameter: crawl worker threads. At 4 threads batches stage their WAL
// commits under the crawl-state lock and await durability outside it, so
// the power cut can land while several staged batches share one flush.
class RobustnessCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(RobustnessCrashTest, StorageCrashMidCommitResumesAndConverges) {
  // A crawl over a file-backed WAL store, killed by a storage-level power
  // cut inside a batch commit, must recover to a commit boundary and — a
  // fresh crawler resuming from the recovered tables — converge to the
  // same final state as a crawl that was never interrupted. This is the
  // §3.1 crash claim ("all crawlers crash") carried down to the disk.
  const int num_threads = GetParam();
  FocusOptions options = Options(37);
  options.web.pages_per_topic = 120;
  options.web.background_pages = 800;
  options.web.background_servers = 40;
  options.web.fetch_failure_prob = 0.10;
  options.web.faults.permanent_prob = 0.02;

  // Reference: uninterrupted in-memory crawl to exhaustion. The storage
  // backend is transparent, so its final tables are the target state.
  std::unordered_map<uint64_t, double> full_visited;
  uint64_t full_urls = 0, full_links = 0;
  {
    auto system = TrainedSystem(options);
    Cid cycling = system->tax().FindByName("cycling").value();
    CrawlerOptions copts;
    copts.max_fetches = 20000;
    auto session =
        system->NewCrawl(system->web().KeywordSeeds(cycling, 8), copts)
            .TakeValue();
    ASSERT_TRUE(session->crawler().Crawl().ok());
    ASSERT_TRUE(session->crawler().stats().stagnated);
    full_visited = VisitedRows(&session->db());
    full_urls = session->db().num_urls();
    full_links = session->db().num_links();
  }
  ASSERT_GT(full_visited.size(), 50u);

  // One WAL-backed crawl attempt over `plan`-decorated file devices.
  // Deterministic per seed, so a counting pass sizes the op stream and a
  // second pass crashes at ~60% of it — inside some batch's commit, since
  // nearly every device op belongs to one.
  std::string base =
      StrCat(::testing::TempDir(), "robustness_wal_t", num_threads);
  storage::CrashPlan plan;
  auto crawl_attempt = [&](const std::string& tag) -> Status {
    auto data =
        storage::FileDiskManager::Open(StrCat(base, tag, ".db"))
            .TakeValue();
    auto log =
        storage::FileDiskManager::Open(StrCat(base, tag, ".wal"))
            .TakeValue();
    storage::CrashFaultDiskManager cdata(data.get(), &plan);
    storage::CrashFaultDiskManager clog(log.get(), &plan);
    auto system = TrainedSystem(options);
    Cid cycling = system->tax().FindByName("cycling").value();
    FOCUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::WalDiskManager> wal,
                           storage::WalDiskManager::Open(&cdata, &clog));
    storage::BufferPool pool(wal.get(), 4096);
    sql::Catalog catalog(&pool);
    FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                           crawl::CrawlDb::Open(&catalog, wal.get()));
    crawl::ClassifierEvaluator evaluator(&system->classifier());
    CrawlerOptions copts;
    copts.max_fetches = 20000;
    copts.num_threads = num_threads;
    crawl::Crawler crawler(&system->web(), &evaluator, &db, &catalog,
                           copts);
    for (const std::string& url :
         system->web().KeywordSeeds(cycling, 8)) {
      FOCUS_RETURN_IF_ERROR(crawler.AddSeed(url));
    }
    return crawler.Crawl();
  };

  ASSERT_TRUE(crawl_attempt("_count").ok());
  uint64_t total_ops = plan.op_count.load();
  ASSERT_GT(total_ops, 100u);

  plan.Reset(total_ops * 6 / 10);
  Status crashed = crawl_attempt("_crash");
  ASSERT_FALSE(crashed.ok());
  ASSERT_NE(crashed.message().find(storage::kCrashMessage),
            std::string::npos)
      << crashed.ToString();

  // Recovery: reopen the surviving files, replay the log, resume with a
  // brand-new crawler, and run to exhaustion.
  storage::FileDiskManager::Options attach;
  attach.truncate = false;
  auto data =
      storage::FileDiskManager::Open(base + "_crash.db", attach)
          .TakeValue();
  auto log =
      storage::FileDiskManager::Open(base + "_crash.wal", attach)
          .TakeValue();
  auto wal = storage::WalDiskManager::Open(data.get(), log.get())
                 .TakeValue();
  storage::BufferPool pool(wal.get(), 4096);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  std::unordered_map<uint64_t, double> at_recovery = VisitedRows(&db);
  ASSERT_LT(at_recovery.size(), full_visited.size());  // work was lost

  auto system = TrainedSystem(options);
  crawl::ClassifierEvaluator evaluator(&system->classifier());
  CrawlerOptions copts;
  copts.max_fetches = 20000;
  copts.num_threads = num_threads;
  crawl::Crawler resumed(&system->web(), &evaluator, &db, &catalog,
                         copts);
  ASSERT_TRUE(resumed.ResumeFromDb().ok());
  ASSERT_TRUE(resumed.Crawl().ok());
  EXPECT_TRUE(resumed.stats().stagnated);
  EXPECT_GT(resumed.visits().size(), 0u);

  // Batch atomicity at the storage layer means the recovered store was a
  // consistent prefix; the resumed crawl must therefore converge exactly.
  std::unordered_map<uint64_t, double> final_visited = VisitedRows(&db);
  ASSERT_EQ(final_visited.size(), full_visited.size());
  for (const auto& [oid, relevance] : full_visited) {
    auto it = final_visited.find(oid);
    ASSERT_NE(it, final_visited.end()) << "oid " << oid << " missing";
    EXPECT_DOUBLE_EQ(relevance, it->second) << "oid " << oid;
  }
  EXPECT_EQ(db.num_urls(), full_urls);
  EXPECT_EQ(db.num_links(), full_links);
}

INSTANTIATE_TEST_SUITE_P(Threads, RobustnessCrashTest,
                         ::testing::Values(1, 4));

TEST(RobustnessTest, CircuitBreakerReducesWastedWorkOnDeadServers) {
  // With ~12% of servers dead, every pop of a dead-server page burns a
  // full timeout without the breaker. With it, the server is quarantined
  // after a few failures and its pages sit parked, so a fixed visit budget
  // completes with fewer wasted attempts and less virtual time.
  auto run = [](bool breaker_enabled) {
    FocusOptions options = Options(55);
    options.web.fetch_failure_prob = 0.02;
    options.web.faults.dead_server_fraction = 0.12;
    auto system = TrainedSystem(std::move(options));
    Cid cycling = system->tax().FindByName("cycling").value();
    CrawlerOptions copts;
    copts.max_fetches = 300;
    copts.distill_every = 0;
    copts.breaker.enabled = breaker_enabled;
    auto session =
        system->NewCrawl(system->web().KeywordSeeds(cycling, 8), copts)
            .TakeValue();
    EXPECT_TRUE(session->crawler().Crawl().ok());
    EXPECT_EQ(session->crawler().visits().size(), 300u);
    struct Outcome {
      uint64_t attempts;
      uint64_t breaker_skips;
      int64_t makespan_us;
    };
    return Outcome{session->crawler().stats().attempts,
                   session->crawler().stats().breaker_skips,
                   session->crawler().clock().NowMicros()};
  };
  auto with_breaker = run(true);
  auto without = run(false);

  EXPECT_GT(with_breaker.breaker_skips, 0u);
  EXPECT_EQ(without.breaker_skips, 0u);
  EXPECT_LT(with_breaker.attempts, without.attempts);
  EXPECT_LT(with_breaker.makespan_us, without.makespan_us);
}

}  // namespace
}  // namespace focus::core
