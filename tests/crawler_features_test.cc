// Crawler behaviours beyond the core loop: fetch failures and retries,
// crawl maintenance (revisits), dynamic policy switching, and link
// deduplication on refetch.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "util/hash.h"

namespace focus::core {
namespace {

using crawl::CrawlerOptions;
using taxonomy::Cid;

std::unique_ptr<FocusSystem> MakeSystem(uint64_t seed,
                                        double failure_prob = 0.01) {
  taxonomy::Taxonomy tax = BuildSampleTaxonomy();
  FocusOptions options;
  options.seed = seed;
  options.web.pages_per_topic = 300;
  options.web.background_pages = 5000;
  options.web.background_servers = 150;
  options.web.fetch_failure_prob = failure_prob;
  auto system = FocusSystem::Create(std::move(tax), options);
  EXPECT_TRUE(system.ok());
  auto out = system.TakeValue();
  EXPECT_TRUE(out->MarkGood("cycling").ok());
  EXPECT_TRUE(out->Train().ok());
  return out;
}

TEST(CrawlerFeaturesTest, FetchFailuresAreRetriedUpToLimit) {
  auto system = MakeSystem(3, /*failure_prob=*/0.25);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 300;
  copts.max_retries = 3;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 10),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  const auto& stats = session->crawler().stats();
  // With a 25% failure rate there must be failures and the crawl must
  // still complete its budget.
  EXPECT_GT(stats.transient_failures + stats.dropped_urls, 20u);
  EXPECT_EQ(session->crawler().visits().size(), 300u);
  EXPECT_EQ(stats.attempts, session->crawler().visits().size() +
                                stats.transient_failures +
                                stats.dropped_urls);
  // No page should record more tries than the retry limit.
  auto it = session->db().crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    EXPECT_LE(row.Get(3).AsInt32(), copts.max_retries);
  }
}

TEST(CrawlerFeaturesTest, ScheduleRevisitsRefetchesStalestFirst) {
  auto system = MakeSystem(5);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 150;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  ASSERT_EQ(session->crawler().visits().size(), 150u);
  uint64_t links_before = session->db().num_links();

  // First-visit times of the earliest pages.
  std::unordered_map<uint64_t, int64_t> first_visit_time;
  for (const auto& v : session->crawler().visits()) {
    first_visit_time.emplace(v.oid, v.virtual_time_us);
  }

  ASSERT_TRUE(
      session->crawler().ScheduleRevisits(/*hubs=*/nullptr, 40).ok());
  ASSERT_TRUE(session->crawler().Crawl().ok());
  const auto& visits = session->crawler().visits();
  ASSERT_EQ(visits.size(), 190u);

  // The revisited pages are the 40 stalest (earliest-visited) ones, and
  // they are refetched in (roughly) staleness order.
  std::vector<int64_t> revisit_times;
  for (size_t i = 150; i < visits.size(); ++i) {
    auto it = first_visit_time.find(visits[i].oid);
    ASSERT_NE(it, first_visit_time.end()) << "revisited an unseen page";
    revisit_times.push_back(it->second);
  }
  for (size_t i = 1; i < revisit_times.size(); ++i) {
    EXPECT_LE(revisit_times[i - 1], revisit_times[i]);
  }
  // Revisits do not duplicate LINK rows.
  EXPECT_EQ(session->db().num_links(), links_before);
  // lastvisited advanced for revisited pages.
  auto rec = session->db().Lookup(visits[150].oid);
  ASSERT_TRUE(rec.ok());
  EXPECT_GT(rec.value()->lastvisited, first_visit_time[visits[150].oid]);
}

TEST(CrawlerFeaturesTest, RevisitsUseHubScoresToBreakTies) {
  // With hub scores supplied, equal-staleness pages order by score. We
  // fabricate a HUBS table that inverts discovery order.
  auto system = MakeSystem(7);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 50;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 5),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  auto hubs = session->catalog().CreateTable(
      "FAKE_HUBS", sql::Schema({{"oid", sql::TypeId::kInt64},
                                {"score", sql::TypeId::kDouble}}));
  ASSERT_TRUE(hubs.ok());
  // All visits happened at distinct virtual times, so hub scores only
  // matter as a secondary criterion; just verify the call works with a
  // hubs table present and the budget extends.
  for (const auto& v : session->crawler().visits()) {
    ASSERT_TRUE(
        hubs.value()
            ->Insert(sql::Tuple(
                {sql::Value::Int64(static_cast<int64_t>(v.oid)),
                 sql::Value::Double(1.0 / (1 + v.fetch_index))}))
            .ok());
  }
  ASSERT_TRUE(session->crawler().ScheduleRevisits(hubs.value(), 10).ok());
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 60u);
}

TEST(CrawlerFeaturesTest, PolicySwitchMidCrawlTakesEffect) {
  auto system = MakeSystem(9);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 100;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  session->crawler().SetPolicy(crawl::PriorityPolicy::kBreadthFirst);
  EXPECT_EQ(session->crawler().frontier().policy(),
            crawl::PriorityPolicy::kBreadthFirst);
}

TEST(CrawlerFeaturesTest, ResumeFromDbContinuesAfterCrash) {
  // §3.1: "all crawlers crash" — the CRAWL table is the durable state. We
  // run a partial crawl, throw the Crawler away, build a fresh one over
  // the same CrawlDb and resume.
  auto system = MakeSystem(13);
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 8);
  CrawlerOptions copts;
  copts.max_fetches = 120;
  auto session = system->NewCrawl(seeds, copts).TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  ASSERT_EQ(session->crawler().visits().size(), 120u);
  uint64_t urls_before = session->db().num_urls();
  uint64_t links_before = session->db().num_links();
  std::unordered_set<uint64_t> visited_before;
  for (const auto& v : session->crawler().visits()) {
    visited_before.insert(v.oid);
  }

  // "Crash": a brand-new crawler over the same relational state.
  crawl::ClassifierEvaluator evaluator(&system->classifier());
  CrawlerOptions resumed_options;
  resumed_options.max_fetches = 100;  // fresh budget for the resumed run
  crawl::Crawler resumed(&system->web(), &evaluator, &session->db(),
                         &session->catalog(), resumed_options);
  ASSERT_TRUE(resumed.ResumeFromDb().ok());
  EXPECT_GT(resumed.frontier().size(), 0u);
  ASSERT_TRUE(resumed.Crawl().ok());
  EXPECT_EQ(resumed.visits().size(), 100u);
  // The resumed crawl fetches only pages the dead crawler had not visited.
  for (const auto& v : resumed.visits()) {
    EXPECT_FALSE(visited_before.contains(v.oid)) << v.url;
  }
  // And it keeps extending the same tables.
  EXPECT_GT(session->db().num_urls(), urls_before);
  EXPECT_GT(session->db().num_links(), links_before);
}

TEST(CrawlerFeaturesTest, BacklinkOrderingPrefersMostCited) {
  auto system = MakeSystem(15);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 150;
  copts.policy = crawl::PriorityPolicy::kBacklinkCount;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 150u);
}

TEST(CrawlerFeaturesTest, PageRankOrderingRunsWithRefresh) {
  auto system = MakeSystem(17);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 150;
  copts.policy = crawl::PriorityPolicy::kPageRankOrder;
  copts.pagerank_every = 50;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 150u);
}

TEST(CrawlerFeaturesTest, UrlTruncationFindsServerIndexPages) {
  taxonomy::Taxonomy tax = BuildSampleTaxonomy();
  FocusOptions options;
  options.seed = 19;
  options.web.pages_per_topic = 300;
  options.web.background_pages = 5000;
  options.web.background_servers = 150;
  options.web.generate_server_index_pages = true;
  auto system = FocusSystem::Create(std::move(tax), options).TakeValue();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 200;
  copts.try_truncated_urls = true;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  int index_pages = 0;
  for (const auto& v : session->crawler().visits()) {
    // Index pages are host roots: "http://host/".
    if (v.url == crawl::TruncateToHostRoot(v.url)) ++index_pages;
  }
  EXPECT_GT(index_pages, 3);
}

TEST(CrawlerFeaturesTest, TruncationMissesAreNotRetried) {
  // Without index pages in the web, truncated guesses 404; they must be
  // dropped permanently, not retried.
  auto system = MakeSystem(23, /*failure_prob=*/0.0);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 100;
  copts.try_truncated_urls = true;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 100u);
  const auto& stats = session->crawler().stats();
  EXPECT_GT(stats.dropped_urls, 0u);  // the 404 guesses
  // 404s are permanent: dropped on the first attempt, never rescheduled
  // (no transient failures exist with failure_prob = 0).
  EXPECT_EQ(stats.transient_failures, 0u);
  EXPECT_EQ(stats.attempts,
            session->crawler().visits().size() + stats.dropped_urls);
  // Dropped roots carry the exhausted-budget marker so a resumed crawl
  // skips them instead of re-guessing.
  auto it = session->db().crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    auto rec = crawl::CrawlDb::RecordFromTuple(row);
    if (!rec.visited && rec.numtries > 0 &&
        rec.url == crawl::TruncateToHostRoot(rec.url)) {
      EXPECT_GE(rec.numtries, copts.max_retries) << rec.url;
    }
  }
}

TEST(CrawlerFeaturesTest, TruncateToHostRootForms) {
  EXPECT_EQ(crawl::TruncateToHostRoot("http://a.b.c/p/q"), "http://a.b.c/");
  EXPECT_EQ(crawl::TruncateToHostRoot("http://a.b.c/"), "http://a.b.c/");
  EXPECT_EQ(crawl::TruncateToHostRoot("http://a.b.c"), "http://a.b.c/");
}

TEST(CrawlerFeaturesTest, BacklinkExpansionEnqueuesCiters) {
  auto system = MakeSystem(29, /*failure_prob=*/0.0);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 150;
  copts.expand_backlinks = true;
  copts.backlinks_per_page = 4;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 5),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 150u);
  // Backlink metadata is consistent with the forward graph.
  const auto& first = session->crawler().visits().front();
  auto citers = system->web().Backlinks(first.url, 10);
  ASSERT_TRUE(citers.ok());
  for (const auto& citer : citers.value()) {
    auto idx = system->web().PageIndexByUrl(citer);
    ASSERT_TRUE(idx.ok());
    bool links_forward = false;
    auto target = system->web().PageIndexByUrl(first.url).value();
    for (uint32_t t : system->web().page(idx.value()).outlinks) {
      links_forward |= (t == target);
    }
    EXPECT_TRUE(links_forward) << citer << " -> " << first.url;
  }
}

TEST(CrawlerFeaturesTest, RemoteAdmissionFollowsTheLocalAdmissionRule) {
  // A cross-shard delivery must land exactly as the local expansion path
  // would: an admit-if-unknown target (a truncated host root or a backlink
  // citer) enters without a backlink, an ordinary citation counts one, and
  // raising a known unvisited row refreshes its server's load.
  auto system = MakeSystem(31, /*failure_prob=*/0.0);
  Cid cycling = system->tax().FindByName("cycling").value();
  std::vector<std::string> seeds = system->web().KeywordSeeds(cycling, 1);
  ASSERT_EQ(seeds.size(), 1u);
  CrawlerOptions copts;
  copts.max_fetches = 3;
  auto session = system->NewCrawl(seeds, copts).TakeValue();
  crawl::Crawler& crawler = session->crawler();
  const std::string host = crawl::TruncateToHostRoot(seeds[0]);
  const std::string citer = host + "remote-citer.html";
  const std::string cited = host + "remote-cited.html";

  ASSERT_TRUE(crawler.AdmitRemoteLink(citer, 0.0, /*parent_oid=*/1,
                                      /*raise_if_known=*/false)
                  .ok());
  ASSERT_TRUE(crawler.AdmitRemoteLink(cited, 0.0, /*parent_oid=*/1,
                                      /*raise_if_known=*/true)
                  .ok());
  auto citer_entry = crawler.frontier().Peek(UrlOid(citer));
  ASSERT_NE(citer_entry, nullptr);
  EXPECT_EQ(citer_entry->backlinks, 0);
  auto cited_entry = crawler.frontier().Peek(UrlOid(cited));
  ASSERT_NE(cited_entry, nullptr);
  EXPECT_EQ(cited_entry->backlinks, 1);
  EXPECT_EQ(cited_entry->serverload, 0);

  // Fetch the seed (and a little more), then resume a fresh crawler over
  // the same CRAWL table: it recounts the per-server fetches from the
  // visited rows, so the seed's server carries load.
  ASSERT_TRUE(crawler.Crawl().ok());
  int32_t server_fetches = 0;
  for (const auto& visit : crawler.visits()) {
    if (crawl::ServerIdOf(visit.url) == crawl::ServerIdOf(cited)) {
      ++server_fetches;
    }
  }
  ASSERT_GT(server_fetches, 0);
  crawl::ClassifierEvaluator evaluator(&system->classifier());
  crawl::Crawler resumed(&system->web(), &evaluator, &session->db(),
                         &session->catalog(), copts);
  ASSERT_TRUE(resumed.ResumeFromDb().ok());
  cited_entry = resumed.frontier().Peek(UrlOid(cited));
  ASSERT_NE(cited_entry, nullptr) << "the citation was visited";
  EXPECT_EQ(cited_entry->serverload, 0);
  ASSERT_TRUE(resumed.AdmitRemoteLink(cited, 0.0, /*parent_oid=*/1,
                                      /*raise_if_known=*/true)
                  .ok());
  cited_entry = resumed.frontier().Peek(UrlOid(cited));
  ASSERT_NE(cited_entry, nullptr);
  EXPECT_EQ(cited_entry->backlinks, 1);
  EXPECT_EQ(cited_entry->serverload, server_fetches);
}

TEST(CrawlerFeaturesTest, DbResidentEvaluatorMatchesInMemoryCrawl) {
  // The same crawl driven by the in-memory classifier and by the
  // DB-resident single-probe classifier must visit the same pages with
  // the same judgments (the implementations are score-identical).
  auto system = MakeSystem(31, /*failure_prob=*/0.0);
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 6);

  CrawlerOptions copts;
  copts.max_fetches = 80;
  auto reference = system->NewCrawl(seeds, copts).TakeValue();
  ASSERT_TRUE(reference->crawler().Crawl().ok());

  // DB-resident setup: classifier tables + single-probe evaluator.
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  sql::Catalog clf_catalog(&pool);
  auto tables = classify::BuildClassifierTables(&clf_catalog, system->tax(),
                                                system->model());
  ASSERT_TRUE(tables.ok());
  classify::SingleProbeClassifier probe(
      &system->classifier(), &tables.value(),
      classify::SingleProbeClassifier::Variant::kBlob);
  crawl::SingleProbeEvaluator evaluator(&probe, &system->tax());

  storage::MemDiskManager crawl_disk;
  storage::BufferPool crawl_pool(&crawl_disk, 1024);
  sql::Catalog crawl_catalog(&crawl_pool);
  auto db = crawl::CrawlDb::Create(&crawl_catalog);
  ASSERT_TRUE(db.ok());
  crawl::CrawlDb crawl_db = db.TakeValue();
  crawl::Crawler db_crawler(&system->web(), &evaluator, &crawl_db,
                            &crawl_catalog, copts);
  for (const auto& url : seeds) {
    ASSERT_TRUE(db_crawler.AddSeed(url).ok());
  }
  ASSERT_TRUE(db_crawler.Crawl().ok());

  const auto& a = reference->crawler().visits();
  const auto& b = db_crawler.visits();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url) << i;
    EXPECT_NEAR(a[i].relevance, b[i].relevance, 1e-9) << i;
    EXPECT_EQ(a[i].best_leaf, b[i].best_leaf) << i;
  }
}

TEST(CrawlerFeaturesTest, VisitsAreUniquePerCrawlPhase) {
  auto system = MakeSystem(11);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 200;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  std::unordered_set<uint64_t> oids;
  for (const auto& v : session->crawler().visits()) {
    EXPECT_TRUE(oids.insert(v.oid).second) << v.url;
  }
}

}  // namespace
}  // namespace focus::core
