#include <gtest/gtest.h>

#include <unordered_set>

#include "crawl/crawl_db.h"
#include "crawl/frontier.h"
#include "crawl/metrics.h"
#include "crawl/monitor.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "taxonomy/taxonomy.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::crawl {
namespace {

FrontierEntry Entry(uint64_t oid, int numtries, double relevance,
                    int serverload) {
  FrontierEntry e;
  e.oid = oid;
  e.url = "http://h/" + std::to_string(oid);
  e.numtries = numtries;
  e.relevance = relevance;
  e.serverload = serverload;
  return e;
}

TEST(FrontierTest, AggressiveDiscoveryOrder) {
  // (numtries asc, relevance desc, serverload asc) — serverload compared
  // in coarse buckets.
  Frontier f(PriorityPolicy::kAggressiveDiscovery);
  f.AddOrUpdate(Entry(1, 0, 0.2, 0));
  f.AddOrUpdate(Entry(2, 0, 0.9, 40));
  f.AddOrUpdate(Entry(3, 1, 1.0, 0));  // higher numtries loses
  f.AddOrUpdate(Entry(4, 0, 0.9, 1));  // same relevance, far lighter server
  EXPECT_EQ(f.PopBest()->oid, 4u);
  EXPECT_EQ(f.PopBest()->oid, 2u);
  EXPECT_EQ(f.PopBest()->oid, 1u);
  EXPECT_EQ(f.PopBest()->oid, 3u);
  EXPECT_FALSE(f.PopBest().has_value());
}

TEST(FrontierTest, ServerloadTiesBreakFifo) {
  // Small serverload differences land in the same bucket; insertion order
  // decides so no server class is systematically preferred.
  Frontier f(PriorityPolicy::kAggressiveDiscovery);
  f.AddOrUpdate(Entry(1, 0, 0.9, 5));
  f.AddOrUpdate(Entry(2, 0, 0.9, 0));
  EXPECT_EQ(f.PopBest()->oid, 1u);
  EXPECT_EQ(f.PopBest()->oid, 2u);
}

TEST(FrontierTest, BreadthFirstIsFifo) {
  Frontier f(PriorityPolicy::kBreadthFirst);
  f.AddOrUpdate(Entry(10, 0, 0.1, 0));
  f.AddOrUpdate(Entry(20, 0, 0.9, 0));
  f.AddOrUpdate(Entry(30, 0, 0.5, 0));
  EXPECT_EQ(f.PopBest()->oid, 10u);
  EXPECT_EQ(f.PopBest()->oid, 20u);
  EXPECT_EQ(f.PopBest()->oid, 30u);
}

TEST(FrontierTest, UpdateReRanksWithoutDuplication) {
  Frontier f(PriorityPolicy::kAggressiveDiscovery);
  f.AddOrUpdate(Entry(1, 0, 0.1, 0));
  f.AddOrUpdate(Entry(2, 0, 0.5, 0));
  f.AddOrUpdate(Entry(1, 0, 0.95, 0));  // boost oid 1
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.PopBest()->oid, 1u);
  EXPECT_EQ(f.PopBest()->oid, 2u);
  EXPECT_TRUE(f.empty());
}

TEST(FrontierTest, PolicySwitchRebuilds) {
  Frontier f(PriorityPolicy::kAggressiveDiscovery);
  f.AddOrUpdate(Entry(1, 0, 0.1, 0));
  f.AddOrUpdate(Entry(2, 0, 0.9, 0));
  f.SetPolicy(PriorityPolicy::kBreadthFirst);
  EXPECT_EQ(f.PopBest()->oid, 1u);  // insertion order, not relevance
  f.SetPolicy(PriorityPolicy::kAggressiveDiscovery);
  EXPECT_EQ(f.PopBest()->oid, 2u);
}

TEST(FrontierTest, EraseAndPeek) {
  Frontier f;
  f.AddOrUpdate(Entry(7, 0, 0.5, 0));
  ASSERT_NE(f.Peek(7), nullptr);
  EXPECT_DOUBLE_EQ(f.Peek(7)->relevance, 0.5);
  EXPECT_EQ(f.Peek(8), nullptr);
  f.Erase(7);
  EXPECT_EQ(f.Peek(7), nullptr);
  EXPECT_FALSE(f.PopBest().has_value());

  // Snapshot copies every live entry once, and none that was erased.
  for (uint64_t oid = 100; oid < 120; ++oid) {
    f.AddOrUpdate(Entry(oid, 0, 0.1 * static_cast<double>(oid % 7), 0));
  }
  f.Erase(105);
  std::vector<FrontierEntry> all = f.Snapshot();
  EXPECT_EQ(all.size(), 19u);
  std::unordered_set<uint64_t> oids;
  for (const FrontierEntry& e : all) oids.insert(e.oid);
  EXPECT_EQ(oids.size(), 19u);
  EXPECT_FALSE(oids.contains(105));
}

TEST(FrontierTest, RetryDeadLinksPrefersHighNumtries) {
  Frontier f(PriorityPolicy::kRetryDeadLinks);
  f.AddOrUpdate(Entry(1, 0, 0.9, 0));
  f.AddOrUpdate(Entry(2, 3, 0.2, 0));
  EXPECT_EQ(f.PopBest()->oid, 2u);
}

TEST(ServerIdTest, HostDeterminesServer) {
  EXPECT_EQ(ServerIdOf("http://s1.cycling.example/p1"),
            ServerIdOf("http://s1.cycling.example/p999"));
  EXPECT_NE(ServerIdOf("http://s1.cycling.example/p1"),
            ServerIdOf("http://s2.cycling.example/p1"));
  EXPECT_GE(ServerIdOf("http://anything/x"), 0);
}

class CrawlDbTest : public testing::Test {
 protected:
  CrawlDbTest() : pool_(&disk_, 256), catalog_(&pool_) {
    auto db = CrawlDb::Create(&catalog_);
    EXPECT_TRUE(db.ok());
    db_.emplace(db.TakeValue());
  }
  storage::MemDiskManager disk_;
  storage::BufferPool pool_;
  sql::Catalog catalog_;
  std::optional<CrawlDb> db_;
};

TEST_F(CrawlDbTest, AddLookupVisitCycle) {
  const std::string url = "http://s1.cycling.example/p1";
  ASSERT_TRUE(db_->AddUrl(url, 0.7, 2).ok());
  EXPECT_EQ(db_->AddUrl(url, 0.5, 0).code(), StatusCode::kAlreadyExists);

  auto rec = db_->LookupByUrl(url);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec.value().visited);
  EXPECT_DOUBLE_EQ(rec.value().relevance, 0.7);
  EXPECT_EQ(rec.value().serverload, 2);
  EXPECT_EQ(rec.value().sid, ServerIdOf(url));

  uint64_t oid = UrlOid(url);
  ASSERT_TRUE(db_->RecordAttempt(oid).ok());
  ASSERT_TRUE(db_->RecordVisit(oid, 0.85, 5, 123456).ok());
  rec = db_->LookupByUrl(url);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().visited);
  EXPECT_EQ(rec.value().numtries, 1);
  EXPECT_DOUBLE_EQ(rec.value().relevance, 0.85);
  EXPECT_EQ(rec.value().kcid, 5);
  EXPECT_EQ(rec.value().lastvisited, 123456);

  auto missing = db_->Lookup(999);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().has_value());
}

TEST_F(CrawlDbTest, RaiseRelevanceOnlyRaisesUnvisited) {
  const std::string url = "http://h/x";
  ASSERT_TRUE(db_->AddUrl(url, 0.3, 0).ok());
  uint64_t oid = UrlOid(url);
  ASSERT_TRUE(db_->RaiseRelevance(oid, 0.6).ok());
  EXPECT_DOUBLE_EQ(db_->LookupByUrl(url).value().relevance, 0.6);
  ASSERT_TRUE(db_->RaiseRelevance(oid, 0.4).ok());  // lower: no change
  EXPECT_DOUBLE_EQ(db_->LookupByUrl(url).value().relevance, 0.6);
  ASSERT_TRUE(db_->RecordVisit(oid, 0.2, 1, 1).ok());
  ASSERT_TRUE(db_->RaiseRelevance(oid, 0.99).ok());  // visited: no change
  EXPECT_DOUBLE_EQ(db_->LookupByUrl(url).value().relevance, 0.2);
}

TEST_F(CrawlDbTest, LinksAndEdgeWeights) {
  const std::string a = "http://s1.a.example/p", b = "http://s2.b.example/p";
  ASSERT_TRUE(db_->AddUrl(a, 0, 0).ok());
  ASSERT_TRUE(db_->AddUrl(b, 0, 0).ok());
  ASSERT_TRUE(db_->AddLink(a, b).ok());
  ASSERT_TRUE(db_->RecordVisit(UrlOid(a), 0.9, 1, 1).ok());
  ASSERT_TRUE(db_->RecordVisit(UrlOid(b), 0.4, 1, 2).ok());
  ASSERT_TRUE(db_->RefreshEdgeWeights().ok());
  auto it = db_->link_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  ASSERT_TRUE(it.Next(&rid, &row));
  EXPECT_DOUBLE_EQ(row.Get(4).AsDouble(), 0.4);  // wgt_fwd = R(dst)
  EXPECT_DOUBLE_EQ(row.Get(5).AsDouble(), 0.9);  // wgt_rev = R(src)
  EXPECT_EQ(db_->num_links(), 1u);
}

TEST_F(CrawlDbTest, ClassCensusOrdersByCount) {
  taxonomy::Taxonomy tax;
  auto a = tax.AddTopic(taxonomy::kRootCid, "alpha").value();
  auto b = tax.AddTopic(taxonomy::kRootCid, "beta").value();
  for (int i = 0; i < 9; ++i) {
    std::string url = "http://h/p" + std::to_string(i);
    ASSERT_TRUE(db_->AddUrl(url, 0, 0).ok());
    // 6 alpha, 3 beta; one page left unvisited.
    if (i == 8) continue;
    ASSERT_TRUE(db_->RecordVisit(UrlOid(url), 0.5,
                                 i < 6 ? static_cast<int32_t>(a)
                                       : static_cast<int32_t>(b),
                                 i + 1)
                    .ok());
  }
  auto census = ClassCensus(*db_, tax);
  ASSERT_TRUE(census.ok());
  ASSERT_EQ(census.value().size(), 2u);
  EXPECT_EQ(census.value()[0].name, "beta");
  EXPECT_EQ(census.value()[0].count, 2);  // i = 6,7
  EXPECT_EQ(census.value()[1].name, "alpha");
  EXPECT_EQ(census.value()[1].count, 6);
}

TEST_F(CrawlDbTest, HarvestByMinuteAggregates) {
  for (int i = 0; i < 4; ++i) {
    std::string url = "http://h/p" + std::to_string(i);
    ASSERT_TRUE(db_->AddUrl(url, 0, 0).ok());
    // Two visits in minute 0, two in minute 2.
    int64_t t = (i < 2 ? 10 : 130) * 1000000LL;
    ASSERT_TRUE(db_->RecordVisit(UrlOid(url), i * 0.2, 1, t).ok());
  }
  auto series = HarvestByMinute(*db_);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series.value().size(), 2u);
  EXPECT_EQ(series.value()[0].minute, 0);
  EXPECT_EQ(series.value()[0].pages, 2);
  EXPECT_NEAR(series.value()[0].avg_relevance, 0.1, 1e-9);
  EXPECT_EQ(series.value()[1].minute, 2);
  EXPECT_NEAR(series.value()[1].avg_relevance, 0.5, 1e-9);
}

TEST_F(CrawlDbTest, MissedHubNeighborsFindsUntriedCitations) {
  // Hub h cites three pages: one visited, one tried-but-failed, one never
  // tried. Only the last qualifies.
  const std::string hub = "http://s1.hubs.example/h";
  const std::string visited = "http://s2.x.example/v";
  const std::string failed = "http://s3.x.example/f";
  const std::string fresh = "http://s4.x.example/n";
  for (const auto& u : {hub, visited, failed, fresh}) {
    ASSERT_TRUE(db_->AddUrl(u, 0.5, 0).ok());
  }
  for (const auto& u : {visited, failed, fresh}) {
    ASSERT_TRUE(db_->AddLink(hub, u).ok());
  }
  ASSERT_TRUE(db_->RecordAttempt(UrlOid(visited)).ok());
  ASSERT_TRUE(db_->RecordVisit(UrlOid(visited), 0.9, 1, 1).ok());
  ASSERT_TRUE(db_->RecordAttempt(UrlOid(failed)).ok());

  // HUBS table: the hub plus low-score noise.
  auto hubs = catalog_.CreateTable(
      "HUBS", sql::Schema({{"oid", sql::TypeId::kInt64},
                           {"score", sql::TypeId::kDouble}}));
  ASSERT_TRUE(hubs.ok());
  ASSERT_TRUE(hubs.value()
                  ->Insert(sql::Tuple(
                      {sql::Value::Int64(static_cast<int64_t>(UrlOid(hub))),
                       sql::Value::Double(0.9)}))
                  .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(hubs.value()
                    ->Insert(sql::Tuple({sql::Value::Int64(100 + i),
                                         sql::Value::Double(0.001)}))
                    .ok());
  }
  auto missed = MissedHubNeighbors(*db_, hubs.value(), 0.9);
  ASSERT_TRUE(missed.ok());
  ASSERT_EQ(missed.value().size(), 1u);
  EXPECT_EQ(missed.value()[0].url, fresh);
}

TEST(MetricsTest, MovingAverageWindows) {
  std::vector<Visit> visits(6);
  double rel[] = {1, 0, 1, 0, 1, 0};
  for (int i = 0; i < 6; ++i) visits[i].relevance = rel[i];
  auto avg = MovingAverageRelevance(visits, 2);
  ASSERT_EQ(avg.size(), 6u);
  EXPECT_DOUBLE_EQ(avg[0], 1.0);
  EXPECT_DOUBLE_EQ(avg[1], 0.5);
  EXPECT_DOUBLE_EQ(avg[5], 0.5);
}

TEST(MetricsTest, CoverageCountsUniqueHits) {
  std::unordered_set<uint64_t> ref_oids = {1, 2, 3, 4};
  std::unordered_set<int32_t> ref_servers = {
      ServerIdOf("http://a/x"), ServerIdOf("http://b/x")};
  std::vector<Visit> visits(4);
  visits[0].oid = 1;
  visits[0].url = "http://a/1";
  visits[1].oid = 99;  // not in reference
  visits[1].url = "http://z/2";
  visits[2].oid = 2;
  visits[2].url = "http://b/3";
  visits[3].oid = 2;  // duplicate oid: no double counting
  visits[3].url = "http://b/4";
  auto cov = Coverage(visits, ref_oids, ref_servers);
  ASSERT_EQ(cov.url_fraction.size(), 4u);
  EXPECT_DOUBLE_EQ(cov.url_fraction[0], 0.25);
  EXPECT_DOUBLE_EQ(cov.url_fraction[1], 0.25);
  EXPECT_DOUBLE_EQ(cov.url_fraction[3], 0.5);
  EXPECT_DOUBLE_EQ(cov.server_fraction[0], 0.5);
  EXPECT_DOUBLE_EQ(cov.server_fraction[3], 1.0);
}

TEST(MetricsTest, ReferenceSetsThreshold) {
  std::vector<Visit> visits(3);
  visits[0].relevance = 0.9;   // log > -1
  visits[0].oid = 1;
  visits[0].url = "http://a/1";
  visits[1].relevance = 0.2;   // log < -1
  visits[1].oid = 2;
  visits[1].url = "http://b/2";
  visits[2].relevance = 0.5;   // log > -1
  visits[2].oid = 3;
  visits[2].url = "http://c/3";
  auto sets = RelevantReferenceSets(visits, -1.0);
  EXPECT_EQ(sets.oids, (std::unordered_set<uint64_t>{1, 3}));
  EXPECT_EQ(sets.servers.size(), 2u);
}

TEST_F(CrawlDbTest, CrawledGraphDistancesBfs) {
  // Chain a -> b -> c, plus unreachable d.
  std::vector<std::string> urls = {"http://s1.t.example/a",
                                   "http://s2.t.example/b",
                                   "http://s3.t.example/c",
                                   "http://s4.t.example/d"};
  for (const auto& u : urls) ASSERT_TRUE(db_->AddUrl(u, 0, 0).ok());
  ASSERT_TRUE(db_->AddLink(urls[0], urls[1]).ok());
  ASSERT_TRUE(db_->AddLink(urls[1], urls[2]).ok());
  auto dist = CrawledGraphDistances(
      *db_, {UrlOid(urls[0])},
      {UrlOid(urls[0]), UrlOid(urls[1]), UrlOid(urls[2]), UrlOid(urls[3])});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist.value(), (std::vector<int>{0, 1, 2, -1}));
  auto hist = DistanceHistogram(dist.value(), 10);
  EXPECT_EQ(hist[0], 1);
  EXPECT_EQ(hist[1], 1);
  EXPECT_EQ(hist[2], 1);
}

// The set-oriented refresh equals the per-row definition: wgt_fwd = R(dst),
// wgt_rev = R(src), an unvisited endpoint weighing its estimate and one
// with no CRAWL row weighing 0. Revisits move the weights; a refresh that
// changes nothing dirties no page.
TEST_F(CrawlDbTest, RefreshMatchesPerRowReferenceAndSkipsCleanRows) {
  Rng rng(23);
  std::vector<std::string> urls;
  for (int i = 0; i < 300; ++i) {
    urls.push_back(StrCat("http://s", i % 17, ".ex/p", i));
    ASSERT_TRUE(db_->AddUrl(urls.back(), 0.01 * (i % 50), 0).ok());
  }
  for (int i = 0; i < 300; i += 3) {
    ASSERT_TRUE(
        db_->RecordVisit(UrlOid(urls[i]), rng.NextDouble(), 1, i).ok());
  }
  for (int e = 0; e < 1500; ++e) {
    std::string src = urls[rng.Uniform(urls.size())];
    std::string dst = urls[rng.Uniform(urls.size())];
    if (e % 50 == 0) dst = StrCat("http://gone.ex/p", e);  // dangling dst
    if (e % 70 == 0) src = StrCat("http://lost.ex/p", e);  // dangling src
    ASSERT_TRUE(db_->AddLink(src, dst).ok());
  }
  auto expect_reference = [&] {
    auto relevance_of = [&](int64_t oid) {
      auto rec = db_->Lookup(static_cast<uint64_t>(oid)).TakeValue();
      return rec.has_value() ? rec->relevance : 0.0;
    };
    auto it = db_->link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    size_t rows = 0;
    while (it.Next(&rid, &row)) {
      ++rows;
      EXPECT_EQ(row.Get(4).AsDouble(), relevance_of(row.Get(2).AsInt64()));
      EXPECT_EQ(row.Get(5).AsDouble(), relevance_of(row.Get(0).AsInt64()));
    }
    ASSERT_TRUE(it.status().ok());
    EXPECT_EQ(rows, 1500u);
  };
  ASSERT_TRUE(db_->RefreshEdgeWeights().ok());
  expect_reference();

  ASSERT_TRUE(pool_.FlushAll().ok());
  uint64_t writes = disk_.stats().writes;
  ASSERT_TRUE(db_->RefreshEdgeWeights().ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(disk_.stats().writes, writes) << "a no-op refresh dirtied pages";

  // A revisit re-judges a page; a first visit replaces an estimate.
  ASSERT_TRUE(db_->RecordVisit(UrlOid(urls[0]), 0.999, 2, 1000).ok());
  ASSERT_TRUE(db_->RecordVisit(UrlOid(urls[1]), 0.123, 2, 1001).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  writes = disk_.stats().writes;
  ASSERT_TRUE(db_->RefreshEdgeWeights().ok());
  expect_reference();
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_GT(disk_.stats().writes, writes);
}

}  // namespace
}  // namespace focus::crawl
