#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "distill/distiller.h"
#include "distill/hits.h"
#include "distill/join_distiller.h"
#include "distill/naive_distiller.h"
#include "distill/pagerank.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace focus::distill {
namespace {

using sql::Tuple;
using sql::Value;

WeightedEdge Edge(uint64_t src, int32_t sid_src, uint64_t dst,
                  int32_t sid_dst, double fwd = 1.0, double rev = 1.0) {
  return WeightedEdge{src, sid_src, dst, sid_dst, fwd, rev};
}

TEST(HitsEngineTest, StarGraphFindsHubAndAuthorities) {
  // Node 1 links to 2,3,4 (all relevant): 1 is the hub, 2-4 authorities.
  std::vector<WeightedEdge> edges = {Edge(1, 10, 2, 20), Edge(1, 10, 3, 30),
                                     Edge(1, 10, 4, 40)};
  std::unordered_map<uint64_t, double> rel = {{1, 1}, {2, 1}, {3, 1},
                                              {4, 1}};
  HitsEngine engine(edges, rel);
  auto scores = engine.Run({.iterations = 10, .rho = 0.0});
  EXPECT_NEAR(scores[1].hub, 1.0, 1e-9);
  EXPECT_NEAR(scores[2].auth, 1.0 / 3, 1e-9);
  EXPECT_NEAR(scores[1].auth, 0.0, 1e-12);
  auto hubs = HitsEngine::TopHubs(scores, 2);
  EXPECT_EQ(hubs[0].first, 1u);
}

TEST(HitsEngineTest, NormalizationSumsToOne) {
  Rng rng(5);
  std::vector<WeightedEdge> edges;
  std::unordered_map<uint64_t, double> rel;
  for (int i = 0; i < 200; ++i) {
    uint64_t u = rng.Uniform(40), v = rng.Uniform(40);
    if (u == v) continue;
    edges.push_back(Edge(u, static_cast<int32_t>(u % 7), v,
                         static_cast<int32_t>(v % 7)));
    rel[u] = 1;
    rel[v] = 1;
  }
  HitsEngine engine(edges, rel);
  auto scores = engine.Run({.iterations = 15, .rho = 0.0});
  double hub_sum = 0, auth_sum = 0;
  for (const auto& [oid, s] : scores) {
    hub_sum += s.hub;
    auth_sum += s.auth;
  }
  EXPECT_NEAR(hub_sum, 1.0, 1e-9);
  EXPECT_NEAR(auth_sum, 1.0, 1e-9);
}

TEST(HitsEngineTest, NepotismFilterIgnoresSameServerEdges) {
  // Only edge is same-server: nothing should accumulate.
  std::vector<WeightedEdge> edges = {Edge(1, 5, 2, 5)};
  HitsEngine engine(edges, {{1, 1.0}, {2, 1.0}});
  auto scores = engine.Run({.iterations = 5, .rho = 0.0});
  EXPECT_EQ(scores[2].auth, 0.0);
}

TEST(HitsEngineTest, RhoFilterExcludesIrrelevantAuthorities) {
  std::vector<WeightedEdge> edges = {Edge(1, 10, 2, 20),
                                     Edge(1, 10, 3, 30)};
  // Node 3 is barely relevant.
  HitsEngine engine(edges, {{1, 1.0}, {2, 0.9}, {3, 0.05}});
  auto scores = engine.Run({.iterations = 5, .rho = 0.5});
  EXPECT_GT(scores[2].auth, 0.0);
  EXPECT_EQ(scores[3].auth, 0.0);
}

TEST(HitsEngineTest, EdgeWeightsDampenIrrelevantEndorsement) {
  // Two hubs pointing at the same authority; the relevant hub (higher
  // wgt_rev) collects more hub score.
  std::vector<WeightedEdge> edges = {Edge(1, 10, 3, 30), Edge(2, 20, 3, 30)};
  std::unordered_map<uint64_t, double> rel = {{1, 1.0}, {2, 0.1}, {3, 1.0}};
  AssignRelevanceWeights(rel, &edges);
  EXPECT_DOUBLE_EQ(edges[0].wgt_rev, 1.0);
  EXPECT_DOUBLE_EQ(edges[1].wgt_rev, 0.1);
  HitsEngine engine(edges, rel);
  auto scores = engine.Run({.iterations = 5, .rho = 0.0});
  EXPECT_GT(scores[1].hub, scores[2].hub * 5);
}

// ---- DB-resident distillers ----

class DistillerTest : public testing::Test {
 protected:
  DistillerTest() : pool_(&disk_, 1024), catalog_(&pool_) {}

  // Builds LINK/CRAWL tables from edges and relevances, plus the naive
  // distiller's indexed HUBS/AUTH pair (the join distiller runs on it too).
  void BuildTables(const std::vector<WeightedEdge>& edges,
                   const std::unordered_map<uint64_t, double>& relevance) {
    auto link = catalog_.CreateTable(
        "LINK",
        sql::Schema({{"oid_src", sql::TypeId::kInt64},
                     {"sid_src", sql::TypeId::kInt32},
                     {"oid_dst", sql::TypeId::kInt64},
                     {"sid_dst", sql::TypeId::kInt32},
                     {"wgt_fwd", sql::TypeId::kDouble},
                     {"wgt_rev", sql::TypeId::kDouble}}),
        {sql::IndexSpec{"by_src", {0}, {}},
         sql::IndexSpec{"by_dst", {2}, {}}});
    ASSERT_TRUE(link.ok());
    tables_.link = link.value();
    for (const auto& e : edges) {
      ASSERT_TRUE(tables_.link
                      ->Insert(Tuple(
                          {Value::Int64(static_cast<int64_t>(e.oid_src)),
                           Value::Int32(e.sid_src),
                           Value::Int64(static_cast<int64_t>(e.oid_dst)),
                           Value::Int32(e.sid_dst),
                           Value::Double(e.wgt_fwd),
                           Value::Double(e.wgt_rev)}))
                      .ok());
    }
    auto crawl = catalog_.CreateTable(
        "CRAWL",
        sql::Schema({{"oid", sql::TypeId::kInt64},
                     {"relevance", sql::TypeId::kDouble}}),
        {sql::IndexSpec{"by_oid", {0}, {}}});
    ASSERT_TRUE(crawl.ok());
    tables_.crawl = crawl.value();
    for (const auto& [oid, r] : relevance) {
      ASSERT_TRUE(tables_.crawl
                      ->Insert(Tuple({Value::Int64(static_cast<int64_t>(oid)),
                                      Value::Double(r)}))
                      .ok());
    }
    ASSERT_TRUE(CreateNaiveScoreTables(&catalog_, &tables_).ok());
  }

  storage::MemDiskManager disk_;
  storage::BufferPool pool_;
  sql::Catalog catalog_;
  DistillTables tables_;
};

// Property: both DB distillers match the in-memory engine on random graphs.
class DistillerEquivalenceTest : public DistillerTest,
                                 public testing::WithParamInterface<int> {};

TEST_P(DistillerEquivalenceTest, NaiveAndJoinMatchReference) {
  Rng rng(GetParam() * 31 + 1);
  std::vector<WeightedEdge> edges;
  std::unordered_map<uint64_t, double> relevance;
  int nodes = 30 + static_cast<int>(rng.Uniform(40));
  for (uint64_t n = 1; n <= static_cast<uint64_t>(nodes); ++n) {
    relevance[n] = rng.NextDouble();
  }
  int num_edges = 100 + static_cast<int>(rng.Uniform(300));
  for (int i = 0; i < num_edges; ++i) {
    uint64_t u = 1 + rng.Uniform(nodes), v = 1 + rng.Uniform(nodes);
    if (u == v) continue;
    edges.push_back(Edge(u, static_cast<int32_t>(u % 9), v,
                         static_cast<int32_t>(v % 9)));
  }
  AssignRelevanceWeights(relevance, &edges);
  BuildTables(edges, relevance);

  HitsOptions options{.iterations = 7, .rho = 0.3};
  HitsEngine engine(edges, relevance);
  auto expected = engine.Run(options);

  NaiveDistiller naive(tables_);
  ASSERT_TRUE(naive.Run(options).ok());
  auto naive_hubs = CollectScores(tables_.hubs);
  auto naive_auth = CollectScores(tables_.auth);
  ASSERT_TRUE(naive_hubs.ok());
  ASSERT_TRUE(naive_auth.ok());

  JoinDistiller join(tables_);
  ASSERT_TRUE(join.Run(options).ok());
  auto join_hubs = CollectScores(tables_.hubs);
  auto join_auth = CollectScores(tables_.auth);
  ASSERT_TRUE(join_hubs.ok());
  ASSERT_TRUE(join_auth.ok());

  auto score_of = [](const std::unordered_map<uint64_t, double>& m,
                     uint64_t oid) {
    auto it = m.find(oid);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const auto& [oid, s] : expected) {
    EXPECT_NEAR(score_of(naive_hubs.value(), oid), s.hub, 1e-9)
        << "naive hub " << oid;
    EXPECT_NEAR(score_of(naive_auth.value(), oid), s.auth, 1e-9)
        << "naive auth " << oid;
    EXPECT_NEAR(score_of(join_hubs.value(), oid), s.hub, 1e-9)
        << "join hub " << oid;
    EXPECT_NEAR(score_of(join_auth.value(), oid), s.auth, 1e-9)
        << "join auth " << oid;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistillerEquivalenceTest,
                         testing::Range(1, 11));

TEST_F(DistillerTest, StatsAreAccumulated) {
  std::vector<WeightedEdge> edges = {Edge(1, 1, 2, 2), Edge(2, 2, 3, 3),
                                     Edge(1, 1, 3, 3)};
  std::unordered_map<uint64_t, double> rel = {{1, 1}, {2, 1}, {3, 1}};
  AssignRelevanceWeights(rel, &edges);
  BuildTables(edges, rel);
  NaiveDistiller naive(tables_);
  ASSERT_TRUE(naive.Run({.iterations = 3, .rho = 0.0}).ok());
  EXPECT_GT(naive.stats().lookup_seconds, 0.0);
  EXPECT_GT(naive.stats().update_seconds, 0.0);
  JoinDistiller join(tables_);
  ASSERT_TRUE(join.Run({.iterations = 3, .rho = 0.0}).ok());
  EXPECT_GT(join.stats().join_seconds, 0.0);
}

TEST_F(DistillerTest, NaiveRejectsUnindexedScoreTablesUntouched) {
  std::vector<WeightedEdge> edges = {Edge(1, 1, 2, 2), Edge(2, 2, 3, 3)};
  std::unordered_map<uint64_t, double> rel = {{1, 1}, {2, 1}, {3, 1}};
  AssignRelevanceWeights(rel, &edges);
  BuildTables(edges, rel);
  // The production pair, in a second catalog so its names do not clash.
  sql::Catalog plain_catalog(&pool_);
  DistillTables plain = tables_;
  ASSERT_TRUE(CreateHubsAuthTables(&plain_catalog, &plain).ok());
  ASSERT_TRUE(plain.hubs->Insert(Tuple({Value::Int64(7), Value::Double(0.5)}))
                  .ok());
  ASSERT_TRUE(
      plain.auth->Insert(Tuple({Value::Int64(8), Value::Double(0.25)})).ok());

  NaiveDistiller naive(plain);
  Status status = naive.Initialize();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  auto hubs = CollectScores(plain.hubs);
  auto auth = CollectScores(plain.auth);
  ASSERT_TRUE(hubs.ok());
  ASSERT_TRUE(auth.ok());
  EXPECT_EQ(hubs.value(), (std::unordered_map<uint64_t, double>{{7, 0.5}}));
  EXPECT_EQ(auth.value(), (std::unordered_map<uint64_t, double>{{8, 0.25}}));
}

TEST(PageRankTest, UniformOnSymmetricCycle) {
  std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {1, 2}, {2, 0}};
  auto rank = PageRank(3, edges);
  ASSERT_EQ(rank.size(), 3u);
  EXPECT_NEAR(rank[0], 1.0 / 3, 1e-9);
  EXPECT_NEAR(std::accumulate(rank.begin(), rank.end(), 0.0), 1.0, 1e-9);
}

TEST(PageRankTest, PopularNodeRanksHigher) {
  // Everyone links to node 0.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < 10; ++i) edges.emplace_back(i, 0);
  auto rank = PageRank(10, edges);
  for (uint32_t i = 1; i < 10; ++i) EXPECT_GT(rank[0], rank[i]);
  EXPECT_NEAR(std::accumulate(rank.begin(), rank.end(), 0.0), 1.0, 1e-9);
}

TEST(PageRankTest, HandlesDanglingNodes) {
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}};  // 1 dangles
  auto rank = PageRank(2, edges);
  EXPECT_NEAR(rank[0] + rank[1], 1.0, 1e-9);
  EXPECT_GT(rank[1], rank[0]);
}

TEST(PageRankTest, EmptyGraph) {
  EXPECT_TRUE(PageRank(0, {}).empty());
  auto rank = PageRank(3, {});
  EXPECT_NEAR(std::accumulate(rank.begin(), rank.end(), 0.0), 1.0, 1e-9);
}

}  // namespace
}  // namespace focus::distill
