// Distillation extras: edge-weight assignment, ablation flags, ranking
// determinism, degenerate graphs, and dangling-edge tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_set>

#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "distill/distiller.h"
#include "distill/hits.h"
#include "distill/join_distiller.h"
#include "distill/pagerank.h"
#include "obs/metrics.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/random.h"

namespace focus::distill {
namespace {

TEST(AssignWeightsTest, MapsEndpointRelevances) {
  std::vector<WeightedEdge> edges = {
      {1, 10, 2, 20, 0, 0}, {2, 20, 3, 30, 0, 0}};
  AssignRelevanceWeights({{1, 0.9}, {2, 0.5}}, &edges);
  EXPECT_DOUBLE_EQ(edges[0].wgt_fwd, 0.5);  // R(dst=2)
  EXPECT_DOUBLE_EQ(edges[0].wgt_rev, 0.9);  // R(src=1)
  EXPECT_DOUBLE_EQ(edges[1].wgt_fwd, 0.0);  // R(3) unknown -> 0
  EXPECT_DOUBLE_EQ(edges[1].wgt_rev, 0.5);
}

TEST(HitsAblationTest, NepotismFlagChangesScores) {
  // Same-server edge from 1 to 2 plus off-server edge from 3 to 2.
  std::vector<WeightedEdge> edges = {{1, 5, 2, 5, 1, 1},
                                     {3, 7, 2, 8, 1, 1}};
  std::unordered_map<uint64_t, double> rel = {{1, 1}, {2, 1}, {3, 1}};
  HitsEngine engine(edges, rel);
  auto with = engine.Run({.iterations = 5, .rho = 0, .nepotism_filter =
                              true});
  auto without = engine.Run({.iterations = 5, .rho = 0,
                             .nepotism_filter = false});
  // With the filter, only node 3 hubs; without it node 1 also does.
  EXPECT_EQ(with[1].hub, 0.0);
  EXPECT_GT(without[1].hub, 0.0);
  EXPECT_NEAR(without[1].hub + without[3].hub, 1.0, 1e-9);
}

TEST(HitsRankingTest, TopListsDeterministicUnderTies) {
  std::unordered_map<uint64_t, HubAuthScore> scores;
  for (uint64_t oid = 1; oid <= 10; ++oid) {
    scores[oid] = HubAuthScore{0.1, 0.1};  // all tied
  }
  auto hubs = HitsEngine::TopHubs(scores, 5);
  ASSERT_EQ(hubs.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(hubs[i].first, i + 1);
  auto auths = HitsEngine::TopAuthorities(scores, 3);
  EXPECT_EQ(auths[0].first, 1u);
}

TEST(HitsDegenerateTest, EmptyGraph) {
  HitsEngine engine({}, {});
  auto scores = engine.Run({.iterations = 5});
  EXPECT_TRUE(scores.empty());
}

TEST(HitsDegenerateTest, AllEdgesFiltered) {
  // Every destination fails the rho filter: scores must not blow up.
  std::vector<WeightedEdge> edges = {{1, 1, 2, 2, 1, 1}};
  HitsEngine engine(edges, {{1, 0.1}, {2, 0.1}});
  auto scores = engine.Run({.iterations = 5, .rho = 0.9});
  EXPECT_EQ(scores[2].auth, 0.0);
  EXPECT_EQ(scores[1].hub, 0.0);
}

TEST(HitsConvergenceTest, ScoresStabilizeAcrossIterations) {
  Rng rng(13);
  std::vector<WeightedEdge> edges;
  std::unordered_map<uint64_t, double> rel;
  for (int i = 0; i < 400; ++i) {
    uint64_t u = 1 + rng.Uniform(60), v = 1 + rng.Uniform(60);
    if (u == v) continue;
    edges.push_back({u, static_cast<int32_t>(u % 11), v,
                     static_cast<int32_t>(v % 11), 0, 0});
    rel[u] = 1;
    rel[v] = 1;
  }
  AssignRelevanceWeights(rel, &edges);
  HitsEngine engine(edges, rel);
  auto s20 = engine.Run({.iterations = 20});
  auto s40 = engine.Run({.iterations = 40});
  for (const auto& [oid, s] : s20) {
    EXPECT_NEAR(s.hub, s40[oid].hub, 1e-6) << oid;
    EXPECT_NEAR(s.auth, s40[oid].auth, 1e-6) << oid;
  }
}

// A miniature crawl database for dangling-edge tests: CRAWL stand-in
// (oid, relevance, by_oid) plus the full 6-column LINK schema.
struct MiniGraph {
  storage::MemDiskManager disk;
  storage::BufferPool pool{&disk, 256};
  sql::Catalog catalog{&pool};
  DistillTables tables;

  MiniGraph() {
    using sql::IndexSpec;
    using sql::TypeId;
    tables.crawl =
        catalog
            .CreateTable("CRAWL",
                         sql::Schema({{"oid", TypeId::kInt64},
                                      {"relevance", TypeId::kDouble}}),
                         {IndexSpec{"by_oid", {0}, {}}})
            .TakeValue();
    tables.link =
        catalog
            .CreateTable("LINK",
                         sql::Schema({{"oid_src", TypeId::kInt64},
                                      {"sid_src", TypeId::kInt32},
                                      {"oid_dst", TypeId::kInt64},
                                      {"sid_dst", TypeId::kInt32},
                                      {"wgt_fwd", TypeId::kDouble},
                                      {"wgt_rev", TypeId::kDouble}}),
                         {})
            .TakeValue();
    EXPECT_TRUE(CreateHubsAuthTables(&catalog, &tables).ok());
  }

  void AddPage(int64_t oid, double relevance) {
    EXPECT_TRUE(tables.crawl
                    ->Insert(sql::Tuple({sql::Value::Int64(oid),
                                         sql::Value::Double(relevance)}))
                    .ok());
  }
  void AddEdge(int64_t src, int64_t dst, double weight = 1.0) {
    // Distinct sids (src*10 vs dst*10) keep the nepotism filter out of
    // the way.
    EXPECT_TRUE(
        tables.link
            ->Insert(sql::Tuple(
                {sql::Value::Int64(src),
                 sql::Value::Int32(static_cast<int32_t>(src * 10)),
                 sql::Value::Int64(dst),
                 sql::Value::Int32(static_cast<int32_t>(dst * 10)),
                 sql::Value::Double(weight), sql::Value::Double(weight)}))
            .ok());
  }
};

TEST(JoinDanglingTest, ToleratesAndCountsDanglingEndpoints) {
  MiniGraph g;
  g.AddPage(1, 1.0);
  g.AddPage(2, 1.0);
  g.AddPage(3, 1.0);
  g.AddEdge(1, 2);  // both endpoints known
  g.AddEdge(3, 2);  // both endpoints known
  g.AddEdge(1, 9);  // dangling dst (9 purged from CRAWL)
  g.AddEdge(9, 2);  // dangling src
  g.AddEdge(8, 9);  // both endpoints dangling

  JoinDistiller distiller(g.tables);
  ASSERT_TRUE(distiller.Run({.iterations = 3, .rho = 0.0}).ok());

  EXPECT_EQ(distiller.stats().dangling_src_edges, 2u);  // 9->2, 8->9
  EXPECT_EQ(distiller.stats().dangling_dst_edges, 2u);  // 1->9, 8->9
  EXPECT_EQ(distiller.stats().nonfinite_scores, 0u);

  // The surviving subgraph still scores: hubs 1 and 3 cite authority 2.
  auto hubs = CollectScores(g.tables.hubs).TakeValue();
  auto auth = CollectScores(g.tables.auth).TakeValue();
  for (const auto& [oid, score] : hubs) EXPECT_TRUE(std::isfinite(score));
  for (const auto& [oid, score] : auth) EXPECT_TRUE(std::isfinite(score));
  EXPECT_GT(hubs[1], 0.0);
  EXPECT_GT(auth[2], 0.0);

  // The counts export as labeled gauges.
  obs::MetricsRegistry registry;
  distiller.ExportMetrics(&registry, "test");
  EXPECT_DOUBLE_EQ(
      registry
          .GetGauge("focus_distill_dangling_edges",
                    {{"distiller", "test"}, {"endpoint", "src"}})
          ->Value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      registry
          .GetGauge("focus_distill_dangling_edges",
                    {{"distiller", "test"}, {"endpoint", "dst"}})
          ->Value(),
      2.0);
}

TEST(JoinDanglingTest, NonFiniteWeightsAreClampedNotPropagated) {
  MiniGraph g;
  g.AddPage(1, 1.0);
  g.AddPage(2, 1.0);
  g.AddPage(3, 1.0);
  g.AddEdge(1, 2);
  // A corrupt edge weight would otherwise ride through sum() and turn the
  // whole normalized vector into NaN.
  g.AddEdge(3, 2, std::numeric_limits<double>::infinity());

  JoinDistiller distiller(g.tables);
  ASSERT_TRUE(distiller.Run({.iterations = 2, .rho = 0.0}).ok());

  EXPECT_GT(distiller.stats().nonfinite_scores, 0u);
  auto hubs = CollectScores(g.tables.hubs).TakeValue();
  auto auth = CollectScores(g.tables.auth).TakeValue();
  for (const auto& [oid, score] : hubs) {
    EXPECT_TRUE(std::isfinite(score)) << "hub " << oid;
  }
  for (const auto& [oid, score] : auth) {
    EXPECT_TRUE(std::isfinite(score)) << "auth " << oid;
  }
}

TEST(JoinDanglingTest, FaultInjectedCrawlGraphDistillsFinite) {
  // A crawl over a hostile web drops URLs whose retry budget exhausts;
  // purging those rows (crash-recovery debris collection) leaves LINK
  // edges with no CRAWL endpoint. Distillation must survive that graph
  // and surface the damage through the session's metrics registry.
  core::FocusOptions options;
  options.seed = 21;
  options.web.pages_per_topic = 250;
  options.web.background_pages = 4000;
  options.web.background_servers = 120;
  options.web.fetch_failure_prob = 0.15;
  options.web.faults.permanent_prob = 0.05;
  options.web.faults.timeout_prob = 0.03;
  options.web.faults.flaky_server_fraction = 0.05;
  auto system =
      core::FocusSystem::Create(core::BuildSampleTaxonomy(), options)
          .TakeValue();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  auto cycling = system->tax().FindByName("cycling").value();

  obs::MetricsRegistry registry;
  crawl::CrawlerOptions copts;
  copts.max_fetches = 300;
  copts.distill_every = 0;
  copts.metrics_registry = &registry;
  auto session =
      system->NewCrawl(system->web().KeywordSeeds(cycling, 8), copts)
          .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  ASSERT_GT(session->crawler().stats().dropped_urls, 0u);

  // Purge abandoned rows: unvisited, attempted, no retry scheduled.
  sql::Table* crawl = session->db().crawl_table();
  std::vector<storage::Rid> doomed;
  std::unordered_set<int64_t> purged;
  {
    auto it = crawl->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      if (row.Get(8).AsInt32() == 0 && row.Get(3).AsInt32() > 0 &&
          row.Get(9).AsInt64() == 0) {
        doomed.push_back(rid);
        purged.insert(row.Get(0).AsInt64());
      }
    }
    ASSERT_TRUE(it.status().ok());
  }
  ASSERT_FALSE(doomed.empty());
  for (const storage::Rid& rid : doomed) {
    ASSERT_TRUE(crawl->Delete(rid).ok());
  }

  // Hand-count the edges the purge left dangling. Only unvisited pages
  // were purged and only visited pages source links, so src stays clean.
  uint64_t expect_dst = 0;
  {
    auto it = session->db().link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      if (purged.contains(row.Get(2).AsInt64())) ++expect_dst;
    }
    ASSERT_TRUE(it.status().ok());
  }
  ASSERT_GT(expect_dst, 0u);

  auto result = session->Distill({.iterations = 5, .rho = 0.0}, 10);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const auto& page : result.value().hubs) {
    EXPECT_TRUE(std::isfinite(page.score)) << page.url;
  }
  for (const auto& page : result.value().authorities) {
    EXPECT_TRUE(std::isfinite(page.score)) << page.url;
  }

  obs::Labels dst_labels = {{"distiller", session->name()},
                            {"endpoint", "dst"}};
  obs::Labels src_labels = {{"distiller", session->name()},
                            {"endpoint", "src"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("focus_distill_dangling_edges", dst_labels)->Value(),
      static_cast<double>(expect_dst));
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("focus_distill_dangling_edges", src_labels)->Value(),
      0.0);
}

TEST(JoinDanglingTest, CrawlBoostsExportDistillerGauges) {
  // Hard focus records every outlink in LINK but admits only those of
  // good pages, so each periodic boost distills a graph with dangling
  // destinations. The boosts publish that under their own label.
  core::FocusOptions options;
  options.seed = 23;
  auto system =
      core::FocusSystem::Create(core::BuildSampleTaxonomy(), options)
          .TakeValue();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  auto cycling = system->tax().FindByName("cycling").value();

  obs::MetricsRegistry registry;
  crawl::CrawlerOptions copts;
  copts.max_fetches = 200;
  copts.distill_every = 50;
  copts.distill_iterations = 2;
  copts.expansion = crawl::ExpansionRule::kHardFocus;
  copts.metrics_registry = &registry;
  auto session =
      system->NewCrawl(system->web().KeywordSeeds(cycling, 8), copts)
          .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  ASSERT_GT(session->crawler().stats().distill_rounds, 0u);

  EXPECT_GT(registry
                .GetGauge("focus_distill_dangling_edges",
                          {{"distiller", "crawl_boost"}, {"endpoint", "dst"}})
                ->Value(),
            0.0);
  // The session has not distilled on demand: its gauge stays unset.
  EXPECT_EQ(registry
                .GetGauge("focus_distill_dangling_edges",
                          {{"distiller", session->name()}, {"endpoint", "dst"}})
                ->Value(),
            0.0);
}

TEST(PageRankConvergenceTest, MoreIterationsAgree) {
  Rng rng(17);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (int i = 0; i < 500; ++i) {
    uint32_t u = rng.Uniform(80), v = rng.Uniform(80);
    if (u != v) edges.emplace_back(u, v);
  }
  auto r30 = PageRank(80, edges, {.damping = 0.85, .iterations = 30});
  auto r60 = PageRank(80, edges, {.damping = 0.85, .iterations = 60});
  for (size_t i = 0; i < 80; ++i) {
    EXPECT_NEAR(r30[i], r60[i], 1e-8);
  }
}

// HUBS rows in heap order, scores compared bit for bit.
std::vector<std::pair<int64_t, double>> HeapRows(const sql::Table* table) {
  std::vector<std::pair<int64_t, double>> out;
  auto it = table->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    out.emplace_back(row.Get(0).AsInt64(), row.Get(1).AsDouble());
  }
  EXPECT_TRUE(it.status().ok()) << it.status();
  return out;
}

// A random graph with purged endpoints on both sides of some edges.
void FillRandomGraph(MiniGraph* g, uint64_t seed) {
  Rng rng(seed);
  for (int64_t oid = 1; oid <= 80; ++oid) {
    if (oid % 9 != 0) g->AddPage(oid, rng.NextDouble());  // 9, 18.. purged
  }
  for (int e = 0; e < 600; ++e) {
    int64_t src = 1 + static_cast<int64_t>(rng.Uniform(90));
    int64_t dst = 1 + static_cast<int64_t>(rng.Uniform(90));
    if (src != dst) g->AddEdge(src, dst, rng.NextDouble());
  }
}

// The batch engine's one-pass Initialize seeds HUBS with exactly the
// scalar group-by's distinct sources, in the same order, and counts the
// same dangling edges as the scalar index-probe audit.
TEST(JoinInitializeTest, BatchPassMatchesScalarPlan) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    MiniGraph g;
    FillRandomGraph(&g, seed);
    JoinDistiller scalar(g.tables);
    scalar.SetEngine(sql::ExecEngine::kScalar);
    ASSERT_TRUE(scalar.Initialize().ok());
    auto expected = HeapRows(g.tables.hubs);
    ASSERT_FALSE(expected.empty());
    ASSERT_GT(scalar.stats().dangling_src_edges, 0u);
    ASSERT_GT(scalar.stats().dangling_dst_edges, 0u);
    JoinDistiller batch(g.tables);
    batch.SetEngine(sql::ExecEngine::kVectorized);
    ASSERT_TRUE(batch.Initialize().ok());
    EXPECT_EQ(HeapRows(g.tables.hubs), expected) << "seed " << seed;
    EXPECT_TRUE(HeapRows(g.tables.auth).empty());
    EXPECT_EQ(batch.stats().dangling_src_edges,
              scalar.stats().dangling_src_edges);
    EXPECT_EQ(batch.stats().dangling_dst_edges,
              scalar.stats().dangling_dst_edges);
  }
}

// Repeated distillations on one WAL-backed store: HUBS/AUTH rebuilds
// recycle their pages, so after the first run the store stops growing,
// and every run returns bit-identical scores.
TEST(JoinRecyclingTest, RepeatedRunsKeepStoreSizeAndResults) {
  for (sql::ExecEngine engine :
       {sql::ExecEngine::kScalar, sql::ExecEngine::kVectorized}) {
    storage::MemDiskManager data, log;
    auto wal = storage::WalDiskManager::Open(&data, &log).TakeValue();
    storage::BufferPool pool(wal.get(), 16);  // small: rebuilds evict
    sql::Catalog catalog(&pool);
    MiniGraph g;  // built in memory, copied into the WAL store below
    FillRandomGraph(&g, 11);
    DistillTables tables;
    tables.crawl = catalog
                       .CreateTable("CRAWL", g.tables.crawl->schema(),
                                    {sql::IndexSpec{"by_oid", {0}, {}}})
                       .TakeValue();
    tables.link =
        catalog.CreateTable("LINK", g.tables.link->schema(), {}).TakeValue();
    for (auto [from, to] : {std::pair{g.tables.crawl, tables.crawl},
                            std::pair{g.tables.link, tables.link}}) {
      auto it = from->Scan();
      storage::Rid rid;
      sql::Tuple row;
      while (it.Next(&rid, &row)) ASSERT_TRUE(to->Insert(row).ok());
    }
    ASSERT_TRUE(CreateHubsAuthTables(&catalog, &tables).ok());

    std::vector<std::pair<int64_t, double>> hubs, auth;
    uint32_t store_pages = 0;
    for (int run = 0; run < 4; ++run) {
      JoinDistiller distiller(tables);
      distiller.SetEngine(engine);
      ASSERT_TRUE(distiller.Run({.iterations = 5, .rho = 0.2}).ok());
      if (run == 0) {
        store_pages = wal->NumPages();
        hubs = HeapRows(tables.hubs);
        auth = HeapRows(tables.auth);
        ASSERT_FALSE(hubs.empty());
        ASSERT_FALSE(auth.empty());
      } else {
        EXPECT_EQ(wal->NumPages(), store_pages) << "run " << run;
        EXPECT_EQ(HeapRows(tables.hubs), hubs) << "run " << run;
        EXPECT_EQ(HeapRows(tables.auth), auth) << "run " << run;
      }
    }
  }
}

// Rewrites every row of `table` through `edit`, as the crawler's
// relevance raises and edge-weight refreshes do between boosts.
void RewriteRows(sql::Table* table,
                 const std::function<void(sql::Tuple*)>& edit) {
  std::vector<std::pair<storage::Rid, sql::Tuple>> rows;
  auto it = table->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) rows.emplace_back(rid, row);
  ASSERT_TRUE(it.status().ok()) << it.status();
  for (auto& [r, t] : rows) {
    edit(&t);
    ASSERT_TRUE(table->Update(r, t).ok());
  }
}

// The crawler's deferred boost: Initialize + Prepare under the crawl-state
// lock, RunIterations later while the crawl keeps writing LINK and CRAWL.
// Its HUBS/AUTH must be bit-identical to an inline Run on the graph as it
// stood at Prepare (a second graph built from the same seed), and differ
// from a Run on the graph as it stands afterwards.
TEST(JoinSnapshotTest, DeferredIterationsSeeOnlyThePreparedGraph) {
  const HitsOptions options{.iterations = 5, .rho = 0.2};
  for (uint64_t seed : {21u, 22u, 23u}) {
    MiniGraph live;
    FillRandomGraph(&live, seed);
    JoinDistiller deferred(live.tables);
    deferred.EnableResidualTracking(true);
    ASSERT_TRUE(deferred.Initialize().ok());
    ASSERT_TRUE(deferred.Prepare(options.rho).ok());

    // The crawl moves on: new pages and citations, raised relevances and
    // refreshed edge weights.
    Rng rng(seed + 100);
    for (int64_t oid = 91; oid <= 120; ++oid) live.AddPage(oid, 0.9);
    for (int e = 0; e < 300; ++e) {
      live.AddEdge(1 + static_cast<int64_t>(rng.Uniform(120)),
                   91 + static_cast<int64_t>(rng.Uniform(30)),
                   rng.NextDouble());
    }
    RewriteRows(live.tables.crawl, [](sql::Tuple* t) {
      t->Mutable(1) = sql::Value::Double(
          std::min(1.0, t->Get(1).AsDouble() + 0.5));
    });
    RewriteRows(live.tables.link, [](sql::Tuple* t) {
      t->Mutable(4) = sql::Value::Double(t->Get(4).AsDouble() * 0.5 + 0.25);
    });

    ASSERT_TRUE(deferred.RunIterations(options).ok());
    auto deferred_hubs = HeapRows(live.tables.hubs);
    auto deferred_auth = HeapRows(live.tables.auth);

    MiniGraph copy;
    FillRandomGraph(&copy, seed);
    JoinDistiller inline_run(copy.tables);
    inline_run.EnableResidualTracking(true);
    ASSERT_TRUE(inline_run.Run(options).ok());
    ASSERT_FALSE(deferred_hubs.empty());
    ASSERT_FALSE(deferred_auth.empty());
    EXPECT_EQ(deferred_hubs, HeapRows(copy.tables.hubs)) << "seed " << seed;
    EXPECT_EQ(deferred_auth, HeapRows(copy.tables.auth)) << "seed " << seed;
    EXPECT_EQ(deferred.residuals(), inline_run.residuals());

    // Not vacuous: the graph the crawl left behind distills differently.
    JoinDistiller fresh(live.tables);
    ASSERT_TRUE(fresh.Run(options).ok());
    EXPECT_NE(HeapRows(live.tables.auth), deferred_auth) << "seed " << seed;
  }
}

}  // namespace
}  // namespace focus::distill
