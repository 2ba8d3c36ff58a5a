// EXPLAIN-ANALYZE instrumentation: per-operator row counts on a small
// hand-computed plan, and the instrumented Figure 3 / Figure 4 plans.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "classify/hierarchical_classifier.h"
#include "classify/trainer.h"
#include "distill/distiller.h"
#include "distill/join_distiller.h"
#include "sql/catalog.h"
#include "sql/exec/analyze.h"
#include "sql/exec/basic.h"
#include "sql/exec/operator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "taxonomy/taxonomy.h"
#include "text/document.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::sql {
namespace {

// Depth-first search for a node by exact label.
const PlanStats::Node* FindNode(const PlanStats::Node* node,
                                const std::string& label) {
  if (node->label == label) return node;
  for (const PlanStats::Node* child : node->children) {
    if (const PlanStats::Node* hit = FindNode(child, label)) return hit;
  }
  return nullptr;
}

const PlanStats::Node* FindNode(const PlanStats& stats,
                                const std::string& label) {
  for (const PlanStats::Node* root : stats.Roots()) {
    if (const PlanStats::Node* hit = FindNode(root, label)) return hit;
  }
  return nullptr;
}

OperatorPtr Ints(std::vector<int64_t> values) {
  Schema schema({{"v", TypeId::kInt64}});
  std::vector<Tuple> rows;
  for (int64_t v : values) rows.push_back(Tuple({Value::Int64(v)}));
  return std::make_unique<MaterializedSource>(std::move(schema),
                                              std::move(rows));
}

TEST(PlanStatsTest, HandComputedRowCountsOnSimplePlan) {
  PlanStats stats;
  // 6 rows -> Filter v > 2 keeps {3,4,5,6} -> Project v*10.
  OperatorPtr plan = Analyze(
      &stats, "Project v*10",
      std::make_unique<Project>(
          Analyze(&stats, "Filter v>2",
                  std::make_unique<Filter>(
                      Analyze(&stats, "Source", Ints({1, 2, 3, 4, 5, 6})),
                      [](const Tuple& t) { return t.Get(0).AsInt64() > 2; })),
          std::vector<ProjExpr>{
              ProjExpr{"v10", TypeId::kInt64, [](const Tuple& t) {
                         return Value::Int64(t.Get(0).AsInt64() * 10);
                       }}}));
  auto rows = Collect(plan.get());
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().size(), 4u);
  EXPECT_EQ(rows.value()[0].Get(0).AsInt64(), 30);

  ASSERT_EQ(stats.Roots().size(), 1u);
  const PlanStats::Node* project = stats.Roots()[0];
  EXPECT_EQ(project->label, "Project v*10");
  ASSERT_EQ(project->children.size(), 1u);
  const PlanStats::Node* filter = project->children[0];
  EXPECT_EQ(filter->label, "Filter v>2");
  ASSERT_EQ(filter->children.size(), 1u);
  const PlanStats::Node* source = filter->children[0];
  EXPECT_EQ(source->label, "Source");
  EXPECT_TRUE(source->children.empty());

  // rows_out counts true Next() results; next_calls includes the final
  // end-of-stream call.
  EXPECT_EQ(source->rows_out, 6u);
  EXPECT_EQ(source->next_calls, 7u);
  EXPECT_EQ(filter->rows_out, 4u);
  EXPECT_EQ(filter->next_calls, 5u);
  EXPECT_EQ(project->rows_out, 4u);
  EXPECT_EQ(project->next_calls, 5u);

  std::string report = stats.Format();
  EXPECT_NE(report.find("Project v*10"), std::string::npos) << report;
  EXPECT_NE(report.find("rows=4"), std::string::npos) << report;
  EXPECT_NE(report.find("rows=6"), std::string::npos) << report;

  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"operator\":\"Filter v>2\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rows\":6"), std::string::npos) << json;
}

TEST(PlanStatsTest, ReexecutionAccumulatesIntoTheSameNodes) {
  PlanStats stats;
  OperatorPtr plan = Analyze(&stats, "Source", Ints({1, 2, 3}));
  ASSERT_TRUE(Collect(plan.get()).ok());
  ASSERT_TRUE(Collect(plan.get()).ok());
  ASSERT_EQ(stats.Roots().size(), 1u);
  EXPECT_EQ(stats.Roots()[0]->rows_out, 6u);  // 3 rows x 2 executions
}

TEST(PlanStatsTest, NullStatsIsPassThrough) {
  OperatorPtr source = Ints({1});
  Operator* raw = source.get();
  OperatorPtr wrapped = Analyze(nullptr, "unused", std::move(source));
  EXPECT_EQ(wrapped.get(), raw);  // no wrapper inserted
}

// ---- the Figure 3 classifier plan ----

class BulkProbePlanTest : public testing::Test {
 protected:
  BulkProbePlanTest() : pool_(&disk_, 512), catalog_(&pool_), rng_(42) {
    using taxonomy::kRootCid;
    taxonomy::Cid rec = tax_.AddTopic(kRootCid, "recreation").value();
    taxonomy::Cid biz = tax_.AddTopic(kRootCid, "business").value();
    leaves_ = {tax_.AddTopic(rec, "cycling").value(),
               tax_.AddTopic(rec, "gardening").value(),
               tax_.AddTopic(biz, "mutual_funds").value(),
               tax_.AddTopic(biz, "stocks").value()};
  }

  text::TermVector MakeDoc(taxonomy::Cid leaf, int n = 120) {
    std::vector<std::string> tokens;
    tokens.reserve(n);
    for (int i = 0; i < n; ++i) {
      if (rng_.Bernoulli(0.6)) {
        tokens.push_back(
            StrCat("w_", tax_.Name(leaf), "_", rng_.Uniform(20)));
      } else {
        tokens.push_back(StrCat("bg_", rng_.Uniform(50)));
      }
    }
    return text::BuildTermVector(tokens);
  }

  storage::MemDiskManager disk_;
  storage::BufferPool pool_;
  sql::Catalog catalog_;
  Rng rng_;
  taxonomy::Taxonomy tax_;
  std::vector<taxonomy::Cid> leaves_;
};

TEST_F(BulkProbePlanTest, ClassifyWithPlanMatchesClassifyAll) {
  classify::Trainer trainer(
      classify::TrainerOptions{.max_features_per_node = 150});
  std::vector<classify::LabeledDocument> training;
  uint64_t did = 1;
  for (taxonomy::Cid leaf : leaves_) {
    for (int i = 0; i < 12; ++i) {
      training.push_back(classify::LabeledDocument{did++, leaf,
                                                   MakeDoc(leaf)});
    }
  }
  auto model = trainer.Train(tax_, training);
  ASSERT_TRUE(model.ok()) << model.status();
  classify::HierarchicalClassifier ref(&tax_, &model.value());
  auto tables = classify::BuildClassifierTables(&catalog_, tax_,
                                                model.value());
  ASSERT_TRUE(tables.ok()) << tables.status();
  classify::BulkProbeClassifier bulk(&ref, &tables.value());
  bulk.SetEngine(ExecEngine::kScalar);

  auto doc_table = classify::CreateDocumentTable(&catalog_, "DOCUMENT");
  ASSERT_TRUE(doc_table.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(classify::InsertDocument(doc_table.value(), i + 1,
                                         MakeDoc(leaves_[i % 4]))
                    .ok());
  }

  auto plain = bulk.ClassifyAll(doc_table.value());
  ASSERT_TRUE(plain.ok()) << plain.status();
  PlanStats stats;
  auto instrumented = bulk.ClassifyWithPlan(doc_table.value(), &stats);
  ASSERT_TRUE(instrumented.ok()) << instrumented.status();

  // Instrumentation must not change results.
  ASSERT_EQ(instrumented.value().size(), plain.value().size());
  for (const auto& [doc, expected] : plain.value()) {
    const classify::ClassScores& got = instrumented.value().at(doc);
    ASSERT_EQ(got.logp.size(), expected.logp.size());
    for (size_t c = 0; c < expected.logp.size(); ++c) {
      EXPECT_DOUBLE_EQ(got.logp[c], expected.logp[c]) << "cid " << c;
    }
  }

  // One root per probed internal node, plus the shared DOCUMENT sort.
  EXPECT_GE(stats.Roots().size(), 2u);
  const PlanStats::Node* doc_scan = FindNode(stats, "SeqScan DOCUMENT");
  ASSERT_NE(doc_scan, nullptr) << stats.Format();
  EXPECT_GT(doc_scan->rows_out, 0u);
  std::string report = stats.Format();
  EXPECT_NE(report.find("BulkProbeNode"), std::string::npos) << report;
  EXPECT_NE(report.find("MergeJoin DOCUMENT~STAT"), std::string::npos)
      << report;

  // The vectorized engine renders batch operators in the same tree and
  // produces bit-identical scores.
  bulk.SetEngine(ExecEngine::kVectorized);
  PlanStats vec_stats;
  auto vectorized = bulk.ClassifyWithPlan(doc_table.value(), &vec_stats);
  ASSERT_TRUE(vectorized.ok()) << vectorized.status();
  ASSERT_EQ(vectorized.value().size(), plain.value().size());
  for (const auto& [doc, expected] : plain.value()) {
    const classify::ClassScores& got = vectorized.value().at(doc);
    ASSERT_EQ(got.logp.size(), expected.logp.size());
    for (size_t c = 0; c < expected.logp.size(); ++c) {
      EXPECT_DOUBLE_EQ(got.logp[c], expected.logp[c]) << "cid " << c;
    }
  }
  std::string vec_report = vec_stats.Format();
  EXPECT_NE(vec_report.find("BatchMergeJoin DOCUMENT~STAT"),
            std::string::npos)
      << vec_report;
  EXPECT_NE(vec_report.find("BulkProbeNode"), std::string::npos)
      << vec_report;
  EXPECT_NE(vec_report.find("batches="), std::string::npos) << vec_report;
  std::string vec_json = vec_stats.ToJson();
  EXPECT_NE(vec_json.find("\"batches\":"), std::string::npos) << vec_json;
}

// ---- the Figure 4 distillation plan ----

// Node 1 links to 2,3,4 off-server, and to 5 on the same server (the
// nepotism filter must drop that edge); pages 1..5 all have relevance 1.
struct StarGraph {
  storage::MemDiskManager disk;
  storage::BufferPool pool{&disk, 1024};
  sql::Catalog catalog{&pool};
  distill::DistillTables tables;

  StarGraph() {
    tables.link =
        catalog
            .CreateTable(
                "LINK",
                Schema({{"oid_src", TypeId::kInt64},
                        {"sid_src", TypeId::kInt32},
                        {"oid_dst", TypeId::kInt64},
                        {"sid_dst", TypeId::kInt32},
                        {"wgt_fwd", TypeId::kDouble},
                        {"wgt_rev", TypeId::kDouble}}),
                {IndexSpec{"by_src", {0}, {}}, IndexSpec{"by_dst", {2}, {}}})
            .TakeValue();
    for (int64_t dst : {2, 3, 4, 5}) {
      int32_t sid_dst = dst == 5 ? 10 : static_cast<int32_t>(10 * dst);
      EXPECT_TRUE(tables.link
                      ->Insert(Tuple({Value::Int64(1), Value::Int32(10),
                                      Value::Int64(dst), Value::Int32(sid_dst),
                                      Value::Double(1.0), Value::Double(1.0)}))
                      .ok());
    }
    tables.crawl =
        catalog
            .CreateTable("CRAWL",
                         Schema({{"oid", TypeId::kInt64},
                                 {"relevance", TypeId::kDouble}}),
                         {IndexSpec{"by_oid", {0}, {}}})
            .TakeValue();
    for (int64_t oid = 1; oid <= 5; ++oid) {
      EXPECT_TRUE(tables.crawl
                      ->Insert(Tuple({Value::Int64(oid), Value::Double(1.0)}))
                      .ok());
    }
    EXPECT_TRUE(distill::CreateHubsAuthTables(&catalog, &tables).ok());
  }
};

TEST(DistillerPlanTest, StarGraphIterationRowCounts) {
  StarGraph graph;
  distill::DistillTables& tables = graph.tables;

  distill::JoinDistiller distiller(tables);
  distiller.SetEngine(ExecEngine::kScalar);
  ASSERT_TRUE(distiller.Initialize().ok());
  PlanStats stats;
  ASSERT_TRUE(distiller.RunIterationWithPlan(0.0, &stats).ok());

  const PlanStats::Node* auth_root =
      FindNode(stats, "UpdateAuth: HashAggregate(oid_dst, sum)");
  ASSERT_NE(auth_root, nullptr) << stats.Format();
  const PlanStats::Node* hub_root =
      FindNode(stats, "UpdateHubs: HashAggregate(oid_src, sum)");
  ASSERT_NE(hub_root, nullptr) << stats.Format();

  // Three distinct authorities, one hub.
  EXPECT_EQ(auth_root->rows_out, 3u);
  EXPECT_EQ(hub_root->rows_out, 1u);

  // The nepotism filter drops the same-server edge: 4 LINK rows in,
  // 3 eligible out, under both update plans.
  const PlanStats::Node* auth_scan = FindNode(auth_root, "SeqScan LINK");
  ASSERT_NE(auth_scan, nullptr) << stats.Format();
  EXPECT_EQ(auth_scan->rows_out, 4u);
  const PlanStats::Node* auth_filter =
      FindNode(auth_root, "Filter sid_src<>sid_dst");
  ASSERT_NE(auth_filter, nullptr);
  EXPECT_EQ(auth_filter->rows_out, 3u);
  // rho = 0 and every relevance is 1.0: the filter keeps all CRAWL rows.
  const PlanStats::Node* rel_filter =
      FindNode(auth_root, "Filter relevance>rho");
  ASSERT_NE(rel_filter, nullptr);
  EXPECT_EQ(rel_filter->rows_out, 5u);

  // Same iteration on the vectorized engine: identical structural row
  // counts, reported per batch operator. (Scores differ only because this
  // is the second iteration over the updated HUBS/AUTH tables; the row
  // counts below are structural.)
  distiller.SetEngine(ExecEngine::kVectorized);
  PlanStats vec_stats;
  ASSERT_TRUE(distiller.RunIterationWithPlan(0.0, &vec_stats).ok());

  const PlanStats::Node* vec_auth_root =
      FindNode(vec_stats, "UpdateAuth: BatchSortAggregate(oid_dst, sum)");
  ASSERT_NE(vec_auth_root, nullptr) << vec_stats.Format();
  EXPECT_EQ(vec_auth_root->rows_out, 3u);
  EXPECT_GE(vec_auth_root->batches, 1u);
  const PlanStats::Node* vec_hub_root =
      FindNode(vec_stats, "UpdateHubs: BatchSortAggregate(oid_src, sum)");
  ASSERT_NE(vec_hub_root, nullptr) << vec_stats.Format();
  EXPECT_EQ(vec_hub_root->rows_out, 1u);

  const PlanStats::Node* vec_link_scan =
      FindNode(vec_auth_root, "BatchTableScan LINK");
  ASSERT_NE(vec_link_scan, nullptr) << vec_stats.Format();
  EXPECT_EQ(vec_link_scan->rows_out, 4u);
  const PlanStats::Node* vec_nepotism =
      FindNode(vec_auth_root, "BatchFilter sid_src<>sid_dst");
  ASSERT_NE(vec_nepotism, nullptr);
  EXPECT_EQ(vec_nepotism->rows_out, 3u);
  const PlanStats::Node* vec_rel =
      FindNode(vec_auth_root, "BatchFilter relevance>rho");
  ASSERT_NE(vec_rel, nullptr);
  EXPECT_EQ(vec_rel->rows_out, 5u);
  EXPECT_NE(vec_stats.Format().find("batches="), std::string::npos)
      << vec_stats.Format();
}

// The batch engine reads, filters and sorts LINK (and filters CRAWL) once
// per query. Iteration 1 builds the sets inside UpdateAuth's plan, and
// UpdateHubs replays the sorted LINK set. Later iterations read neither
// table: the cached eligible-link source yields iteration 1's count.
TEST(DistillerPlanTest, LaterBatchIterationsReplayInvariantSets) {
  StarGraph graph;
  distill::JoinDistiller distiller(graph.tables);
  ASSERT_TRUE(distiller.Initialize().ok());
  PlanStats first;
  ASSERT_TRUE(distiller.RunIterationWithPlan(0.0, &first).ok());
  const PlanStats::Node* auth_root =
      FindNode(first, "UpdateAuth: BatchSortAggregate(oid_dst, sum)");
  ASSERT_NE(auth_root, nullptr) << first.Format();
  const PlanStats::Node* hub_root =
      FindNode(first, "UpdateHubs: BatchSortAggregate(oid_src, sum)");
  ASSERT_NE(hub_root, nullptr) << first.Format();
  EXPECT_NE(FindNode(auth_root, "BatchTableScan LINK"), nullptr)
      << first.Format();
  EXPECT_NE(FindNode(auth_root, "BatchTableScan CRAWL(oid,relevance)"),
            nullptr)
      << first.Format();
  EXPECT_EQ(FindNode(hub_root, "BatchTableScan LINK"), nullptr)
      << first.Format();
  const PlanStats::Node* eligible =
      FindNode(auth_root, "BatchMergeJoin LINK~relevant");
  ASSERT_NE(eligible, nullptr) << first.Format();
  EXPECT_EQ(eligible->rows_out, 3u);

  PlanStats second;
  ASSERT_TRUE(distiller.RunIterationWithPlan(0.0, &second).ok());
  EXPECT_EQ(FindNode(second, "BatchTableScan LINK"), nullptr)
      << second.Format();
  EXPECT_EQ(FindNode(second, "BatchTableScan CRAWL(oid,relevance)"), nullptr)
      << second.Format();
  const PlanStats::Node* cached =
      FindNode(second, "BatchMaterialize eligible by oid_src");
  ASSERT_NE(cached, nullptr) << second.Format();
  EXPECT_EQ(cached->rows_out, eligible->rows_out);
  EXPECT_TRUE(cached->children.empty());
}

}  // namespace
}  // namespace focus::sql
