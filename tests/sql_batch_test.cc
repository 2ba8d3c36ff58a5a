// Vectorized-engine equivalence: every batch operator against its scalar
// oracle on randomized inputs, batch-boundary edge cases (empty input,
// exactly one batch, batch-size-1), and end-to-end scalar-vs-vectorized
// runs of the Figure 3 (BulkProbe) and Figure 4 (JoinDistiller) plans.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "classify/hierarchical_classifier.h"
#include "classify/trainer.h"
#include "distill/distiller.h"
#include "distill/join_distiller.h"
#include "sql/catalog.h"
#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/batch.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/join.h"
#include "sql/exec/operator.h"
#include "sql/exec/sort.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "taxonomy/taxonomy.h"
#include "text/document.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::sql {
namespace {

// A mixed-type random rowset: i32, i64, double, string, with NULLs in the
// string column (the only column the Figure 3/4 plans null-pad).
Schema MixedSchema() {
  return Schema({{"a", TypeId::kInt32},
                 {"b", TypeId::kInt64},
                 {"x", TypeId::kDouble},
                 {"s", TypeId::kString}});
}

std::vector<Tuple> RandomRows(Rng* rng, size_t n, int key_range = 20) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value s = rng->Bernoulli(0.15)
                  ? Value::Null(TypeId::kString)
                  : Value::Str(StrCat("s", rng->Uniform(key_range)));
    rows.push_back(
        Tuple({Value::Int32(static_cast<int32_t>(rng->Uniform(key_range))),
               Value::Int64(static_cast<int64_t>(rng->Uniform(1000))),
               Value::Double(rng->NextDouble() * 10 - 5), s}));
  }
  return rows;
}

OperatorPtr Source(const Schema& schema, std::vector<Tuple> rows) {
  return std::make_unique<MaterializedSource>(schema, std::move(rows));
}

BatchOperatorPtr BatchOf(const Schema& schema, std::vector<Tuple> rows,
                         int batch_rows) {
  return std::make_unique<Vectorize>(Source(schema, std::move(rows)),
                                     batch_rows);
}

std::vector<std::string> RowStrings(Operator* op) {
  auto rows = Collect(op);
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> out;
  for (const Tuple& t : rows.value()) out.push_back(t.ToString());
  return out;
}

std::vector<std::string> RowStrings(BatchOperatorPtr op) {
  Devectorize scalar(std::move(op));
  return RowStrings(&scalar);
}

// The batch sizes every equivalence case sweeps: batch-size-1, a size
// that straddles batch boundaries, exactly-one-batch, and the default.
const int kBatchSizes[] = {1, 7, 64, kDefaultBatchRows};

TEST(BatchAdapterTest, VectorizeDevectorizeRoundTripsExactly) {
  Rng rng(101);
  Schema schema = MixedSchema();
  for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{200}}) {
    std::vector<Tuple> rows = RandomRows(&rng, n);
    OperatorPtr oracle = Source(schema, rows);
    std::vector<std::string> expected = RowStrings(oracle.get());
    for (int bs : kBatchSizes) {
      EXPECT_EQ(RowStrings(BatchOf(schema, rows, bs)), expected)
          << "n=" << n << " batch_rows=" << bs;
    }
  }
}

TEST(BatchOperatorTest, FilterMatchesScalar) {
  Rng rng(202);
  Schema schema = MixedSchema();
  std::vector<Tuple> rows = RandomRows(&rng, 300);
  auto scalar = std::make_unique<Filter>(
      Source(schema, rows),
      [](const Tuple& t) { return t.Get(0).AsInt32() % 3 == 0; });
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchFilter>(
        BatchOf(schema, rows, bs),
        [](const Batch& in, std::vector<int64_t>* sel) {
          const auto& a = in.col(0).i32;
          for (size_t i = 0; i < a.size(); ++i) {
            if (a[i] % 3 == 0) sel->push_back(static_cast<int64_t>(i));
          }
        });
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, ProjectMatchesScalar) {
  Rng rng(303);
  Schema schema = MixedSchema();
  std::vector<Tuple> rows = RandomRows(&rng, 250);
  auto scalar = std::make_unique<Project>(
      Source(schema, rows),
      std::vector<ProjExpr>{
          ProjExpr{"a", TypeId::kInt32,
                   [](const Tuple& t) { return t.Get(0); }},
          ProjExpr{"bx", TypeId::kDouble, [](const Tuple& t) {
                     return Value::Double(t.Get(1).AsInt64() *
                                          t.Get(2).AsDouble());
                   }}});
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchProject>(
        BatchOf(schema, rows, bs),
        std::vector<BatchExpr>{
            BatchExpr::Passthrough("a", TypeId::kInt32, 0),
            BatchExpr{"bx", TypeId::kDouble, [](const Batch& in) {
                        const auto& b = in.col(1).i64;
                        const auto& x = in.col(2).f64;
                        ColumnPtr out = NewColumn(TypeId::kDouble);
                        out->f64.reserve(b.size());
                        for (size_t i = 0; i < b.size(); ++i) {
                          out->f64.push_back(b[i] * x[i]);
                        }
                        return out;
                      }}});
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

// Replaces ~30% of column `col` with NULLs: a NULL int key cannot be
// packed, so the batch kernels take their generic comparison paths.
std::vector<Tuple> WithNullKeys(Rng* rng, std::vector<Tuple> rows,
                                int col = 0) {
  for (Tuple& t : rows) {
    if (rng->Bernoulli(0.3)) t.Mutable(col) = Value::Null(t.Get(col).type());
  }
  return rows;
}

TEST(BatchOperatorTest, SortMatchesScalarIncludingStability) {
  Rng rng(404);
  Schema schema = MixedSchema();
  // Narrow key range -> many duplicate keys, so instability would show.
  std::vector<Tuple> rows = RandomRows(&rng, 400, /*key_range=*/5);
  std::vector<Tuple> null_keyed = WithNullKeys(&rng, rows);
  for (const std::vector<SortKey>& keys :
       {std::vector<SortKey>{{0, false}, {2, true}},
        std::vector<SortKey>{{0, false}, {1, true}}}) {
    for (const std::vector<Tuple>* input : {&rows, &null_keyed}) {
      auto scalar = std::make_unique<Sort>(Source(schema, *input), keys);
      std::vector<std::string> expected = RowStrings(scalar.get());
      for (int bs : kBatchSizes) {
        auto batch = std::make_unique<BatchSort>(BatchOf(schema, *input, bs),
                                                 keys, bs);
        EXPECT_EQ(RowStrings(std::move(batch)), expected)
            << "nulls=" << (input == &null_keyed) << " batch_rows=" << bs;
      }
    }
  }
}

// Sorted inputs with heavy key duplication for the merge-join cases.
std::vector<Tuple> SortedKeyed(Rng* rng, size_t n, int key_range,
                               double payload_scale, bool null_keys = false) {
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        Tuple({Value::Int32(static_cast<int32_t>(rng->Uniform(key_range))),
               Value::Double(rng->NextDouble() * payload_scale)}));
  }
  if (null_keys) rows = WithNullKeys(rng, std::move(rows));
  Sort sorter(Source(schema, std::move(rows)),
              std::vector<SortKey>{{0, false}});
  auto sorted = Collect(&sorter);
  EXPECT_TRUE(sorted.ok());
  return sorted.TakeValue();
}

TEST(BatchOperatorTest, MergeJoinMatchesScalarInnerAndOuter) {
  Rng rng(505);
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  for (bool null_keys : {false, true}) {
    std::vector<Tuple> left = SortedKeyed(&rng, 120, 15, 1.0, null_keys);
    std::vector<Tuple> right = SortedKeyed(&rng, 90, 15, 100.0, null_keys);
    for (bool outer : {false, true}) {
      auto scalar = std::make_unique<MergeJoin>(
          Source(schema, left), Source(schema, right), std::vector<int>{0},
          std::vector<int>{0}, outer);
      std::vector<std::string> expected = RowStrings(scalar.get());
      for (int bs : kBatchSizes) {
        auto batch = std::make_unique<BatchMergeJoin>(
            BatchOf(schema, left, bs), BatchOf(schema, right, bs),
            std::vector<int>{0}, std::vector<int>{0}, outer, bs);
        EXPECT_EQ(RowStrings(std::move(batch)), expected)
            << "nulls=" << null_keys << " outer=" << outer
            << " batch_rows=" << bs;
      }
    }
  }
}

TEST(BatchOperatorTest, MergeJoinEmptyInputs) {
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  Rng rng(606);
  std::vector<Tuple> some = SortedKeyed(&rng, 10, 4, 1.0);
  for (bool left_empty : {true, false}) {
    for (bool outer : {false, true}) {
      std::vector<Tuple> left = left_empty ? std::vector<Tuple>{} : some;
      std::vector<Tuple> right = left_empty ? some : std::vector<Tuple>{};
      auto scalar = std::make_unique<MergeJoin>(
          Source(schema, left), Source(schema, right), std::vector<int>{0},
          std::vector<int>{0}, outer);
      auto batch = std::make_unique<BatchMergeJoin>(
          BatchOf(schema, left, 3), BatchOf(schema, right, 3),
          std::vector<int>{0}, std::vector<int>{0}, outer, 3);
      EXPECT_EQ(RowStrings(std::move(batch)), RowStrings(scalar.get()))
          << "left_empty=" << left_empty << " outer=" << outer;
    }
  }
}

TEST(BatchOperatorTest, CrossJoinMatchesNestedLoop) {
  Rng rng(707);
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  std::vector<Tuple> left = SortedKeyed(&rng, 23, 8, 1.0);
  std::vector<Tuple> right = SortedKeyed(&rng, 5, 8, 10.0);
  auto scalar = std::make_unique<NestedLoopJoin>(
      Source(schema, left), Source(schema, right),
      [](const Tuple&, const Tuple&) { return true; });
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchCrossJoin>(
        BatchOf(schema, left, bs), BatchOf(schema, right, bs), bs);
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, SortedAggregateMatchesHashAggregateBitExactly) {
  Rng rng(808);
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  // Input sorted by the group key: HashAggregate emits groups in
  // ascending key order and accumulates in arrival order — exactly the
  // sorted-run order BatchSortedAggregate consumes.
  std::vector<Tuple> rows = SortedKeyed(&rng, 500, 12, 1.0);
  std::vector<AggSpec> aggs{AggSpec{AggKind::kSum, 1, "sum_p"},
                            AggSpec{AggKind::kCount, -1, "cnt"}};
  auto scalar = std::make_unique<HashAggregate>(
      Source(schema, rows), std::vector<int>{0}, aggs);
  std::vector<std::string> expected = RowStrings(scalar.get());
  for (int bs : kBatchSizes) {
    auto batch = std::make_unique<BatchSortedAggregate>(
        BatchOf(schema, rows, bs), std::vector<int>{0}, aggs, bs);
    EXPECT_EQ(RowStrings(std::move(batch)), expected) << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, SortedAggregateIntSumTypesMatchScalar) {
  Schema schema({{"k", TypeId::kInt32}, {"v", TypeId::kInt64}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back(Tuple({Value::Int32(i / 3), Value::Int64(i * 7)}));
  }
  std::vector<AggSpec> aggs{AggSpec{AggKind::kSum, 1, "sum_v"}};
  auto scalar = std::make_unique<HashAggregate>(
      Source(schema, rows), std::vector<int>{0}, aggs);
  auto batch = std::make_unique<BatchSortedAggregate>(
      BatchOf(schema, rows, 2), std::vector<int>{0}, aggs, 2);
  EXPECT_EQ(RowStrings(std::move(batch)), RowStrings(scalar.get()));
}

TEST(BatchOperatorTest, FusedSortAggregateMatchesSortThenAggregate) {
  Rng rng(909);
  // Unsorted, mixed-type input with NULL strings: the fused operator must
  // reproduce BatchSort + BatchSortedAggregate bit for bit, through both
  // the integer fast-path sort (int keys) and the generic sort (string
  // key forces the fallback).
  std::vector<Tuple> rows = RandomRows(&rng, 400, /*key_range=*/7);
  std::vector<Tuple> null_keyed = WithNullKeys(&rng, rows);
  Schema schema = MixedSchema();
  std::vector<AggSpec> aggs{AggSpec{AggKind::kSum, 2, "sum_x"},
                            AggSpec{AggKind::kCount, -1, "cnt"}};
  struct Case {
    std::vector<SortKey> keys;
    std::vector<int> groups;
    const std::vector<Tuple>* input;
  };
  for (const Case& c :
       {Case{{{0, false}, {1, false}}, {0, 1}, &rows},  // two int keys (fast)
        Case{{{1, true}}, {1}, &rows},          // descending int (fast)
        Case{{{3, false}}, {3}, &rows},         // string key (generic)
        Case{{{0, false}}, {0}, &null_keyed}}) {  // NULL int key (generic)
    auto reference = std::make_unique<BatchSortedAggregate>(
        std::make_unique<BatchSort>(BatchOf(schema, *c.input, 64), c.keys,
                                    64),
        c.groups, aggs, 64);
    std::vector<std::string> expected = RowStrings(std::move(reference));
    for (int bs : kBatchSizes) {
      auto fused = std::make_unique<BatchSortAggregate>(
          BatchOf(schema, *c.input, bs), c.keys, c.groups, aggs, bs);
      EXPECT_EQ(RowStrings(std::move(fused)), expected)
          << "batch_rows=" << bs;
    }
  }
}

TEST(BatchOperatorTest, EmptyInputThroughEveryOperator) {
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kDouble}});
  auto empty = [&] { return BatchOf(schema, {}, 4); };
  EXPECT_TRUE(RowStrings(std::make_unique<BatchFilter>(
                             empty(),
                             [](const Batch&, std::vector<int64_t>*) {}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchSort>(
                             empty(), std::vector<SortKey>{{0, false}}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchSortedAggregate>(
                             empty(), std::vector<int>{0},
                             std::vector<AggSpec>{
                                 AggSpec{AggKind::kCount, -1, "c"}}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchSortAggregate>(
                             empty(), std::vector<SortKey>{{0, false}},
                             std::vector<int>{0},
                             std::vector<AggSpec>{
                                 AggSpec{AggKind::kCount, -1, "c"}}))
                  .empty());
  EXPECT_TRUE(RowStrings(std::make_unique<BatchCrossJoin>(empty(), empty()))
                  .empty());
}

// Emits its rows as one batch, then fails: a fill that breaks mid-drain.
class FailingSource final : public BatchOperator {
 public:
  explicit FailingSource(BatchOperatorPtr child)
      : BatchOperator(nullptr), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override {
    if (emitted_) return Status::IOError("injected");
    emitted_ = true;
    return child_->NextBatch(out);
  }

 private:
  BatchOperatorPtr child_;
  bool emitted_ = false;
};

TEST(BatchOperatorTest, MaterializeFillsOnceThenReplays) {
  Rng rng(303);
  Schema schema = MixedSchema();
  std::vector<Tuple> rows = RandomRows(&rng, 200);
  OperatorPtr oracle = Source(schema, rows);
  std::vector<std::string> expected = RowStrings(oracle.get());
  for (int bs : kBatchSizes) {
    ColumnSet set;
    EXPECT_EQ(RowStrings(std::make_unique<BatchMaterialize>(
                  &set, BatchOf(schema, rows, bs), bs)),
              expected)
        << "batch_rows=" << bs;
    EXPECT_EQ(set.num_rows(), rows.size());
    // A rebuilt plan passes no fill and replays the set.
    EXPECT_EQ(RowStrings(std::make_unique<BatchMaterialize>(&set, nullptr, bs)),
              expected)
        << "batch_rows=" << bs;
  }
}

TEST(BatchOperatorTest, MaterializeLeavesSetUnbuiltWhenFillFails) {
  Rng rng(304);
  Schema schema = MixedSchema();
  ColumnSet set;
  BatchMaterialize op(&set, std::make_unique<FailingSource>(
                                BatchOf(schema, RandomRows(&rng, 50), 7)));
  EXPECT_FALSE(op.Open().ok());
  EXPECT_EQ(set.num_columns(), 0);
}

// ---- Figure 3: BulkProbe scalar vs vectorized ----

TEST(EngineEquivalenceTest, BulkProbeScoresWithin1em9) {
  Rng rng(42);
  taxonomy::Taxonomy tax;
  using taxonomy::kRootCid;
  taxonomy::Cid rec = tax.AddTopic(kRootCid, "recreation").value();
  taxonomy::Cid biz = tax.AddTopic(kRootCid, "business").value();
  std::vector<taxonomy::Cid> leaves = {
      tax.AddTopic(rec, "cycling").value(),
      tax.AddTopic(rec, "gardening").value(),
      tax.AddTopic(biz, "mutual_funds").value(),
      tax.AddTopic(biz, "stocks").value()};

  auto make_doc = [&](taxonomy::Cid leaf) {
    std::vector<std::string> tokens;
    for (int i = 0; i < 140; ++i) {
      if (rng.Bernoulli(0.6)) {
        tokens.push_back(StrCat("w_", tax.Name(leaf), "_", rng.Uniform(25)));
      } else {
        tokens.push_back(StrCat("bg_", rng.Uniform(60)));
      }
    }
    return text::BuildTermVector(tokens);
  };

  classify::Trainer trainer(
      classify::TrainerOptions{.max_features_per_node = 150});
  std::vector<classify::LabeledDocument> training;
  uint64_t did = 1;
  for (taxonomy::Cid leaf : leaves) {
    for (int i = 0; i < 12; ++i) {
      training.push_back(
          classify::LabeledDocument{did++, leaf, make_doc(leaf)});
    }
  }
  auto model = trainer.Train(tax, training);
  ASSERT_TRUE(model.ok()) << model.status();
  classify::HierarchicalClassifier ref(&tax, &model.value());

  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  Catalog catalog(&pool);
  auto tables = classify::BuildClassifierTables(&catalog, tax,
                                                model.value());
  ASSERT_TRUE(tables.ok()) << tables.status();

  auto doc_table = classify::CreateDocumentTable(&catalog, "DOCUMENT");
  ASSERT_TRUE(doc_table.ok());
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(classify::InsertDocument(doc_table.value(), i + 1,
                                         make_doc(leaves[i % 4]))
                    .ok());
  }

  classify::BulkProbeClassifier bulk(&ref, &tables.value());
  bulk.SetEngine(ExecEngine::kScalar);
  auto scalar = bulk.ClassifyAll(doc_table.value());
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  bulk.SetEngine(ExecEngine::kVectorized);
  auto vectorized = bulk.ClassifyAll(doc_table.value());
  ASSERT_TRUE(vectorized.ok()) << vectorized.status();

  ASSERT_EQ(scalar.value().size(), vectorized.value().size());
  for (const auto& [doc, expected] : scalar.value()) {
    auto it = vectorized.value().find(doc);
    ASSERT_NE(it, vectorized.value().end()) << "doc " << doc;
    ASSERT_EQ(it->second.logp.size(), expected.logp.size());
    for (size_t c = 0; c < expected.logp.size(); ++c) {
      EXPECT_NEAR(it->second.logp[c], expected.logp[c], 1e-9)
          << "doc " << doc << " cid " << c;
    }
  }
}

// ---- Figure 4: JoinDistiller scalar vs vectorized ----

struct DistillFixture {
  storage::MemDiskManager disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<Catalog> catalog;
  distill::DistillTables tables;

  // Builds LINK/CRAWL from the same seeded random graph, so two fixtures
  // with equal seeds hold byte-identical inputs.
  Status Build(uint64_t seed, int pages, int servers, int edges) {
    pool = std::make_unique<storage::BufferPool>(&disk, 2048);
    catalog = std::make_unique<Catalog>(pool.get());
    FOCUS_ASSIGN_OR_RETURN(
        tables.link,
        catalog->CreateTable(
            "LINK",
            Schema({{"oid_src", TypeId::kInt64},
                    {"sid_src", TypeId::kInt32},
                    {"oid_dst", TypeId::kInt64},
                    {"sid_dst", TypeId::kInt32},
                    {"wgt_fwd", TypeId::kDouble},
                    {"wgt_rev", TypeId::kDouble}}),
            {IndexSpec{"by_src", {0}, {}}, IndexSpec{"by_dst", {2}, {}}}));
    FOCUS_ASSIGN_OR_RETURN(
        tables.crawl,
        catalog->CreateTable(
            "CRAWL",
            Schema({{"oid", TypeId::kInt64},
                    {"relevance", TypeId::kDouble}}),
            {IndexSpec{"by_oid", {0}, {}}}));
    Rng rng(seed);
    auto sid = [&](int64_t oid) {
      return static_cast<int32_t>(oid % servers);
    };
    for (int64_t oid = 1; oid <= pages; ++oid) {
      FOCUS_RETURN_IF_ERROR(
          tables.crawl
              ->Insert(Tuple(
                  {Value::Int64(oid), Value::Double(rng.NextDouble())}))
              .status());
    }
    for (int e = 0; e < edges; ++e) {
      int64_t src = 1 + static_cast<int64_t>(rng.Uniform(pages));
      int64_t dst = 1 + static_cast<int64_t>(rng.Uniform(pages));
      FOCUS_RETURN_IF_ERROR(
          tables.link
              ->Insert(Tuple({Value::Int64(src), Value::Int32(sid(src)),
                              Value::Int64(dst), Value::Int32(sid(dst)),
                              Value::Double(0.5 + rng.NextDouble()),
                              Value::Double(0.5 + rng.NextDouble())}))
              .status());
    }
    return distill::CreateHubsAuthTables(catalog.get(), &tables);
  }
};

std::vector<std::pair<int64_t, double>> TableRows(Table* t) {
  std::vector<std::pair<int64_t, double>> out;
  auto it = t->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    out.emplace_back(row.Get(0).AsInt64(), row.Get(1).AsDouble());
  }
  EXPECT_TRUE(it.status().ok());
  return out;
}

TEST(EngineEquivalenceTest, DistillerRankingsIdentical) {
  for (uint64_t seed : {7u, 21u, 99u}) {
    DistillFixture scalar_fx, vec_fx;
    ASSERT_TRUE(scalar_fx.Build(seed, 60, 9, 400).ok());
    ASSERT_TRUE(vec_fx.Build(seed, 60, 9, 400).ok());

    distill::JoinDistiller scalar(scalar_fx.tables);
    scalar.SetEngine(ExecEngine::kScalar);
    ASSERT_TRUE(scalar.Initialize().ok());
    distill::JoinDistiller vectorized(vec_fx.tables);
    vectorized.SetEngine(ExecEngine::kVectorized);
    ASSERT_TRUE(vectorized.Initialize().ok());

    for (int iter = 0; iter < 4; ++iter) {
      ASSERT_TRUE(scalar.RunIteration(0.3).ok());
      ASSERT_TRUE(vectorized.RunIteration(0.3).ok());
    }

    for (auto [s_table, v_table] :
         {std::pair{scalar_fx.tables.hubs, vec_fx.tables.hubs},
          std::pair{scalar_fx.tables.auth, vec_fx.tables.auth}}) {
      auto s_rows = TableRows(s_table);
      auto v_rows = TableRows(v_table);
      ASSERT_EQ(s_rows.size(), v_rows.size()) << "seed " << seed;
      for (size_t i = 0; i < s_rows.size(); ++i) {
        // Identical ranking: same oid at every (score-ordered) heap slot.
        EXPECT_EQ(s_rows[i].first, v_rows[i].first)
            << "seed " << seed << " row " << i;
        EXPECT_NEAR(s_rows[i].second, v_rows[i].second, 1e-9)
            << "seed " << seed << " row " << i;
      }
    }
  }
}

// The vectorized distiller reads, filters and sorts LINK once per query
// and rebuilds its eligible-link set when rho changes: a sequence of
// iterations at two rhos stays bit-identical to the scalar plan, which
// recomputes everything per iteration. Enough edges for multi-batch sets.
TEST(EngineEquivalenceTest, DistillerRhoChangeMatchesScalarBitExactly) {
  const std::vector<double> rhos = {0.3, 0.3, 0.5, 0.5};
  auto run = [](DistillFixture* fx, ExecEngine engine,
                const std::vector<double>& seq) {
    distill::JoinDistiller distiller(fx->tables);
    distiller.SetEngine(engine);
    EXPECT_TRUE(distiller.Initialize().ok());
    for (double rho : seq) EXPECT_TRUE(distiller.RunIteration(rho).ok());
    return std::pair{TableRows(fx->tables.hubs), TableRows(fx->tables.auth)};
  };
  DistillFixture scalar_fx, vec_fx;
  ASSERT_TRUE(scalar_fx.Build(31, 400, 13, 3000).ok());
  ASSERT_TRUE(vec_fx.Build(31, 400, 13, 3000).ok());
  auto expected = run(&scalar_fx, ExecEngine::kScalar, rhos);
  ASSERT_FALSE(expected.second.empty());
  EXPECT_EQ(run(&vec_fx, ExecEngine::kVectorized, rhos), expected);
  // The rho change matters on this graph, so a stale set would show.
  EXPECT_NE(run(&scalar_fx, ExecEngine::kScalar, {0.3, 0.3, 0.3, 0.3}),
            expected);
}

// Initialize() drops the per-query sets: after LINK grows, a reused
// vectorized distiller equals a fresh scalar run on the grown graph.
TEST(EngineEquivalenceTest, DistillerInitializeRereadsLink) {
  DistillFixture scalar_fx, vec_fx;
  ASSERT_TRUE(scalar_fx.Build(32, 300, 11, 2000).ok());
  ASSERT_TRUE(vec_fx.Build(32, 300, 11, 2000).ok());
  distill::JoinDistiller reused(vec_fx.tables);
  ASSERT_TRUE(reused.Run({.iterations = 3, .rho = 0.2}).ok());
  auto before = TableRows(vec_fx.tables.auth);

  // A new relevant page, cited by 40 existing ones.
  const int64_t kNew = 5000;
  for (DistillFixture* fx : {&scalar_fx, &vec_fx}) {
    ASSERT_TRUE(fx->tables.crawl
                    ->Insert(Tuple({Value::Int64(kNew), Value::Double(0.9)}))
                    .ok());
    for (int64_t src = 1; src <= 40; ++src) {
      ASSERT_TRUE(fx->tables.link
                      ->Insert(Tuple({Value::Int64(src),
                                      Value::Int32(static_cast<int32_t>(
                                          src % 11)),
                                      Value::Int64(kNew), Value::Int32(11),
                                      Value::Double(2.0), Value::Double(2.0)}))
                      .ok());
    }
  }
  ASSERT_TRUE(reused.Run({.iterations = 3, .rho = 0.2}).ok());
  distill::JoinDistiller fresh(scalar_fx.tables);
  fresh.SetEngine(ExecEngine::kScalar);
  ASSERT_TRUE(fresh.Run({.iterations = 3, .rho = 0.2}).ok());
  EXPECT_EQ(TableRows(vec_fx.tables.hubs), TableRows(scalar_fx.tables.hubs));
  EXPECT_EQ(TableRows(vec_fx.tables.auth), TableRows(scalar_fx.tables.auth));
  EXPECT_NE(TableRows(vec_fx.tables.auth), before);
}

// One int64 sort key spanning INT64_MIN..INT64_MAX (hashed oids do) needs
// all 64 bits of the packed word: the packing must not shift by 64 (UBSan
// flags it) and must still order exactly as the scalar sort, both ways.
TEST(BatchOperatorTest, SortOnFullRangeInt64KeyMatchesScalar) {
  Rng rng(505);
  Schema schema = MixedSchema();
  std::vector<Tuple> rows = RandomRows(&rng, 300);
  const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), 0, -1};
  for (size_t i = 0; i < rows.size(); ++i) {
    int64_t key = i < 4 ? extremes[i]
                        : static_cast<int64_t>(rng.Next());
    if (i % 7 == 0) key = extremes[i % 4];  // duplicates test stability
    rows[i].Mutable(1) = Value::Int64(key);
  }
  for (bool desc : {false, true}) {
    std::vector<SortKey> keys{{1, desc}};
    auto scalar = std::make_unique<Sort>(Source(schema, rows), keys);
    std::vector<std::string> expected = RowStrings(scalar.get());
    for (int bs : kBatchSizes) {
      auto batch =
          std::make_unique<BatchSort>(BatchOf(schema, rows, bs), keys, bs);
      EXPECT_EQ(RowStrings(std::move(batch)), expected)
          << "desc=" << desc << " batch_rows=" << bs;
    }
  }
}

// ------------------------------------------------- projected table scan --

// A heap table with a column of every type and tombstoned slots. Its
// batch scans decode each record in place from the pinned page; the
// scalar Table::Scan row path is the oracle.
class ProjectedScanTest : public testing::Test {
 protected:
  void SetUp() override {
    table_ = Table::Create(&pool_, "T", MixedSchema(), {}).TakeValue();
    Rng rng(77);
    std::vector<storage::Rid> rids;
    for (int i = 0; i < 2000; ++i) {
      auto rid = table_->Insert(Tuple(
          {Value::Int32(i), Value::Int64(static_cast<int64_t>(rng.Next())),
           Value::Double(rng.NextDouble() * 10 - 5),
           Value::Str(StrCat("row", i, std::string(rng.Uniform(40), 'x')))}));
      ASSERT_TRUE(rid.ok());
      rids.push_back(rid.value());
    }
    for (size_t i = 0; i < rids.size(); i += 5) {
      ASSERT_TRUE(table_->Delete(rids[i]).ok());
    }
  }

  // Table::Scan's rows, projected to `cols` (empty = all).
  std::vector<std::vector<Value>> RowPath(const std::vector<int>& cols) {
    std::vector<std::vector<Value>> out;
    auto it = table_->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) {
      std::vector<Value>& projected = out.emplace_back();
      if (cols.empty()) {
        projected = row.values();
      } else {
        for (int c : cols) projected.push_back(row.Get(c));
      }
    }
    EXPECT_TRUE(it.status().ok()) << it.status();
    return out;
  }

  // BatchTableScan's rows and the number of NextBatch calls it took.
  std::vector<std::vector<Value>> BatchPath(const std::vector<int>& cols,
                                            int batch_rows,
                                            size_t* calls = nullptr) {
    std::vector<std::vector<Value>> out;
    BatchTableScan scan(table_.get(), cols, batch_rows);
    EXPECT_TRUE(scan.Open().ok());
    Batch batch;
    size_t n = 0;
    while (true) {
      ++n;
      auto more = scan.NextBatch(&batch);
      EXPECT_TRUE(more.ok()) << more.status();
      if (!more.ok() || !more.value()) break;
      EXPECT_LE(batch.num_rows(), static_cast<size_t>(batch_rows));
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<Value>& row = out.emplace_back();
        for (int c = 0; c < batch.num_columns(); ++c) {
          row.push_back(batch.ValueAt(r, c));
        }
      }
    }
    if (calls != nullptr) *calls = n;
    return out;
  }

  // Rewrites the u16 length prefix of the string `marker` in its page.
  void SetStringLength(std::string_view marker, uint16_t len) {
    storage::PageId id = table_->Layout().heap_first;
    while (id != storage::kInvalidPageId) {
      storage::PageGuard guard(&pool_, id);
      ASSERT_TRUE(guard.ok());
      std::string_view page(guard.page()->data, storage::kPageSize);
      size_t at = page.find(marker);
      if (at != std::string_view::npos) {
        guard.page()->Write<uint16_t>(static_cast<uint32_t>(at - 2), len);
        guard.MarkDirty();
        return;
      }
      id = guard.page()->Read<uint32_t>(0);  // next page in the chain
    }
    FAIL() << marker << " not found";
  }

  storage::MemDiskManager disk_;
  storage::BufferPool pool_{&disk_, 256};
  std::unique_ptr<Table> table_;
};

TEST_F(ProjectedScanTest, MatchesRowPathForEveryProjection) {
  const std::vector<std::vector<int>> projections = {
      {}, {1, 3}, {3, 0, 2}, {2, 2, 0}};
  for (const std::vector<int>& cols : projections) {
    std::vector<std::vector<Value>> expected = RowPath(cols);
    ASSERT_EQ(expected.size(), 1600u);
    EXPECT_EQ(BatchPath(cols, 7), expected) << "cols=" << cols.size();
    EXPECT_EQ(BatchPath(cols, kDefaultBatchRows), expected);
  }
}

TEST_F(ProjectedScanTest, EmptyTableYieldsNoBatch) {
  ASSERT_TRUE(table_->Clear().ok());
  size_t calls = 0;
  EXPECT_TRUE(BatchPath({0, 3}, 7, &calls).empty());
  EXPECT_EQ(calls, 1u);
}

// Each NextBatch pins a page once, so a scan of P heap pages costs at
// most P + (number of NextBatch calls) fetches, not one per row.
TEST_F(ProjectedScanTest, PinsEachPageOncePerBatch) {
  const uint64_t pages = disk_.NumPages();  // no index: every page is heap
  for (int batch_rows : {7, kDefaultBatchRows}) {
    uint64_t before = pool_.stats().fetches;
    size_t calls = 0;
    EXPECT_EQ(BatchPath({0, 3}, batch_rows, &calls).size(), 1600u);
    EXPECT_LE(pool_.stats().fetches - before, pages + calls)
        << "batch_rows=" << batch_rows;
  }
}

TEST_F(ProjectedScanTest, MalformedRecordFailsScanOfOtherColumns) {
  // A string whose length prefix overruns the record, then one that
  // leaves trailing bytes: column 3 is not projected, but every record is
  // validated.
  for (uint16_t len : {uint16_t{200}, uint16_t{4}}) {
    SetUp();  // a fresh copy of the table
    SetStringLength("row1001", len);
    BatchTableScan scan(table_.get(), {0, 1}, 7);
    ASSERT_TRUE(scan.Open().ok());
    Batch batch;
    Status status;
    while (true) {
      auto more = scan.NextBatch(&batch);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!more.value()) break;
    }
    EXPECT_FALSE(status.ok()) << "len=" << len;
    auto it = table_->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) {
    }
    EXPECT_FALSE(it.status().ok()) << "len=" << len;
  }
}

// A slot directory entry pointing outside the page is an IOError on every
// path that reads it, never a read or write past the frame.
TEST_F(ProjectedScanTest, CorruptSlotEntryIsAnErrorOnEveryPath) {
  storage::PageId first = table_->Layout().heap_first;
  {
    storage::PageGuard guard(&pool_, first);
    ASSERT_TRUE(guard.ok());
    // Slot 1's entry (after the 8-byte header and slot 0's 4 bytes):
    // a 200-byte record at offset 4000 ends past the 4 KiB page.
    guard.page()->Write<uint16_t>(12, 4000);
    guard.page()->Write<uint16_t>(14, 200);
    guard.MarkDirty();
  }
  auto it = table_->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
  }
  EXPECT_EQ(it.status().code(), StatusCode::kIOError) << it.status();

  BatchTableScan scan(table_.get(), {0}, 7);
  ASSERT_TRUE(scan.Open().ok());
  Batch batch;
  Result<bool> more = true;
  while (more.ok() && more.value()) more = scan.NextBatch(&batch);
  EXPECT_EQ(more.status().code(), StatusCode::kIOError);

  EXPECT_EQ(table_
                ->UpdateInPlace([](MutableRecordView* r) {
                  return r->Set(2, Value::Double(0));
                })
                .code(),
            StatusCode::kIOError);
  EXPECT_EQ(table_->Get(storage::Rid{first, 1}, &row).code(),
            StatusCode::kIOError);

  // A slot count whose directory overruns the page.
  {
    storage::PageGuard guard(&pool_, first);
    ASSERT_TRUE(guard.ok());
    guard.page()->Write<uint16_t>(4, 1100);
    guard.MarkDirty();
  }
  EXPECT_EQ(table_->Get(storage::Rid{first, 0}, &row).code(),
            StatusCode::kIOError);
  auto it2 = table_->Scan();
  EXPECT_FALSE(it2.Next(&rid, &row));
  EXPECT_EQ(it2.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace focus::sql
