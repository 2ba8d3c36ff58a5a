// Additional executor coverage: sources, sort stability, multi-key joins,
// projections, limits, aggregate typing and value edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/join.h"
#include "sql/exec/operator.h"
#include "sql/exec/sort.h"
#include "sql/record.h"
#include "sql/schema.h"
#include "sql/value.h"
#include "util/random.h"

namespace focus::sql {
namespace {

Schema KV() { return Schema({{"k", TypeId::kInt32}, {"v", TypeId::kInt32}}); }

std::vector<Tuple> Rows(std::vector<std::pair<int, int>> kv) {
  std::vector<Tuple> rows;
  for (auto [k, v] : kv) {
    rows.push_back(Tuple({Value::Int32(k), Value::Int32(v)}));
  }
  return rows;
}

TEST(BorrowedSourceTest, SharesRowsWithoutCopy) {
  auto rows = Rows({{1, 1}, {2, 2}});
  BorrowedSource src(KV(), &rows);
  auto out = Collect(&src);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
  // Re-open re-reads from the start.
  auto again = Collect(&src);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().size(), 2u);
}

TEST(SortTest, StableOnEqualKeys) {
  // Equal keys preserve input order (stable_sort).
  auto rows = Rows({{1, 100}, {1, 50}, {1, 75}});
  Sort sort(std::make_unique<MaterializedSource>(KV(), rows),
            {{0, false}});
  auto out = Collect(&sort);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0].Get(1).AsInt32(), 100);
  EXPECT_EQ(out.value()[1].Get(1).AsInt32(), 50);
  EXPECT_EQ(out.value()[2].Get(1).AsInt32(), 75);
}

TEST(SortTest, EmptyInput) {
  Sort sort(std::make_unique<MaterializedSource>(KV(), std::vector<Tuple>{}),
            {{0, false}});
  auto out = Collect(&sort);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(MergeJoinTest, MultiKeyJoin) {
  Schema abc({{"a", TypeId::kInt32},
              {"b", TypeId::kInt32},
              {"x", TypeId::kInt32}});
  std::vector<Tuple> left = {
      Tuple({Value::Int32(1), Value::Int32(1), Value::Int32(10)}),
      Tuple({Value::Int32(1), Value::Int32(2), Value::Int32(20)}),
      Tuple({Value::Int32(2), Value::Int32(1), Value::Int32(30)})};
  std::vector<Tuple> right = {
      Tuple({Value::Int32(1), Value::Int32(2), Value::Int32(200)}),
      Tuple({Value::Int32(2), Value::Int32(1), Value::Int32(300)}),
      Tuple({Value::Int32(2), Value::Int32(2), Value::Int32(400)})};
  MergeJoin join(std::make_unique<MaterializedSource>(abc, left),
                 std::make_unique<MaterializedSource>(abc, right), {0, 1},
                 {0, 1});
  auto out = Collect(&join);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 2u);  // (1,2) and (2,1)
  EXPECT_EQ(out.value()[0].Get(2).AsInt32(), 20);
  EXPECT_EQ(out.value()[0].Get(5).AsInt32(), 200);
}

TEST(MergeJoinTest, EmptySides) {
  {
    MergeJoin join(
        std::make_unique<MaterializedSource>(KV(), std::vector<Tuple>{}),
        std::make_unique<MaterializedSource>(KV(), Rows({{1, 1}})), {0},
        {0});
    auto out = Collect(&join);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.value().empty());
  }
  {
    MergeJoin join(
        std::make_unique<MaterializedSource>(KV(), Rows({{1, 1}})),
        std::make_unique<MaterializedSource>(KV(), std::vector<Tuple>{}),
        {0}, {0});
    auto out = Collect(&join);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.value().empty());
  }
}

TEST(MergeJoinTest, LeftOuterWithEmptyRight) {
  MergeJoin join(
      std::make_unique<MaterializedSource>(KV(), Rows({{1, 1}, {2, 2}})),
      std::make_unique<MaterializedSource>(KV(), std::vector<Tuple>{}), {0},
      {0}, /*left_outer=*/true);
  auto out = Collect(&join);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 2u);
  EXPECT_TRUE(out.value()[0].Get(2).is_null());
  EXPECT_TRUE(out.value()[1].Get(3).is_null());
}

TEST(MergeJoinTest, LeftOuterCountsMatchInnerPlusUnmatched) {
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::pair<int, int>> l, r;
    for (int i = 0; i < 40; ++i) {
      l.emplace_back(static_cast<int>(rng.Uniform(10)), i);
    }
    for (int i = 0; i < 40; ++i) {
      r.emplace_back(static_cast<int>(rng.Uniform(10)), i);
    }
    auto sorted = [](std::vector<std::pair<int, int>> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    auto ls = Rows(sorted(l));
    auto rs = Rows(sorted(r));
    MergeJoin inner(std::make_unique<MaterializedSource>(KV(), ls),
                    std::make_unique<MaterializedSource>(KV(), rs), {0},
                    {0});
    MergeJoin outer(std::make_unique<MaterializedSource>(KV(), ls),
                    std::make_unique<MaterializedSource>(KV(), rs), {0},
                    {0}, true);
    auto in_rows = Collect(&inner);
    auto out_rows = Collect(&outer);
    ASSERT_TRUE(in_rows.ok());
    ASSERT_TRUE(out_rows.ok());
    size_t unmatched = 0;
    for (const auto& t : out_rows.value()) {
      if (t.Get(2).is_null()) ++unmatched;
    }
    EXPECT_EQ(out_rows.value().size(), in_rows.value().size() + unmatched);
    // Every left row appears at least once in the outer result.
    size_t lefts_seen = 0;
    int prev_v = -1;
    for (const auto& t : out_rows.value()) {
      if (t.Get(1).AsInt32() != prev_v) {
        prev_v = t.Get(1).AsInt32();
        ++lefts_seen;
      }
    }
    EXPECT_GE(lefts_seen, 1u);
  }
}

TEST(ProjectTest, ColumnsHelperPreservesNamesAndOrder) {
  auto src = std::make_unique<MaterializedSource>(KV(), Rows({{7, 8}}));
  auto proj = Project::Columns(std::move(src), {1, 0});
  EXPECT_EQ(proj->schema().column(0).name, "v");
  EXPECT_EQ(proj->schema().column(1).name, "k");
  auto out = Collect(proj.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0].Get(0).AsInt32(), 8);
  EXPECT_EQ(out.value()[0].Get(1).AsInt32(), 7);
}

TEST(AggregateTest, SumOfDoublesStaysDouble) {
  Schema schema({{"g", TypeId::kInt32}, {"x", TypeId::kDouble}});
  std::vector<Tuple> rows = {
      Tuple({Value::Int32(1), Value::Double(0.5)}),
      Tuple({Value::Int32(1), Value::Double(0.25)})};
  HashAggregate agg(std::make_unique<MaterializedSource>(schema, rows), {0},
                    {AggSpec{AggKind::kSum, 1, "s"},
                     AggSpec{AggKind::kMin, 1, "mn"},
                     AggSpec{AggKind::kMax, 1, "mx"}});
  auto out = Collect(&agg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(agg.schema().column(1).type, TypeId::kDouble);
  EXPECT_DOUBLE_EQ(out.value()[0].Get(1).AsDouble(), 0.75);
  EXPECT_DOUBLE_EQ(out.value()[0].Get(2).AsDouble(), 0.25);
  EXPECT_DOUBLE_EQ(out.value()[0].Get(3).AsDouble(), 0.5);
}

TEST(AggregateTest, EmptyInputYieldsNoGroups) {
  HashAggregate agg(
      std::make_unique<MaterializedSource>(KV(), std::vector<Tuple>{}), {0},
      {AggSpec{AggKind::kCount, -1, "c"}});
  auto out = Collect(&agg);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(AggregateTest, OutputOrderedByGroupKey) {
  auto rows = Rows({{5, 1}, {2, 1}, {9, 1}, {2, 1}, {5, 1}});
  HashAggregate agg(std::make_unique<MaterializedSource>(KV(), rows), {0},
                    {AggSpec{AggKind::kCount, -1, "c"}});
  auto out = Collect(&agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 3u);
  EXPECT_EQ(out.value()[0].Get(0).AsInt32(), 2);
  EXPECT_EQ(out.value()[1].Get(0).AsInt32(), 5);
  EXPECT_EQ(out.value()[2].Get(0).AsInt32(), 9);
}

TEST(ValueEdgeTest, EmptyAndLongStrings) {
  Schema schema({{"s", TypeId::kString}});
  RecordView view(&schema);
  Value empty = Value::Str("");
  std::string buf;
  empty.SerializeTo(&buf);
  ASSERT_TRUE(view.Reset(buf).ok());
  EXPECT_EQ(view.GetString(0), "");

  std::string long_str(60000, 'a');
  Value big = Value::Str(long_str);
  buf.clear();
  big.SerializeTo(&buf);
  ASSERT_TRUE(view.Reset(buf).ok());
  EXPECT_EQ(view.GetString(0).size(), 60000u);
}

TEST(ValueEdgeTest, NumericWideningReads) {
  EXPECT_EQ(Value::Int32(-3).AsInt32(), -3);
  EXPECT_EQ(Value::Int64(1LL << 40).AsInt64(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::Int32(2).AsNumeric(), 2.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsNumeric(), 2.5);
}

TEST(FilterTest, ComposesWithProject) {
  auto rows = Rows({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  auto plan = Project::Columns(
      std::make_unique<Filter>(
          std::make_unique<MaterializedSource>(KV(), rows),
          [](const Tuple& t) { return t.Get(0).AsInt32() % 2 == 0; }),
      {1});
  auto out = Collect(plan.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 2u);
  EXPECT_EQ(out.value()[0].Get(0).AsInt32(), 20);
  EXPECT_EQ(out.value()[1].Get(0).AsInt32(), 40);
}

}  // namespace
}  // namespace focus::sql
