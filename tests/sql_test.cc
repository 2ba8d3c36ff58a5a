#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "sql/catalog.h"
#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/join.h"
#include "sql/exec/operator.h"
#include "sql/exec/scan.h"
#include "sql/exec/sort.h"
#include "sql/record.h"
#include "sql/schema.h"
#include "sql/table.h"
#include "sql/value.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::sql {
namespace {

TEST(ValueTest, ConstructAndRead) {
  EXPECT_EQ(Value::Int32(7).AsInt32(), 7);
  EXPECT_EQ(Value::Int64(1LL << 40).AsInt64(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("abc").AsString(), "abc");
  EXPECT_TRUE(Value::Null(TypeId::kDouble).is_null());
  EXPECT_FALSE(Value::Int32(0).is_null());
}

TEST(ValueTest, CompareOrdersValues) {
  EXPECT_LT(Value::Int32(1).Compare(Value::Int32(2)), 0);
  EXPECT_EQ(Value::Int64(5).Compare(Value::Int64(5)), 0);
  EXPECT_GT(Value::Double(2.0).Compare(Value::Double(-1.0)), 0);
  EXPECT_LT(Value::Str("abc").Compare(Value::Str("abd")), 0);
  // NULL sorts first.
  EXPECT_LT(Value::Null(TypeId::kInt32).Compare(Value::Int32(-100)), 0);
}

TEST(ValueTest, SerializeRoundTrip) {
  std::vector<Value> values = {Value::Int32(-42), Value::Int64(1LL << 50),
                               Value::Double(3.14159),
                               Value::Str("http://example.com/page")};
  for (const auto& v : values) {
    std::string buf;
    v.SerializeTo(&buf);
    // A one-column record: Reset also checks the value spans all of it.
    Schema schema({{"v", v.type()}});
    RecordView view(&schema);
    ASSERT_TRUE(view.Reset(buf).ok());
    EXPECT_EQ(view.Get(0).Compare(v), 0);
  }
}

TEST(ValueTest, DeserializeTruncatedFails) {
  std::string buf = "\x01\x02";
  Schema schema({{"v", TypeId::kInt64}});
  RecordView view(&schema);
  EXPECT_FALSE(view.Reset(buf).ok());
}

TEST(ValueTest, HashConsistency) {
  EXPECT_EQ(Value::Int32(9).Hash(), Value::Int32(9).Hash());
  EXPECT_NE(Value::Int32(9).Hash(), Value::Int32(10).Hash());
  EXPECT_EQ(Value::Str("x").Hash(), Value::Str("x").Hash());
}

TEST(SchemaTest, ColumnLookupAndConcat) {
  Schema a({{"oid", TypeId::kInt64}, {"score", TypeId::kDouble}});
  EXPECT_EQ(a.ColumnIndex("score"), 1);
  EXPECT_EQ(a.ColumnIndex("missing"), -1);
  Schema b({{"url", TypeId::kString}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 3);
  EXPECT_EQ(c.column(2).name, "url");
}

TEST(TupleTest, SerializeRoundTrip) {
  Schema schema({{"did", TypeId::kInt64},
                 {"tid", TypeId::kInt32},
                 {"freq", TypeId::kInt32},
                 {"url", TypeId::kString}});
  Tuple t({Value::Int64(99), Value::Int32(12345), Value::Int32(3),
           Value::Str("http://a/b")});
  std::string bytes = t.Serialize(schema);
  auto back = Tuple::Deserialize(schema, bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Get(0).AsInt64(), 99);
  EXPECT_EQ(back.value().Get(3).AsString(), "http://a/b");
}

class SqlTest : public testing::Test {
 protected:
  SqlTest() : pool_(&disk_, 256), catalog_(&pool_) {}

  Table* MakeLinkTable() {
    auto t = catalog_.CreateTable(
        "LINK",
        Schema({{"oid_src", TypeId::kInt64},
                {"sid_src", TypeId::kInt32},
                {"oid_dst", TypeId::kInt64},
                {"sid_dst", TypeId::kInt32},
                {"wgt_fwd", TypeId::kDouble},
                {"wgt_rev", TypeId::kDouble}}),
        {IndexSpec{"by_src", {0}, {}}, IndexSpec{"by_dst", {2}, {}}});
    EXPECT_TRUE(t.ok()) << t.status();
    return t.value();
  }

  storage::MemDiskManager disk_;
  storage::BufferPool pool_;
  Catalog catalog_;
};

TEST_F(SqlTest, CreateInsertGet) {
  Table* link = MakeLinkTable();
  Tuple row({Value::Int64(111), Value::Int32(1), Value::Int64(222),
             Value::Int32(2), Value::Double(0.5), Value::Double(0.9)});
  auto rid = link->Insert(row);
  ASSERT_TRUE(rid.ok());
  Tuple out;
  ASSERT_TRUE(link->Get(rid.value(), &out).ok());
  EXPECT_EQ(out.Get(0).AsInt64(), 111);
  EXPECT_DOUBLE_EQ(out.Get(5).AsDouble(), 0.9);
  EXPECT_EQ(link->num_rows(), 1u);
}

TEST_F(SqlTest, ArityMismatchRejected) {
  Table* link = MakeLinkTable();
  EXPECT_FALSE(link->Insert(Tuple({Value::Int64(1)})).ok());
}

TEST_F(SqlTest, IndexLookupFindsAllDuplicates) {
  Table* link = MakeLinkTable();
  for (int i = 0; i < 50; ++i) {
    Tuple row({Value::Int64(i % 5), Value::Int32(i), Value::Int64(1000 + i),
               Value::Int32(0), Value::Double(0), Value::Double(0)});
    ASSERT_TRUE(link->Insert(row).ok());
  }
  std::vector<storage::Rid> rids;
  ASSERT_TRUE(link->IndexLookup(link->IndexId("by_src"),
                                {Value::Int64(3)}, &rids)
                  .ok());
  EXPECT_EQ(rids.size(), 10u);
  for (const auto& rid : rids) {
    Tuple t;
    ASSERT_TRUE(link->Get(rid, &t).ok());
    EXPECT_EQ(t.Get(0).AsInt64(), 3);
  }
}

TEST_F(SqlTest, UpdateMaintainsIndexes) {
  Table* link = MakeLinkTable();
  Tuple row({Value::Int64(7), Value::Int32(0), Value::Int64(8),
             Value::Int32(0), Value::Double(0), Value::Double(0)});
  auto rid = link->Insert(row);
  ASSERT_TRUE(rid.ok());
  Tuple updated({Value::Int64(7), Value::Int32(0), Value::Int64(9),
                 Value::Int32(0), Value::Double(1), Value::Double(0)});
  ASSERT_TRUE(link->Update(rid.value(), updated).ok());
  std::vector<storage::Rid> rids;
  ASSERT_TRUE(
      link->IndexLookup(link->IndexId("by_dst"), {Value::Int64(8)}, &rids)
          .ok());
  EXPECT_TRUE(rids.empty());
  ASSERT_TRUE(
      link->IndexLookup(link->IndexId("by_dst"), {Value::Int64(9)}, &rids)
          .ok());
  EXPECT_EQ(rids.size(), 1u);
}

TEST_F(SqlTest, DeleteRemovesRowAndIndexEntries) {
  Table* link = MakeLinkTable();
  Tuple row({Value::Int64(7), Value::Int32(0), Value::Int64(8),
             Value::Int32(0), Value::Double(0), Value::Double(0)});
  auto rid = link->Insert(row);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(link->Delete(rid.value()).ok());
  EXPECT_EQ(link->num_rows(), 0u);
  std::vector<storage::Rid> rids;
  ASSERT_TRUE(
      link->IndexLookup(link->IndexId("by_src"), {Value::Int64(7)}, &rids)
          .ok());
  EXPECT_TRUE(rids.empty());
}

TEST_F(SqlTest, ClearEmptiesTable) {
  Table* link = MakeLinkTable();
  for (int i = 0; i < 20; ++i) {
    Tuple row({Value::Int64(i), Value::Int32(0), Value::Int64(i),
               Value::Int32(0), Value::Double(0), Value::Double(0)});
    ASSERT_TRUE(link->Insert(row).ok());
  }
  ASSERT_TRUE(link->Clear().ok());
  EXPECT_EQ(link->num_rows(), 0u);
  auto rows = Collect(std::make_unique<SeqScan>(link).get());
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST_F(SqlTest, CompositeKeyPacking) {
  // A STAT-style table keyed on (kcid:16, tid:32).
  auto t = catalog_.CreateTable(
      "STAT",
      Schema({{"kcid", TypeId::kInt32},
              {"tid", TypeId::kInt32},
              {"logtheta", TypeId::kDouble}}),
      {IndexSpec{"by_kcid_tid", {0, 1}, {16, 32}}});
  ASSERT_TRUE(t.ok()) << t.status();
  Table* stat = t.value();
  for (int kcid = 0; kcid < 4; ++kcid) {
    for (int tid = 0; tid < 100; ++tid) {
      ASSERT_TRUE(stat->Insert(Tuple({Value::Int32(kcid), Value::Int32(tid),
                                      Value::Double(kcid + tid)}))
                      .ok());
    }
  }
  std::vector<storage::Rid> rids;
  ASSERT_TRUE(stat->IndexLookup(0, {Value::Int32(2), Value::Int32(55)}, &rids)
                  .ok());
  ASSERT_EQ(rids.size(), 1u);
  Tuple row;
  ASSERT_TRUE(stat->Get(rids[0], &row).ok());
  EXPECT_DOUBLE_EQ(row.Get(2).AsDouble(), 57.0);
  // A key value that does not fit the declared bit width is rejected.
  auto packed = stat->PackKey(0, {Value::Int32(1 << 17), Value::Int32(0)});
  EXPECT_FALSE(packed.ok());
}

TEST_F(SqlTest, CatalogDuplicateAndDrop) {
  MakeLinkTable();
  auto dup = catalog_.CreateTable("LINK", Schema({{"x", TypeId::kInt32}}));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(catalog_.GetTable("LINK"), nullptr);
  ASSERT_TRUE(catalog_.DropTable("LINK").ok());
  EXPECT_EQ(catalog_.GetTable("LINK"), nullptr);
  EXPECT_EQ(catalog_.DropTable("LINK").code(), StatusCode::kNotFound);
}

// ---------- Executor ----------

OperatorPtr SourceOf(Schema schema, std::vector<Tuple> rows) {
  return std::make_unique<MaterializedSource>(std::move(schema),
                                              std::move(rows));
}

Schema TwoIntSchema() {
  return Schema({{"k", TypeId::kInt32}, {"v", TypeId::kInt32}});
}

std::vector<Tuple> IntRows(std::vector<std::pair<int, int>> kv) {
  std::vector<Tuple> rows;
  rows.reserve(kv.size());
  for (auto [k, v] : kv) {
    rows.push_back(Tuple({Value::Int32(k), Value::Int32(v)}));
  }
  return rows;
}

TEST_F(SqlTest, SeqScanReadsAllRows) {
  Table* link = MakeLinkTable();
  for (int i = 0; i < 300; ++i) {
    Tuple row({Value::Int64(i), Value::Int32(i % 7), Value::Int64(2 * i),
               Value::Int32(0), Value::Double(i * 0.1), Value::Double(0)});
    ASSERT_TRUE(link->Insert(row).ok());
  }
  SeqScan scan(link);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 300u);
}

TEST_F(SqlTest, FilterAndProject) {
  auto src = SourceOf(TwoIntSchema(), IntRows({{1, 10}, {2, 20}, {3, 30}}));
  auto filtered = std::make_unique<Filter>(
      std::move(src),
      [](const Tuple& t) { return t.Get(0).AsInt32() >= 2; });
  Project proj(std::move(filtered),
               {ProjExpr{"doubled", TypeId::kInt32, [](const Tuple& t) {
                           return Value::Int32(t.Get(1).AsInt32() * 2);
                         }}});
  auto rows = Collect(&proj);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].Get(0).AsInt32(), 40);
  EXPECT_EQ(rows.value()[1].Get(0).AsInt32(), 60);
}

TEST_F(SqlTest, SortAscendingAndDescending) {
  auto rows_in = IntRows({{3, 1}, {1, 2}, {2, 3}, {1, 1}});
  {
    Sort sort(SourceOf(TwoIntSchema(), rows_in), {{0, false}, {1, false}});
    auto rows = Collect(&sort);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value()[0].Get(0).AsInt32(), 1);
    EXPECT_EQ(rows.value()[0].Get(1).AsInt32(), 1);
    EXPECT_EQ(rows.value()[3].Get(0).AsInt32(), 3);
  }
  {
    Sort sort(SourceOf(TwoIntSchema(), rows_in), {{0, true}});
    auto rows = Collect(&sort);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value()[0].Get(0).AsInt32(), 3);
  }
}

TEST_F(SqlTest, MergeJoinInner) {
  auto left = SourceOf(TwoIntSchema(),
                       IntRows({{1, 10}, {2, 20}, {2, 21}, {4, 40}}));
  auto right = SourceOf(TwoIntSchema(),
                        IntRows({{2, 200}, {2, 201}, {3, 300}, {4, 400}}));
  MergeJoin join(std::move(left), std::move(right), {0}, {0});
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  // key 2: 2x2 pairs; key 4: 1 pair.
  EXPECT_EQ(rows.value().size(), 5u);
  for (const auto& r : rows.value()) {
    EXPECT_EQ(r.Get(0).AsInt32(), r.Get(2).AsInt32());
  }
}

TEST_F(SqlTest, MergeJoinLeftOuterPadsNulls) {
  auto left = SourceOf(TwoIntSchema(), IntRows({{1, 10}, {2, 20}, {3, 30}}));
  auto right = SourceOf(TwoIntSchema(), IntRows({{2, 200}}));
  MergeJoin join(std::move(left), std::move(right), {0}, {0},
                 /*left_outer=*/true);
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  EXPECT_TRUE(rows.value()[0].Get(2).is_null());   // key 1 unmatched
  EXPECT_FALSE(rows.value()[1].Get(2).is_null());  // key 2 matched
  EXPECT_TRUE(rows.value()[2].Get(2).is_null());   // key 3 unmatched
}

TEST_F(SqlTest, HashJoinMatchesMergeJoin) {
  auto rows_l = IntRows({{5, 1}, {1, 2}, {3, 3}, {3, 4}, {9, 5}});
  auto rows_r = IntRows({{3, 10}, {3, 11}, {5, 12}, {7, 13}});
  MergeJoin mj(std::make_unique<Sort>(SourceOf(TwoIntSchema(), rows_l),
                                      std::vector<SortKey>{{0, false}}),
               std::make_unique<Sort>(SourceOf(TwoIntSchema(), rows_r),
                                      std::vector<SortKey>{{0, false}}),
               {0}, {0});
  HashJoin hj(SourceOf(TwoIntSchema(), rows_l),
              SourceOf(TwoIntSchema(), rows_r), {0}, {0});
  auto m = Collect(&mj);
  auto h = Collect(&hj);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(h.ok());
  auto canon = [](std::vector<Tuple> rows) {
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (auto& t : rows) out.push_back(t.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canon(m.value()), canon(h.value()));
  EXPECT_EQ(m.value().size(), 5u);  // 2x2 for key 3 + 1 for key 5
}

// Property test: on random inputs, MergeJoin == HashJoin == NestedLoopJoin.
class JoinEquivalenceTest : public SqlTest,
                            public testing::WithParamInterface<int> {};

TEST_P(JoinEquivalenceTest, AllJoinsAgree) {
  Rng rng(GetParam());
  auto random_rows = [&](int n, int key_range) {
    std::vector<std::pair<int, int>> kv;
    kv.reserve(n);
    for (int i = 0; i < n; ++i) {
      kv.emplace_back(static_cast<int>(rng.Uniform(key_range)), i);
    }
    return IntRows(kv);
  };
  int n_left = 1 + static_cast<int>(rng.Uniform(120));
  int n_right = 1 + static_cast<int>(rng.Uniform(120));
  int range = 1 + static_cast<int>(rng.Uniform(30));
  auto rows_l = random_rows(n_left, range);
  auto rows_r = random_rows(n_right, range);

  MergeJoin mj(std::make_unique<Sort>(SourceOf(TwoIntSchema(), rows_l),
                                      std::vector<SortKey>{{0, false}}),
               std::make_unique<Sort>(SourceOf(TwoIntSchema(), rows_r),
                                      std::vector<SortKey>{{0, false}}),
               {0}, {0});
  HashJoin hj(SourceOf(TwoIntSchema(), rows_l),
              SourceOf(TwoIntSchema(), rows_r), {0}, {0});
  NestedLoopJoin nl(SourceOf(TwoIntSchema(), rows_l),
                    SourceOf(TwoIntSchema(), rows_r),
                    [](const Tuple& l, const Tuple& r) {
                      return l.Get(0).AsInt32() == r.Get(0).AsInt32();
                    });
  auto m = Collect(&mj);
  auto h = Collect(&hj);
  auto n = Collect(&nl);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  auto canon = [](const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const auto& t : rows) out.push_back(t.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canon(m.value()), canon(n.value()));
  EXPECT_EQ(canon(h.value()), canon(n.value()));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, JoinEquivalenceTest,
                         testing::Range(1, 21));

TEST_F(SqlTest, HashAggregateSumCountAvgMinMax) {
  auto src = SourceOf(TwoIntSchema(),
                      IntRows({{1, 10}, {1, 20}, {2, 5}, {2, 7}, {2, 9}}));
  HashAggregate agg(std::move(src), {0},
                    {AggSpec{AggKind::kSum, 1, "sum_v"},
                     AggSpec{AggKind::kCount, -1, "cnt"},
                     AggSpec{AggKind::kAvg, 1, "avg_v"},
                     AggSpec{AggKind::kMin, 1, "min_v"},
                     AggSpec{AggKind::kMax, 1, "max_v"}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  const Tuple& g1 = rows.value()[0];
  EXPECT_EQ(g1.Get(0).AsInt32(), 1);
  EXPECT_EQ(g1.Get(1).AsInt64(), 30);
  EXPECT_EQ(g1.Get(2).AsInt64(), 2);
  EXPECT_DOUBLE_EQ(g1.Get(3).AsDouble(), 15.0);
  EXPECT_EQ(g1.Get(4).AsInt32(), 10);
  EXPECT_EQ(g1.Get(5).AsInt32(), 20);
  const Tuple& g2 = rows.value()[1];
  EXPECT_EQ(g2.Get(0).AsInt32(), 2);
  EXPECT_EQ(g2.Get(1).AsInt64(), 21);
  EXPECT_EQ(g2.Get(2).AsInt64(), 3);
}

TEST_F(SqlTest, AggregateNoGroupColumns) {
  auto src = SourceOf(TwoIntSchema(), IntRows({{1, 2}, {3, 4}}));
  HashAggregate agg(std::move(src), {},
                    {AggSpec{AggKind::kSum, 1, "total"}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0].Get(0).AsInt64(), 6);
}

TEST_F(SqlTest, IndexScanEqOperator) {
  Table* link = MakeLinkTable();
  for (int i = 0; i < 30; ++i) {
    Tuple row({Value::Int64(i % 3), Value::Int32(i), Value::Int64(i),
               Value::Int32(0), Value::Double(0), Value::Double(0)});
    ASSERT_TRUE(link->Insert(row).ok());
  }
  IndexScanEq scan(link, link->IndexId("by_src"), {Value::Int64(1)});
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 10u);
  for (const auto& r : rows.value()) EXPECT_EQ(r.Get(0).AsInt64(), 1);
}

// Transcription of the §3.7 census query:
//   with CENSUS(kcid, cnt) as (select kcid, count(oid) from CRAWL group by
//   kcid) select kcid, cnt from CENSUS order by cnt
TEST_F(SqlTest, MonitoringCensusQueryShape) {
  auto t = catalog_.CreateTable("CRAWL",
                                Schema({{"oid", TypeId::kInt64},
                                        {"kcid", TypeId::kInt32}}));
  ASSERT_TRUE(t.ok());
  Table* crawl = t.value();
  for (int i = 0; i < 60; ++i) {
    // Class 0: 30 rows, class 1: 20, class 2: 10.
    int kcid = i < 30 ? 0 : (i < 50 ? 1 : 2);
    ASSERT_TRUE(
        crawl->Insert(Tuple({Value::Int64(i), Value::Int32(kcid)})).ok());
  }
  auto agg = std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(crawl), std::vector<int>{1},
      std::vector<AggSpec>{AggSpec{AggKind::kCount, -1, "cnt"}});
  Sort ordered(std::move(agg), {{1, false}});
  auto rows = Collect(&ordered);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  EXPECT_EQ(rows.value()[0].Get(0).AsInt32(), 2);
  EXPECT_EQ(rows.value()[0].Get(1).AsInt64(), 10);
  EXPECT_EQ(rows.value()[2].Get(0).AsInt32(), 0);
  EXPECT_EQ(rows.value()[2].Get(1).AsInt64(), 30);
}

// Clear returns the old heap and index pages to the pool, and the rebuilt
// table reuses them: two tables rebuilt in turn (the distiller's HUBS and
// AUTH) stop growing the device after the first round, and every rebuilt
// heap still scans in insertion order with a working index.
TEST(TableRecyclingTest, ClearReusesPagesAndKeepsInsertionOrder) {
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 32);  // small: rebuilds evict
  Catalog catalog(&pool);
  Schema schema({{"oid", TypeId::kInt64}, {"score", TypeId::kDouble}});
  std::vector<Table*> tables;
  for (const char* name : {"A", "B"}) {
    tables.push_back(
        catalog.CreateTable(name, schema, {IndexSpec{"by_oid", {0}, {}}})
            .TakeValue());
  }
  uint32_t device_pages = 0;
  for (int round = 0; round < 5; ++round) {
    for (size_t t = 0; t < tables.size(); ++t) {
      Table* table = tables[t];
      ASSERT_TRUE(table->Clear().ok());
      Rng rng(17 + t);  // the same keys every round: the same shapes
      std::vector<int64_t> oids;
      for (int i = 0; i < 900; ++i) {
        oids.push_back(static_cast<int64_t>(rng.Next() >> 1));
        ASSERT_TRUE(table
                        ->Insert(Tuple({Value::Int64(oids.back()),
                                        Value::Double(round + 0.5 * i)}))
                        .ok());
      }
      auto it = table->Scan();
      storage::Rid rid;
      Tuple row;
      size_t i = 0;
      while (it.Next(&rid, &row)) {
        ASSERT_LT(i, oids.size());
        EXPECT_EQ(row.Get(0).AsInt64(), oids[i]) << "round " << round;
        EXPECT_EQ(row.Get(1).AsDouble(), round + 0.5 * i);
        ++i;
      }
      ASSERT_TRUE(it.status().ok()) << it.status();
      EXPECT_EQ(i, oids.size());
      for (size_t k = 0; k < oids.size(); k += 97) {
        std::vector<storage::Rid> rids;
        ASSERT_TRUE(table->IndexLookup(0, {Value::Int64(oids[k])}, &rids).ok());
        ASSERT_EQ(rids.size(), 1u);
        ASSERT_TRUE(table->Get(rids[0], &row).ok());
        EXPECT_EQ(row.Get(1).AsDouble(), round + 0.5 * k);
      }
    }
    if (round == 0) {
      device_pages = disk.NumPages();
    } else {
      EXPECT_EQ(disk.NumPages(), device_pages) << "round " << round;
    }
  }
  // Dropping a table frees its pages for the next one.
  ASSERT_TRUE(catalog.DropTable("A").ok());
  Table* next =
      catalog.CreateTable("C", schema, {IndexSpec{"by_oid", {0}, {}}})
          .TakeValue();
  Rng rng(17);
  for (int i = 0; i < 900; ++i) {
    ASSERT_TRUE(next->Insert(Tuple({Value::Int64(static_cast<int64_t>(
                                        rng.Next() >> 1)),
                                    Value::Double(i)}))
                    .ok());
  }
  EXPECT_EQ(disk.NumPages(), device_pages);
}

TEST(TableUpdateInPlaceTest, WritesOnlyChangedRowsAndGuardsKeysAndWidth) {
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 64);
  Catalog catalog(&pool);
  Table* table =
      catalog
          .CreateTable("T",
                       Schema({{"k", TypeId::kInt64},
                               {"v", TypeId::kDouble},
                               {"s", TypeId::kString}}),
                       {IndexSpec{"by_k", {0}, {}}})
          .TakeValue();
  for (int64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(table
                    ->Insert(Tuple({Value::Int64(k), Value::Double(1.0),
                                    Value::Str("row")}))
                    .ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  uint64_t writes = disk.stats().writes;

  // A pass that changes nothing writes nothing.
  ASSERT_TRUE(table
                  ->UpdateInPlace([](MutableRecordView* row) {
                    return row->Set(1, Value::Double(1.0));
                  })
                  .ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, writes);

  // Changing one row dirties exactly its page.
  ASSERT_TRUE(table
                  ->UpdateInPlace([](MutableRecordView* row) {
                    if (row->GetInt64(0) != 599) return Status::OK();
                    return row->Set(1, Value::Double(2.0));
                  })
                  .ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, writes + 1);
  std::vector<storage::Rid> rids;
  ASSERT_TRUE(table->IndexLookup(0, {Value::Int64(599)}, &rids).ok());
  Tuple row;
  ASSERT_TRUE(table->Get(rids.at(0), &row).ok());
  EXPECT_EQ(row.Get(1).AsDouble(), 2.0);

  // Index keys and variable-width columns cannot be set.
  EXPECT_EQ(table
                ->UpdateInPlace([](MutableRecordView* r) {
                  return r->Set(0, Value::Int64(r->GetInt64(0) + 1000));
                })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table
                ->UpdateInPlace([](MutableRecordView* r) {
                  return r->Set(2, Value::Str("longer"));
                })
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(TablePointOpTest, ViewsAndWritesOneRowInPlace) {
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 64);
  Catalog catalog(&pool);
  Table* table =
      catalog
          .CreateTable("T",
                       Schema({{"k", TypeId::kInt64},
                               {"v", TypeId::kDouble},
                               {"s", TypeId::kString}}),
                       {IndexSpec{"by_k", {0}, {}}})
          .TakeValue();
  storage::Rid kept =
      table->Insert(Tuple({Value::Int64(1), Value::Double(1.0),
                           Value::Str("one")}))
          .TakeValue();
  storage::Rid gone =
      table->Insert(Tuple({Value::Int64(2), Value::Double(2.0),
                           Value::Str("two")}))
          .TakeValue();
  ASSERT_TRUE(table->Delete(gone).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  uint64_t writes = disk.stats().writes;

  // A write that changes no byte dirties no page.
  ASSERT_TRUE(table
                  ->UpdateInPlaceAt(kept,
                                    [](MutableRecordView* row) {
                                      return row->Set(1, Value::Double(1.0));
                                    })
                  .ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, writes);

  // A changed column reaches the page and reads back in place.
  ASSERT_TRUE(table
                  ->UpdateInPlaceAt(kept,
                                    [](MutableRecordView* row) {
                                      return row->Set(1, Value::Double(3.5));
                                    })
                  .ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, writes + 1);
  double v = 0;
  std::string s;
  ASSERT_TRUE(table
                  ->VisitAt(kept,
                            [&](const RecordView& row) {
                              v = row.GetDouble(1);
                              s = std::string(row.GetString(2));
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(v, 3.5);
  EXPECT_EQ(s, "one");

  // Index keys and variable-width columns cannot be set.
  EXPECT_EQ(table
                ->UpdateInPlaceAt(kept,
                                  [](MutableRecordView* row) {
                                    return row->Set(0, Value::Int64(9));
                                  })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table
                ->UpdateInPlaceAt(kept,
                                  [](MutableRecordView* row) {
                                    return row->Set(2, Value::Str("uno"));
                                  })
                .code(),
            StatusCode::kInvalidArgument);

  // A tombstoned rid is NotFound, and the callback never runs.
  bool called = false;
  EXPECT_EQ(table
                ->VisitAt(gone,
                          [&](const RecordView&) {
                            called = true;
                            return Status::OK();
                          })
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table
                ->UpdateInPlaceAt(gone,
                                  [&](MutableRecordView*) {
                                    called = true;
                                    return Status::OK();
                                  })
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(called);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, writes + 1);
}

}  // namespace
}  // namespace focus::sql
