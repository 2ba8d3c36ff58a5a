// Micro-benchmarks for the executor: table scan, joins, sort, aggregation,
// tokenizer.
//
// Operators with both engines carry a _scalar / _vectorized suffix;
// `--engine=scalar|vectorized` selects one family (it maps to
// --benchmark_filter), and `--json` maps to --benchmark_format=json, so CI
// can diff the engines from one binary.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/batch.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/join.h"
#include "sql/exec/operator.h"
#include "sql/exec/scan.h"
#include "sql/exec/sort.h"
#include "sql/table.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::sql {
namespace {

Schema TwoInts() {
  return Schema({{"k", TypeId::kInt32}, {"v", TypeId::kInt32}});
}

std::vector<Tuple> RandomRows(int n, int key_range, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value::Int32(static_cast<int32_t>(
                              rng.Uniform(key_range))),
                          Value::Int32(i)}));
  }
  return rows;
}

// The columnar twin of a MaterializedSource input: both engines start
// from an in-memory rowset in their native layout.
ColumnSet Columnar(const std::vector<Tuple>& rows) {
  ColumnSet set(TwoInts());
  for (const Tuple& t : rows) set.AppendTuple(t);
  return set;
}

// --- table scan projected to 2 of 4 columns (CRAWL's oid, relevance) ---

// A resident 100k-row heap with a URL-like string column, built once.
struct ScanTable {
  storage::MemDiskManager disk;
  storage::BufferPool pool{&disk, 4096};
  std::unique_ptr<Table> table;

  ScanTable() {
    table = Table::Create(&pool, "T",
                          Schema({{"oid", TypeId::kInt64},
                                  {"url", TypeId::kString},
                                  {"sid", TypeId::kInt32},
                                  {"relevance", TypeId::kDouble}}),
                          {})
                .TakeValue();
    Rng rng(3);
    for (int i = 0; i < kScanRows; ++i) {
      FOCUS_CHECK(table
                      ->Insert(Tuple(
                          {Value::Int64(i),
                           Value::Str(StrCat("http://server", rng.Uniform(500),
                                             ".example/page", i)),
                           Value::Int32(static_cast<int32_t>(i % 500)),
                           Value::Double(rng.NextDouble())}))
                      .ok());
    }
  }
  static constexpr int kScanRows = 100000;
};

const Table* ScanTableInstance() {
  static ScanTable t;
  return t.table.get();
}

void BM_TableScan_scalar(benchmark::State& state) {
  const Table* table = ScanTableInstance();
  for (auto _ : state) {
    Project project(
        std::make_unique<SeqScan>(table),
        {ProjExpr{"oid", TypeId::kInt64,
                  [](const Tuple& t) { return t.Get(0); }},
         ProjExpr{"relevance", TypeId::kDouble,
                  [](const Tuple& t) { return t.Get(3); }}});
    auto rows = Collect(&project);
    FOCUS_CHECK(rows.ok() && rows->size() == ScanTable::kScanRows);
  }
  state.SetItemsProcessed(state.iterations() * ScanTable::kScanRows);
}
BENCHMARK(BM_TableScan_scalar);

void BM_TableScan_vectorized(benchmark::State& state) {
  const Table* table = ScanTableInstance();
  for (auto _ : state) {
    BatchTableScan scan(table, {0, 3});
    ColumnSet out;
    FOCUS_CHECK(CollectInto(&scan, &out).ok() &&
                out.num_rows() == ScanTable::kScanRows);
  }
  state.SetItemsProcessed(state.iterations() * ScanTable::kScanRows);
}
BENCHMARK(BM_TableScan_vectorized);

// --- sort + merge join (the Figure 3 / Figure 4 access pattern) ---

void BM_MergeJoin_scalar(benchmark::State& state) {
  int n = state.range(0);
  auto left = RandomRows(n, n / 4, 1);
  auto right = RandomRows(n, n / 4, 2);
  for (auto _ : state) {
    MergeJoin join(
        std::make_unique<Sort>(
            std::make_unique<MaterializedSource>(TwoInts(), left),
            std::vector<SortKey>{{0, false}}),
        std::make_unique<Sort>(
            std::make_unique<MaterializedSource>(TwoInts(), right),
            std::vector<SortKey>{{0, false}}),
        std::vector<int>{0}, std::vector<int>{0});
    auto rows = Collect(&join);
    benchmark::DoNotOptimize(rows.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeJoin_scalar)->Arg(1000)->Arg(10000);

void BM_MergeJoin_vectorized(benchmark::State& state) {
  int n = state.range(0);
  ColumnSet left = Columnar(RandomRows(n, n / 4, 1));
  ColumnSet right = Columnar(RandomRows(n, n / 4, 2));
  for (auto _ : state) {
    BatchMergeJoin join(
        std::make_unique<BatchSort>(std::make_unique<BatchSource>(&left),
                                    std::vector<SortKey>{{0, false}}),
        std::make_unique<BatchSort>(std::make_unique<BatchSource>(&right),
                                    std::vector<SortKey>{{0, false}}),
        std::vector<int>{0}, std::vector<int>{0});
    ColumnSet out;
    benchmark::DoNotOptimize(CollectInto(&join, &out).ok());
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeJoin_vectorized)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  int n = state.range(0);
  auto left = RandomRows(n, n / 4, 1);
  auto right = RandomRows(n, n / 4, 2);
  for (auto _ : state) {
    HashJoin join(std::make_unique<MaterializedSource>(TwoInts(), left),
                  std::make_unique<MaterializedSource>(TwoInts(), right),
                  std::vector<int>{0}, std::vector<int>{0});
    auto rows = Collect(&join);
    benchmark::DoNotOptimize(rows.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000);

// --- sort ---

void BM_Sort_scalar(benchmark::State& state) {
  int n = state.range(0);
  auto rows = RandomRows(n, 1 << 30, 3);
  for (auto _ : state) {
    Sort sort(std::make_unique<MaterializedSource>(TwoInts(), rows),
              std::vector<SortKey>{{0, false}});
    auto sorted = Collect(&sort);
    benchmark::DoNotOptimize(sorted.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sort_scalar)->Arg(10000);

void BM_Sort_vectorized(benchmark::State& state) {
  int n = state.range(0);
  ColumnSet rows = Columnar(RandomRows(n, 1 << 30, 3));
  for (auto _ : state) {
    BatchSort sort(std::make_unique<BatchSource>(&rows),
                   std::vector<SortKey>{{0, false}});
    ColumnSet out;
    benchmark::DoNotOptimize(CollectInto(&sort, &out).ok());
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sort_vectorized)->Arg(10000)->Arg(100000);

// --- grouped aggregation (sum over 64 groups) ---
//
// In the hot plans the aggregate consumes merge-join output, which is
// already sorted on the group keys, so both engines see sorted input:
// the scalar engine still hashes (it has no sorted-run aggregate), the
// batch engine aggregates runs in place.

std::vector<Tuple> SortedRows(int n, int key_range, uint64_t seed) {
  Sort sort(std::make_unique<MaterializedSource>(
                TwoInts(), RandomRows(n, key_range, seed)),
            std::vector<SortKey>{{0, false}});
  auto rows = Collect(&sort);
  return std::move(rows.value());
}

void BM_GroupedAggregate_scalar(benchmark::State& state) {
  int n = state.range(0);
  auto rows = SortedRows(n, 64, 4);
  for (auto _ : state) {
    HashAggregate agg(std::make_unique<MaterializedSource>(TwoInts(), rows),
                      {0}, {AggSpec{AggKind::kSum, 1, "sum"}});
    auto out = Collect(&agg);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupedAggregate_scalar)->Arg(10000);

void BM_GroupedAggregate_vectorized(benchmark::State& state) {
  int n = state.range(0);
  ColumnSet rows = Columnar(SortedRows(n, 64, 4));
  for (auto _ : state) {
    BatchSortedAggregate agg(std::make_unique<BatchSource>(&rows), {0},
                             {AggSpec{AggKind::kSum, 1, "sum"}});
    ColumnSet out;
    benchmark::DoNotOptimize(CollectInto(&agg, &out).ok());
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupedAggregate_vectorized)->Arg(10000);

void BM_Tokenize(benchmark::State& state) {
  std::string text;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    text += StrCat("token", rng.Uniform(5000), " ");
  }
  text::Tokenizer tokenizer;
  for (auto _ : state) {
    auto tokens = tokenizer.Tokenize(text);
    benchmark::DoNotOptimize(tokens.size());
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_Tokenize);

}  // namespace
}  // namespace focus::sql

int main(int argc, char** argv) {
  // google-benchmark rejects unknown flags, so translate our CLI into its
  // vocabulary before Initialize sees it.
  std::vector<std::string> args;
  args.reserve(argc + 1);
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--engine=", 0) == 0) {
      args.push_back("--benchmark_filter=_" + arg.substr(9));
    } else if (arg == "--json") {
      args.push_back("--benchmark_format=json");
    } else {
      args.push_back(std::move(arg));
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& s : args) argv2.push_back(s.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
