// Cross-engine differential harness: seeded random plans — scans,
// key-range filters, projections, sorts, inner/outer sort-merge joins,
// sorted-run aggregates — run on the scalar and vectorized engines and
// compared row for row, bit for bit. The scalar Volcano engine is the
// oracle; any divergence dumps a one-line repro (seed + plan) to stderr.
//
// Environment knob (optional):
//   FOCUS_DIFF_SEED     base seed offset (default 0)
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/batch.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/join.h"
#include "sql/exec/operator.h"
#include "sql/exec/sort.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::sql {
namespace {

struct PlanSpec {
  uint64_t seed = 0;
  TypeId key_type = TypeId::kInt32;
  int left_rows = 0;
  int right_rows = 0;
  int key_range = 1;             // 1 = single-distinct-value column
  bool with_string_payload = false;  // nullable string column on the left
  bool with_filter = false;          // key-range predicate
  bool with_project = false;         // appended x2 = 2*x
  bool with_join = false;
  bool left_outer = false;
  bool with_agg = false;     // group by key: sum(x), count(*)

  std::string Describe() const {
    return StrCat("key_type=", static_cast<int>(key_type),
                  " L=", left_rows, " R=", right_rows,
                  " range=", key_range,
                  " str_payload=", with_string_payload,
                  " filter=", with_filter, " project=", with_project,
                  " join=", with_join, " outer=", left_outer,
                  " agg=", with_agg);
  }
};

PlanSpec RandomSpec(uint64_t seed) {
  Rng rng(seed * 2654435761ull + 17);
  PlanSpec s;
  s.seed = seed;
  switch (rng.Uniform(3)) {
    case 0: s.key_type = TypeId::kInt32; break;
    case 1: s.key_type = TypeId::kInt64; break;
    default: s.key_type = TypeId::kString; break;
  }
  auto size = [&rng]() -> int {
    switch (rng.Uniform(6)) {
      case 0: return 0;  // empty table
      case 1: return 1;
      case 2: return static_cast<int>(rng.Uniform(8));
      default: return 40 + static_cast<int>(rng.Uniform(200));
    }
  };
  s.left_rows = size();
  s.right_rows = size();
  // Occasionally collapse the key domain to 1-3 values: duplicate-heavy
  // runs, quadratic join groups, single-distinct dictionaries.
  s.key_range = rng.Bernoulli(0.25) ? 1 + static_cast<int>(rng.Uniform(3))
                                    : 4 + static_cast<int>(rng.Uniform(30));
  s.with_string_payload = rng.Bernoulli(0.5);
  s.with_filter = rng.Bernoulli(0.5);
  s.with_project = rng.Bernoulli(0.4);
  s.with_join = rng.Bernoulli(0.6);
  s.left_outer = s.with_join && rng.Bernoulli(0.4);
  // Two retired plan bits (an index-probe join and its dense variant)
  // are still drawn, so every seed keeps generating the plan it always
  // did.
  if (s.with_join && rng.Bernoulli(0.5)) rng.Bernoulli(0.5);
  s.with_agg = rng.Bernoulli(0.5);
  return s;
}

Value MakeKey(TypeId type, int v) {
  switch (type) {
    case TypeId::kInt32: return Value::Int32(v);
    case TypeId::kInt64: return Value::Int64(static_cast<int64_t>(v) * 3);
    default: return Value::Str(StrCat("k", v));
  }
}

// [lo, hi) over the same literal space MakeKey draws from (for strings
// this is a lexicographic range — odd-looking but identical everywhere).
std::pair<Value, Value> FilterBounds(const PlanSpec& s) {
  int lo = s.key_range / 4;
  int hi = std::max(lo + 1, (3 * s.key_range) / 4);
  return {MakeKey(s.key_type, lo), MakeKey(s.key_type, hi)};
}

struct Inputs {
  Schema lschema, rschema;
  std::vector<Tuple> left, right;
};

Inputs MakeInputs(const PlanSpec& s) {
  Rng rng(s.seed * 7919ull + 3);
  Inputs in;
  std::vector<Column> lcols{{"k", s.key_type}, {"x", TypeId::kDouble}};
  if (s.with_string_payload) lcols.push_back({"s", TypeId::kString});
  in.lschema = Schema(lcols);
  in.rschema = Schema({{"k", s.key_type}, {"w", TypeId::kDouble}});
  for (int i = 0; i < s.left_rows; ++i) {
    std::vector<Value> row{
        MakeKey(s.key_type, static_cast<int>(rng.Uniform(s.key_range))),
        Value::Double(rng.NextDouble() * 10 - 5)};
    if (s.with_string_payload) {
      row.push_back(rng.Bernoulli(0.2)
                        ? Value::Null(TypeId::kString)
                        : Value::Str(StrCat("p", rng.Uniform(5))));
    }
    in.left.push_back(Tuple(std::move(row)));
  }
  for (int i = 0; i < s.right_rows; ++i) {
    in.right.push_back(Tuple(
        {MakeKey(s.key_type, static_cast<int>(rng.Uniform(s.key_range))),
         Value::Double(rng.NextDouble() * 100)}));
  }
  return in;
}

std::vector<AggSpec> Aggs(const PlanSpec&) {
  // The batch sorted-run aggregate supports SUM and COUNT — the two the
  // paper's plans use — so the differential plan space sticks to those.
  return {AggSpec{AggKind::kSum, 1, "sum_x"},
          AggSpec{AggKind::kCount, -1, "cnt"}};
}

std::vector<std::string> RowStrings(Operator* op) {
  auto rows = Collect(op);
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> out;
  for (const Tuple& t : rows.value()) out.push_back(t.ToString());
  return out;
}

// ---- The oracle: the scalar Volcano engine ----

std::vector<std::string> RunScalar(const PlanSpec& s, const Inputs& in) {
  OperatorPtr op =
      std::make_unique<MaterializedSource>(in.lschema, in.left);
  if (s.with_filter) {
    auto [lo, hi] = FilterBounds(s);
    op = std::make_unique<Filter>(
        std::move(op), [lo, hi](const Tuple& t) {
          return t.Get(0).Compare(lo) >= 0 && t.Get(0).Compare(hi) < 0;
        });
  }
  if (s.with_project) {
    std::vector<ProjExpr> exprs;
    for (int c = 0; c < in.lschema.num_columns(); ++c) {
      exprs.push_back(ProjExpr{in.lschema.columns()[c].name,
                               in.lschema.columns()[c].type,
                               [c](const Tuple& t) { return t.Get(c); }});
    }
    exprs.push_back(ProjExpr{"x2", TypeId::kDouble, [](const Tuple& t) {
                               return Value::Double(2 * t.Get(1).AsDouble());
                             }});
    op = std::make_unique<Project>(std::move(op), std::move(exprs));
  }
  op = std::make_unique<Sort>(std::move(op),
                              std::vector<SortKey>{{0, false}});
  if (s.with_join) {
    OperatorPtr r = std::make_unique<Sort>(
        std::make_unique<MaterializedSource>(in.rschema, in.right),
        std::vector<SortKey>{{0, false}});
    op = std::make_unique<MergeJoin>(std::move(op), std::move(r),
                                     std::vector<int>{0},
                                     std::vector<int>{0}, s.left_outer);
  }
  if (s.with_agg) {
    op = std::make_unique<HashAggregate>(std::move(op),
                                         std::vector<int>{0}, Aggs(s));
  }
  return RowStrings(op.get());
}

// ---- The vectorized engine ----

std::vector<std::string> RunVectorized(const PlanSpec& s, const Inputs& in) {
  ColumnSet limg(in.lschema), rimg(in.rschema);
  for (const Tuple& t : in.left) limg.AppendTuple(t);
  for (const Tuple& t : in.right) rimg.AppendTuple(t);

  BatchOperatorPtr op = std::make_unique<BatchSource>(&limg);
  if (s.with_filter) {
    auto [lo, hi] = FilterBounds(s);
    op = std::make_unique<BatchFilter>(
        std::move(op), [lo, hi](const Batch& b, std::vector<int64_t>* sel) {
          for (size_t i = 0; i < b.num_rows(); ++i) {
            Value v = b.ValueAt(i, 0);
            if (v.Compare(lo) >= 0 && v.Compare(hi) < 0) {
              sel->push_back(static_cast<int64_t>(i));
            }
          }
        });
  }
  if (s.with_project) {
    std::vector<BatchExpr> exprs;
    const Schema& cur = op->schema();
    for (int c = 0; c < cur.num_columns(); ++c) {
      exprs.push_back(BatchExpr::Passthrough(
          cur.columns()[c].name, cur.columns()[c].type, c));
    }
    exprs.push_back(BatchExpr{"x2", TypeId::kDouble, [](const Batch& b) {
                                const auto& x = b.col(1).f64;
                                ColumnPtr out = NewColumn(TypeId::kDouble);
                                out->f64.reserve(x.size());
                                for (double v : x) out->f64.push_back(2 * v);
                                return out;
                              }});
    op = std::make_unique<BatchProject>(std::move(op), std::move(exprs));
  }

  std::vector<SortKey> by_key{{0, false}};
  op = std::make_unique<BatchSort>(std::move(op), by_key);
  if (s.with_join) {
    op = std::make_unique<BatchMergeJoin>(
        std::move(op),
        std::make_unique<BatchSort>(std::make_unique<BatchSource>(&rimg),
                                    by_key),
        std::vector<int>{0}, std::vector<int>{0}, s.left_outer);
  }
  if (s.with_agg) {
    op = std::make_unique<BatchSortedAggregate>(
        std::move(op), std::vector<int>{0}, Aggs(s));
  }

  ColumnSet out;
  Status st = CollectInto(op.get(), &out);
  EXPECT_TRUE(st.ok()) << st;

  Devectorize scalar_tail(std::make_unique<BatchSource>(&out));
  return RowStrings(&scalar_tail);
}

void ExpectSame(const PlanSpec& s, const std::vector<std::string>& expected,
                const std::vector<std::string>& got) {
  if (got == expected) return;
  // The one line a human (or CI log grepper) needs to replay this case.
  std::cerr << "REPRO: seed=" << s.seed << " plan={" << s.Describe()
            << "}\n";
  size_t first = 0;
  while (first < expected.size() && first < got.size() &&
         expected[first] == got[first]) {
    ++first;
  }
  ADD_FAILURE() << "vectorized diverged from scalar on seed " << s.seed
                << ": "
                << expected.size() << " vs " << got.size()
                << " rows, first divergence at row " << first << "\n  want: "
                << (first < expected.size() ? expected[first] : "<none>")
                << "\n  got:  "
                << (first < got.size() ? got[first] : "<none>");
}

void RunDifferential(const PlanSpec& spec) {
  Inputs in = MakeInputs(spec);
  ExpectSame(spec, RunScalar(spec, in), RunVectorized(spec, in));
}

uint64_t BaseSeed() {
  if (const char* env = std::getenv("FOCUS_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0;
}

TEST(SqlDifferentialTest, HandPickedEdgeCases) {
  std::vector<PlanSpec> cases;
  {
    PlanSpec s;  // empty left, outer join, aggregate
    s.seed = 9001;
    s.left_rows = 0;
    s.right_rows = 50;
    s.key_range = 5;
    s.with_join = true;
    s.left_outer = true;
    s.with_agg = true;
    cases.push_back(s);
  }
  {
    PlanSpec s;  // empty right: outer join must pad every left row
    s.seed = 9002;
    s.left_rows = 60;
    s.right_rows = 0;
    s.key_range = 6;
    s.with_join = true;
    s.left_outer = true;
    cases.push_back(s);
  }
  {
    PlanSpec s;  // single-distinct key both sides: one quadratic group
    s.seed = 9003;
    s.left_rows = 150;
    s.right_rows = 150;
    s.key_range = 1;
    s.with_join = true;
    cases.push_back(s);
  }
  {
    PlanSpec s;  // duplicate-heavy string keys through filter+join+agg
    s.seed = 9004;
    s.key_type = TypeId::kString;
    s.left_rows = 180;
    s.right_rows = 120;
    s.key_range = 3;
    s.with_string_payload = true;
    s.with_filter = true;
    s.with_join = true;
    s.with_agg = true;
    cases.push_back(s);
  }
  {
    PlanSpec s;  // both sides empty
    s.seed = 9005;
    s.with_join = true;
    s.with_agg = true;
    cases.push_back(s);
  }
  for (const PlanSpec& s : cases) {
    RunDifferential(s);
    if (HasFailure()) break;
  }
}

TEST(SqlDifferentialTest, RandomPlansBitIdenticalAcrossEngines) {
  constexpr int kPlans = 220;
  uint64_t base = BaseSeed();
  for (int i = 0; i < kPlans; ++i) {
    RunDifferential(RandomSpec(base + static_cast<uint64_t>(i)));
    // One repro line is worth more than two hundred: stop at the first.
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace focus::sql
