// Vectorized (batch-at-a-time) executor operators.
//
// The scalar Volcano engine (operator.h) pays one virtual call and one
// Tuple assembly per row; these operators move a Batch (batch.h) of ~1024
// rows per call and work directly on flat column vectors. The set covers
// exactly what the Figure 3 (BulkProbe) and Figure 4 (join distillation)
// plans use: table scan, materialized source (optionally filled once and
// replayed across plan rebuilds), selection-vector filter, projection/
// expression, sort, merge join (inner and left outer), cross join against
// a small build side, and grouped sum/count over sorted runs. Vectorize/
// Devectorize adapters let scalar and batch operators compose during
// migration, so plans can move over one operator at a time.
//
// Every operator reports to the obs registry: focus_sql_batches_total,
// a focus_sql_rows_per_batch histogram, and per-operator self-time
// counters (focus_sql_batch_op_micros_total{op=...}) — crawl_monitoring
// renders these to show where classify time goes.
#ifndef FOCUS_SQL_EXEC_BATCH_OPS_H_
#define FOCUS_SQL_EXEC_BATCH_OPS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sql/exec/aggregate.h"
#include "sql/exec/batch.h"
#include "sql/exec/operator.h"
#include "sql/exec/sort.h"
#include "sql/table.h"

namespace focus::sql {

// Base interface: Open / NextBatch / Close, mirroring the scalar
// Operator. NextBatch resets `out` and fills it; returns false when
// exhausted (out left empty). The non-virtual NextBatch wraps the
// subclass hook with metrics (batch count, rows/batch, self time).
class BatchOperator {
 public:
  virtual ~BatchOperator() = default;

  virtual Status Open() = 0;
  Result<bool> NextBatch(Batch* out);
  virtual void Close() {}
  virtual const Schema& schema() const = 0;

 protected:
  // `op_name` keys the per-operator obs metrics; nullptr (used by the
  // EXPLAIN ANALYZE wrapper) records nothing.
  explicit BatchOperator(const char* op_name) : op_name_(op_name) {}
  virtual Result<bool> DoNextBatch(Batch* out) = 0;

 private:
  const char* op_name_;
  obs::Counter* batches_total_ = nullptr;
  obs::Histogram* rows_per_batch_ = nullptr;
  obs::Counter* self_micros_ = nullptr;
};

using BatchOperatorPtr = std::unique_ptr<BatchOperator>;

// Heap scan in batches, decoded a heap page at a time: each record is
// validated in its pinned frame and only the `cols` it projects (empty =
// all) are appended to the batch, so plans over CRAWL read two of its
// columns and never copy a URL.
class BatchTableScan final : public BatchOperator {
 public:
  explicit BatchTableScan(const Table* table, std::vector<int> cols = {},
                          int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override { it_.reset(); }
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  const Table* table_;
  std::vector<int> cols_;
  int batch_rows_;
  Schema schema_;
  std::optional<Table::Iterator> it_;
};

// Borrowing source over a materialized ColumnSet (the batch analogue of
// BorrowedSource). A set that fits one batch is forwarded zero-copy.
class BatchSource final : public BatchOperator {
 public:
  explicit BatchSource(const ColumnSet* set,
                       int batch_rows = kDefaultBatchRows)
      : BatchOperator("source"), set_(set), batch_rows_(batch_rows) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  const Schema& schema() const override { return set_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  const ColumnSet* set_;
  int batch_rows_;
  size_t pos_ = 0;
};

// A BatchSource whose caller-owned set outlives the plan. Open() drains
// `fill`, when given, into `*set` and drops it; every Open() then replays
// the set. Plans rebuilt per iteration pass `fill` only while the set is
// unbuilt, so a loop-invariant input is computed once. Because the drain
// runs inside Open(), EXPLAIN ANALYZE nests the fill subtree under this
// operator. `*set` is assigned only after a complete drain.
class BatchMaterialize final : public BatchOperator {
 public:
  BatchMaterialize(ColumnSet* set, BatchOperatorPtr fill,
                   int batch_rows = kDefaultBatchRows)
      : BatchOperator("materialize"),
        set_(set),
        fill_(std::move(fill)),
        batch_rows_(batch_rows) {}

  Status Open() override;
  const Schema& schema() const override {
    return fill_ != nullptr ? fill_->schema() : set_->schema();
  }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  ColumnSet* set_;
  BatchOperatorPtr fill_;
  int batch_rows_;
  size_t pos_ = 0;
};

// Adapter: pulls a scalar child and packs tuples into batches.
class Vectorize final : public BatchOperator {
 public:
  explicit Vectorize(OperatorPtr child, int batch_rows = kDefaultBatchRows)
      : BatchOperator("vectorize"),
        child_(std::move(child)),
        batch_rows_(batch_rows) {}

  Status Open() override { return child_->Open(); }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  OperatorPtr child_;
  int batch_rows_;
  Tuple row_;
};

// Adapter: exposes a batch plan as a scalar Operator.
class Devectorize final : public Operator {
 public:
  explicit Devectorize(BatchOperatorPtr child) : child_(std::move(child)) {}

  Status Open() override;
  Result<bool> Next(Tuple* out) override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  BatchOperatorPtr child_;
  Batch batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

// Appends the indices of qualifying rows to `sel` (ascending).
using BatchPredicate =
    std::function<void(const Batch& in, std::vector<int64_t>* sel)>;

// Selection-vector filter: the predicate marks qualifying rows, then one
// gather per column compacts them. A batch where every row qualifies is
// forwarded zero-copy.
class BatchFilter final : public BatchOperator {
 public:
  BatchFilter(BatchOperatorPtr child, BatchPredicate pred)
      : BatchOperator("filter"),
        child_(std::move(child)),
        pred_(std::move(pred)) {}

  Status Open() override { return child_->Open(); }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  BatchPredicate pred_;
  Batch in_;
  std::vector<int64_t> sel_;
};

// One output column: name/type plus a column-at-a-time evaluator.
struct BatchExpr {
  std::string name;
  TypeId type;
  std::function<ColumnPtr(const Batch& in)> eval;

  // Pass-through of input column `col` (forwards the ColumnPtr).
  static BatchExpr Passthrough(std::string name, TypeId type, int col);
};

class BatchProject final : public BatchOperator {
 public:
  BatchProject(BatchOperatorPtr child, std::vector<BatchExpr> exprs);

  Status Open() override { return child_->Open(); }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<BatchExpr> exprs_;
  Schema schema_;
  Batch in_;
};

// Materializing sort: drains the child into a ColumnSet, stable-sorts an
// index permutation on `keys`, emits gathered batches. Stability keeps
// the scalar engine's within-group arrival order, so downstream
// floating-point accumulation matches the scalar plan bit-for-bit.
class BatchSort final : public BatchOperator {
 public:
  BatchSort(BatchOperatorPtr child, std::vector<SortKey> keys,
            int batch_rows = kDefaultBatchRows)
      : BatchOperator("sort"),
        child_(std::move(child)),
        keys_(std::move(keys)),
        batch_rows_(batch_rows) {}

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<SortKey> keys_;
  int batch_rows_;
  ColumnSet rows_;
  std::vector<int64_t> order_;
  std::vector<uint64_t> packed_;  // injective sort keys; empty if unused
  size_t pos_ = 0;
  bool loaded_ = false;
};

// Merge join over inputs sorted ascending on their key columns. Both
// sides are materialized, the merge produces (left, right) index pairs
// (right -1 = NULL padding under left_outer), and output batches are
// gathered from the pair arrays.
class BatchMergeJoin final : public BatchOperator {
 public:
  BatchMergeJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                 std::vector<int> left_keys, std::vector<int> right_keys,
                 bool left_outer = false,
                 int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  Status Merge();

  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  bool left_outer_;
  int batch_rows_;
  Schema schema_;

  ColumnSet lrows_, rrows_;
  std::vector<int64_t> li_, ri_;
  size_t pos_ = 0;
  bool merged_ = false;
};

// Cross join against a small materialized right side (the DOCLEN x
// children step of Figure 3).
class BatchCrossJoin final : public BatchOperator {
 public:
  BatchCrossJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                 int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  int batch_rows_;
  Schema schema_;

  ColumnSet lrows_, rrows_;
  size_t pos_ = 0;  // over the n_left * n_right logical pairs
  bool loaded_ = false;
};

// Grouped aggregation over an input already sorted by `group_cols`:
// sum/count accumulate over each sorted run and emit one row per group,
// streaming (no hash table, no materialized output). Output columns are
// the group columns followed by one column per spec; types and the
// accumulate-in-double behavior match HashAggregate exactly, and output
// order (input sorted order) matches HashAggregate's ascending std::map
// emission when the sort keys are the group columns.
class BatchSortedAggregate final : public BatchOperator {
 public:
  BatchSortedAggregate(BatchOperatorPtr child, std::vector<int> group_cols,
                       std::vector<AggSpec> aggs,
                       int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  void EmitGroup(Batch* out);

  BatchOperatorPtr child_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  int batch_rows_;
  Schema schema_;

  Batch in_;
  size_t in_pos_ = 0;
  bool in_valid_ = false;
  bool input_done_ = false;

  bool group_open_ = false;
  std::vector<Value> group_key_;
  std::vector<double> sums_;
  std::vector<int64_t> counts_;
};

// Fused sort + sorted-run aggregation: materializes the child, sorts a
// row permutation, and aggregates runs by walking the permutation, so the
// sorted intermediate is never gathered into batches. Produces exactly
// the output of BatchSortedAggregate(BatchSort(child, sort_keys), ...),
// including the floating-point accumulation order.
class BatchSortAggregate final : public BatchOperator {
 public:
  BatchSortAggregate(BatchOperatorPtr child, std::vector<SortKey> sort_keys,
                     std::vector<int> group_cols, std::vector<AggSpec> aggs,
                     int batch_rows = kDefaultBatchRows);

  Status Open() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 protected:
  Result<bool> DoNextBatch(Batch* out) override;

 private:
  BatchOperatorPtr child_;
  std::vector<SortKey> sort_keys_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  int batch_rows_;
  Schema schema_;

  ColumnSet rows_;  // staged input; released once aggregated
  ColumnSet agg_;   // the aggregated result, emitted in batch_rows chunks
  size_t pos_ = 0;
  bool loaded_ = false;
};

// Drains `op` into `out` (Open/NextBatch/Close included).
Status CollectInto(BatchOperator* op, ColumnSet* out);

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_BATCH_OPS_H_
