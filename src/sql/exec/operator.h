// Pull-based (Volcano-style) executor operators.
//
// Plans are composed by hand in C++ — the engine has no SQL parser; the
// paper's SQL (Figures 3 and 4, §3.7 monitoring queries) is transcribed
// into operator trees. Each operator exposes Open / Next / Close and its
// output schema.
#ifndef FOCUS_SQL_EXEC_OPERATOR_H_
#define FOCUS_SQL_EXEC_OPERATOR_H_

#include <memory>
#include <vector>

#include "sql/schema.h"
#include "util/status.h"

namespace focus::sql {

// Which executor runs a hot relational plan: the scalar Volcano engine
// (one Tuple per Next call; the paper's executor and the differential
// oracle) or the vectorized batch engine (batch_ops.h). Both produce
// identical results (tested, bit-exact); vectorized is the default for
// the Figure 3 / Figure 4 consumers.
enum class ExecEngine { kScalar, kVectorized };

class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  // Produces the next tuple into `out`; returns false when exhausted.
  virtual Result<bool> Next(Tuple* out) = 0;
  virtual void Close() {}
  virtual const Schema& schema() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

// Runs `op` to completion and returns its rows (Open/Next/Close included),
// moving each tuple out of the operator's output slot. `reserve_hint`
// pre-sizes the result when the caller knows the cardinality.
Result<std::vector<Tuple>> Collect(Operator* op, size_t reserve_hint = 0);

// A materialized rowset as an operator source; used to stage multi-pass
// plans (the "with ... as" blocks of Figure 3).
class MaterializedSource final : public Operator {
 public:
  MaterializedSource(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }
  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

// Like MaterializedSource but borrows the rows (no copy). The rows and
// schema must outlive the operator. Used when one materialized pass feeds
// several plans (e.g. the sorted-DOCUMENT temp reused across BulkProbe
// nodes).
class BorrowedSource final : public Operator {
 public:
  BorrowedSource(Schema schema, const std::vector<Tuple>* rows)
      : schema_(std::move(schema)), rows_(rows) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_->size()) return false;
    *out = (*rows_)[pos_++];
    return true;
  }
  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  const std::vector<Tuple>* rows_;
  size_t pos_ = 0;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_OPERATOR_H_
