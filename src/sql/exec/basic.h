// Filter and Project operators.
#ifndef FOCUS_SQL_EXEC_BASIC_H_
#define FOCUS_SQL_EXEC_BASIC_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sql/exec/operator.h"

namespace focus::sql {

// Emits child tuples satisfying `predicate`.
class Filter final : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  Filter(OperatorPtr child, Predicate predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Tuple* out) override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  OperatorPtr child_;
  Predicate predicate_;
};

// One output column: a name/type plus a function of the input tuple.
struct ProjExpr {
  std::string name;
  TypeId type;
  std::function<Value(const Tuple&)> fn;
};

// Computes an output tuple per input tuple.
class Project final : public Operator {
 public:
  Project(OperatorPtr child, std::vector<ProjExpr> exprs);

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Tuple* out) override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }

  // Convenience: projection that keeps the given child columns.
  static OperatorPtr Columns(OperatorPtr child, std::vector<int> cols);

 private:
  OperatorPtr child_;
  std::vector<ProjExpr> exprs_;
  Schema schema_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_BASIC_H_
