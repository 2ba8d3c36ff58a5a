#include "sql/exec/basic.h"

namespace focus::sql {

Result<bool> Filter::Next(Tuple* out) {
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    if (predicate_(*out)) return true;
  }
}

Project::Project(OperatorPtr child, std::vector<ProjExpr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  std::vector<Column> cols;
  cols.reserve(exprs_.size());
  for (const auto& e : exprs_) cols.push_back({e.name, e.type});
  schema_ = Schema(std::move(cols));
}

Result<bool> Project::Next(Tuple* out) {
  Tuple in;
  FOCUS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  std::vector<Value> values;
  values.reserve(exprs_.size());
  for (const auto& e : exprs_) values.push_back(e.fn(in));
  *out = Tuple(std::move(values));
  return true;
}

OperatorPtr Project::Columns(OperatorPtr child, std::vector<int> cols) {
  std::vector<ProjExpr> exprs;
  exprs.reserve(cols.size());
  const Schema& in = child->schema();
  for (int c : cols) {
    exprs.push_back(ProjExpr{in.column(c).name, in.column(c).type,
                             [c](const Tuple& t) { return t.Get(c); }});
  }
  return std::make_unique<Project>(std::move(child), std::move(exprs));
}

}  // namespace focus::sql
