// EXPLAIN-ANALYZE instrumentation for hand-built operator trees.
//
// The engine has no SQL parser, so there is no EXPLAIN statement either —
// instead, plan builders wrap each operator with Analyze(stats, label, op)
// and the wrapper records per-operator rows-out, Next calls, and inclusive
// time. The tree structure is recovered automatically: operators open
// parent-before-child, so each wrapper links itself to the wrapper whose
// Open() is on the stack when its own runs. Format() then renders the
// familiar plan report:
//
//   MergeJoin COMPLETE~PARTIAL   rows=40 next=41 total=1.93ms self=0.21ms
//   +- Sort COMPLETE (did,kcid)  rows=40 next=41 total=1.01ms self=0.33ms
//   ...
//
// This is how the paper's central claims become inspectable per run: the
// BulkProbe-vs-SingleProbe and join-vs-naive-distiller comparisons stop
// being aggregate seconds and decompose into per-operator cardinalities
// and time.
//
// Analyze(nullptr, ...) returns the operator unchanged — production plans
// pay nothing when no report is requested. Instrumented plans must run on
// one thread (plan execution already is single-threaded).
#ifndef FOCUS_SQL_EXEC_ANALYZE_H_
#define FOCUS_SQL_EXEC_ANALYZE_H_

#include <deque>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/operator.h"

namespace focus::sql {

class PlanStats {
 public:
  struct Node {
    std::string label;
    uint64_t rows_out = 0;
    uint64_t next_calls = 0;
    uint64_t open_micros = 0;  // inclusive of children
    uint64_t next_micros = 0;  // inclusive of children
    // Batch operators report batches instead of per-row Next calls.
    uint64_t batches = 0;
    bool is_batch = false;
    std::vector<Node*> children;
    bool has_parent = false;
  };

  PlanStats() = default;
  PlanStats(const PlanStats&) = delete;
  PlanStats& operator=(const PlanStats&) = delete;

  // Text report: one tree per root (an instrumented plan executed while
  // this PlanStats was attached), operators annotated with rows, calls,
  // and inclusive/self time.
  std::string Format() const;
  // The same report as JSON (array of node trees).
  std::string ToJson() const;

  // Roots in creation order (nodes never adopted by a parent).
  std::vector<const Node*> Roots() const;

 private:
  friend class AnalyzedOperator;
  friend class AnalyzedBatchOperator;

  Node* NewNode(std::string label);
  // Open-stack maintenance (single-threaded plan execution).
  void PushOpen(Node* node);
  void PopOpen();

  std::deque<Node> nodes_;
  std::vector<Node*> open_stack_;
};

// Wraps `child` so its execution is recorded into `stats` under `label`.
// When `stats` is null the child is returned unchanged (no overhead).
OperatorPtr Analyze(PlanStats* stats, std::string label, OperatorPtr child);

// The batch-engine counterpart: records rows, batches, and inclusive time
// per operator into the same tree (scalar and batch wrappers share the
// open stack, so mixed plans still render as one tree).
BatchOperatorPtr AnalyzeBatch(PlanStats* stats, std::string label,
                              BatchOperatorPtr child);

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_ANALYZE_H_
