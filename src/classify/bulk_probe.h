// BulkProbe: batch classification as relational plans (Figure 3).
//
// For each internal node c0, the per-(document, child) log-likelihood
//   sum_{t in d ∩ F(c0)} freq(d,t) * logtheta(ci,t)
// is rewritten (as in §2.1.3) into
//   PARTIAL:  inner sort-merge join DOCUMENT ⋈_tid STAT_c0 (+ TAXONOMY for
//             logdenom), grouped by (did, kcid), summing
//             freq * (logtheta + logdenom)
//   DOCLEN:   DOCUMENT restricted to feature tids, grouped by did
//   COMPLETE: DOCLEN × children(c0) with -len * logdenom
//   final:    COMPLETE left outer join PARTIAL, lpr2 + coalesce(lpr1, 0)
// so every table is read sequentially — the I/O-conscious formulation whose
// ~10x win over SingleProbe Figure 8 reports.
#ifndef FOCUS_CLASSIFY_BULK_PROBE_H_
#define FOCUS_CLASSIFY_BULK_PROBE_H_

#include <unordered_map>
#include <vector>

#include "classify/db_tables.h"
#include "classify/hierarchical_classifier.h"
#include "sql/exec/analyze.h"
#include "util/status.h"

namespace focus::classify {

class BulkProbeClassifier {
 public:
  struct Stats {
    double join_seconds = 0;      // merge-join + aggregation passes
    double finalize_seconds = 0;  // outer join, priors, normalization
    uint64_t partial_rows = 0;    // |PARTIAL| across nodes
    uint64_t output_rows = 0;     // |COMPLETE| across nodes (= |{ci}|·|{d}|)
  };

  BulkProbeClassifier(const HierarchicalClassifier* ref,
                      const ClassifierTables* tables)
      : ref_(ref), tables_(tables) {}

  // Selects the executor for the Figure 3 plans. Defaults to the
  // vectorized batch engine; the scalar Volcano path stays available for
  // comparison benchmarks and equivalence tests. Both are bit-identical.
  void SetEngine(sql::ExecEngine engine) { engine_ = engine; }
  sql::ExecEngine engine() const { return engine_; }

  // Classifies every document materialized in `document` (did, tid, freq).
  // Returns scores keyed by did. `stats`, when given, receives this
  // call's statistics.
  //
  // Reentrant: the plan only reads the shared classifier tables, and the
  // plan recorder and statistics belong to the call, so threads may
  // classify their own DOCUMENT tables at once
  // (crawl::BatchRelevanceEvaluator does).
  Result<std::unordered_map<uint64_t, ClassScores>> ClassifyAll(
      const sql::Table* document, Stats* stats = nullptr) const;

  // Like ClassifyAll, but records every operator of every per-node Figure 3
  // plan into `plan` (EXPLAIN ANALYZE). `plan` may be null, in which case
  // this is exactly ClassifyAll.
  Result<std::unordered_map<uint64_t, ClassScores>> ClassifyWithPlan(
      const sql::Table* document, sql::PlanStats* plan,
      Stats* stats = nullptr) const;

 private:
  // One call's state: its plan recorder (null unless ClassifyWithPlan was
  // given one) and its statistics.
  struct Call {
    sql::PlanStats* plan = nullptr;
    Stats stats;
  };

  // Runs the Figure 3 plan at `c0` over the sorted-DOCUMENT temp,
  // accumulating per-document child log-likelihood vectors into `acc`
  // (keyed by did, indexed like tax.Children(c0)).
  Status BulkProbeNode(
      taxonomy::Cid c0, const sql::Schema& doc_schema,
      const std::vector<sql::Tuple>& doc_sorted,
      std::unordered_map<uint64_t, std::vector<double>>* acc,
      Call* call) const;

  // The same plan on the vectorized engine, over the columnar
  // sorted-DOCUMENT temp.
  Status BulkProbeNodeVec(
      taxonomy::Cid c0, const sql::ColumnSet& doc_sorted,
      std::unordered_map<uint64_t, std::vector<double>>* acc,
      Call* call) const;

  Result<std::unordered_map<uint64_t, ClassScores>> ClassifyAllScalar(
      const sql::Table* document, Call* call) const;
  Result<std::unordered_map<uint64_t, ClassScores>> ClassifyAllVectorized(
      const sql::Table* document, Call* call) const;

  // Shared finalize: priors + score propagation per distinct did.
  Result<std::unordered_map<uint64_t, ClassScores>> Finalize(
      const std::vector<uint64_t>& dids,
      std::unordered_map<taxonomy::Cid,
                         std::unordered_map<uint64_t, std::vector<double>>>*
          node_acc,
      Call* call) const;

  const HierarchicalClassifier* ref_;
  const ClassifierTables* tables_;
  sql::ExecEngine engine_ = sql::ExecEngine::kVectorized;
};

}  // namespace focus::classify

#endif  // FOCUS_CLASSIFY_BULK_PROBE_H_
