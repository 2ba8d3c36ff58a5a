// Join-based distillation — the Figure 4 SQL, as executor plans
// (the "Join" bars of Figure 8(d)).
//
//   insert into AUTH(oid, score)
//     select oid_dst, sum(score * wgt_fwd)
//     from HUBS, LINK, CRAWL
//     where sid_src <> sid_dst and HUBS.oid = oid_src
//       and oid_dst = CRAWL.oid and relevance > rho
//     group by oid_dst;  -- then normalize
// and symmetrically for HUBS (without the relevance filter).
#ifndef FOCUS_DISTILL_JOIN_DISTILLER_H_
#define FOCUS_DISTILL_JOIN_DISTILLER_H_

#include "distill/distiller.h"
#include "sql/exec/analyze.h"

namespace focus::distill {

class JoinDistiller final : public Distiller {
 public:
  explicit JoinDistiller(DistillTables tables) : Distiller(tables) {}

  Status Initialize() override;
  Status RunIteration(double rho) override;

  // Builds the batch plans' loop-invariant sets for threshold `rho` now
  // (call after Initialize()). Iterations at that rho then read only the
  // sets and HUBS/AUTH, never LINK or CRAWL: a snapshot of the graph, so
  // they may run while LINK and CRAWL change. The scalar plans rescan
  // both tables every iteration and cannot snapshot; Prepare refuses them.
  Status Prepare(double rho);

  // Like RunIteration, but records every operator of the UpdateAuth and
  // UpdateHubs plans into `plan` (EXPLAIN ANALYZE for Figure 4). `plan`
  // may be null, in which case this is exactly RunIteration.
  Status RunIterationWithPlan(double rho, sql::PlanStats* plan);

  // Selects the executor for the Figure 4 plans. Defaults to the
  // vectorized batch engine; the scalar Volcano path stays available for
  // comparison benchmarks and equivalence tests (bit-identical results).
  void SetEngine(sql::ExecEngine engine) { engine_ = engine; }
  sql::ExecEngine engine() const { return engine_; }

 private:
  // Replaces `table`'s rows with `rows` scaled to sum 1, in input order
  // (callers supply ascending-oid rows so the heap stays merge-ready).
  Status ReplaceNormalized(sql::Table* table,
                           const std::vector<sql::Tuple>& rows);

  // Counts LINK rows whose src/dst oid has no CRAWL row (purged or lost
  // URLs) into stats_; such edges are tolerated — the joins drop them.
  // The scalar engine's audit: a LINK scan with memoized by_oid probes.
  Status AuditDanglingEdges();

  // The batch engine's Initialize pass: one projected LINK scan of
  // (oid_src, oid_dst), checked against CRAWL's sorted oid set, yields the
  // distinct sources (ascending) and both dangling-edge counts.
  Result<std::vector<int64_t>> SourcesAndDanglingEdgesVec();

  Status UpdateAuth(double rho);
  Status UpdateHubs();
  Status UpdateAuthVec(double rho);
  Status UpdateHubsVec();

  // The batch plans' loop-invariant inputs as plan leaves. Each carries
  // the subtree that builds its set only while the set is unbuilt, so the
  // first batch iteration after Initialize() runs (and EXPLAINs) the full
  // Figure 4 plan and later ones replay the sets.
  sql::BatchOperatorPtr OffServerLinksByDst();
  sql::BatchOperatorPtr EligibleLinksBySrc(double rho);

  sql::ExecEngine engine_ = sql::ExecEngine::kVectorized;
  int crawl_oid_col_ = -1;
  int crawl_rel_col_ = -1;
  // Per-query sets of the batch engine; Initialize() drops them. A set
  // with no columns is unbuilt. LINK, CRAWL and rho do not change between
  // iterations, so none of this depends on HUBS or AUTH.
  //   links_by_dst_: off-server LINK rows, stable-sorted by oid_dst.
  //   eligible_by_src_: links_by_dst_ joined with CRAWL's pages of
  //     relevance > eligible_rho_, stable-sorted by oid_src.
  sql::ColumnSet links_by_dst_;
  sql::ColumnSet eligible_by_src_;
  double eligible_rho_ = 0;
  // Non-null only inside RunIterationWithPlan.
  sql::PlanStats* plan_ = nullptr;
};

}  // namespace focus::distill

#endif  // FOCUS_DISTILL_JOIN_DISTILLER_H_
