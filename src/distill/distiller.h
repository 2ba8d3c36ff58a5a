// DB-resident distillation (§2.2.3): shared table handles and interface.
//
// Two implementations run against the same LINK/CRAWL tables:
//   * NaiveDistiller  — sequential LINK scan with per-edge index lookups
//     and score updates (the pre-database, main-memory style), on a
//     HUBS/AUTH pair indexed by_oid;
//   * JoinDistiller   — each update expressed as the Figure 4 join +
//     group-by plan, with HUBS/AUTH bulk-replaced in sorted order.
// Both reproduce HitsEngine's scores exactly (tested); Figure 8(d) measures
// their I/O difference.
#ifndef FOCUS_DISTILL_DISTILLER_H_
#define FOCUS_DISTILL_DISTILLER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "distill/hits.h"
#include "obs/metrics.h"
#include "sql/catalog.h"
#include "sql/table.h"
#include "util/status.h"

namespace focus::distill {

struct DistillTables {
  // LINK(oid_src:int64, sid_src:int32, oid_dst:int64, sid_dst:int32,
  //      wgt_fwd:double, wgt_rev:double), index by_src. The distillers
  //      read LINK only by scans; the crawler's boosts probe by_src.
  sql::Table* link = nullptr;
  // HUBS/AUTH(oid:int64, score:double), no index: the join distiller
  // reads them only by scans and merge joins, and maintains them in
  // ascending-oid heap order. NaiveDistiller brings its own pair with a
  // by_oid index (CreateNaiveScoreTables).
  sql::Table* hubs = nullptr;
  sql::Table* auth = nullptr;
  // Any table with "oid" (int64) and "relevance" (double) columns and an
  // index named "by_oid"; normally the crawler's CRAWL table.
  sql::Table* crawl = nullptr;
};

// Creates empty, unindexed HUBS and AUTH tables in `catalog` (names
// "HUBS", "AUTH").
Status CreateHubsAuthTables(sql::Catalog* catalog, DistillTables* tables);

class Distiller {
 public:
  struct Stats {
    double scan_seconds = 0;    // LINK scans
    double lookup_seconds = 0;  // per-edge index lookups (naive only)
    double update_seconds = 0;  // score writes / bulk replacement
    double join_seconds = 0;    // join+aggregate execution (join only)
    // Dangling-edge audit (join distiller's Initialize): LINK rows whose
    // endpoint has no CRAWL row. Real crawls produce these — a URL row
    // purged after its retry budget is exhausted leaves its citations
    // behind. The distiller tolerates them (the Figure 4 joins simply
    // drop such edges) and counts them here so the §3.7 admin can see
    // how much of the graph a hostile web has torn off.
    uint64_t dangling_src_edges = 0;
    uint64_t dangling_dst_edges = 0;
    // Scores clamped to 0 by ReplaceNormalized because they were not
    // finite (defensive: a pathological weight blob must not poison the
    // whole score vector through normalization).
    uint64_t nonfinite_scores = 0;
  };

  virtual ~Distiller() = default;

  // Seeds HUBS with score 1 for every distinct oid_src and clears AUTH.
  virtual Status Initialize() = 0;
  // One UpdateAuth + UpdateHubs round (Figure 4), L1-normalizing each.
  virtual Status RunIteration(double rho) = 0;

  // Initialize(), then RunIterations(options).
  Status Run(const HitsOptions& options);
  // options.iterations rounds of RunIteration(options.rho) over the
  // current HUBS, tracking residuals when enabled. Split from Run so a
  // caller can snapshot between the two (JoinDistiller::Prepare).
  Status RunIterations(const HitsOptions& options);

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  // Publishes the latest stats into `registry` (nullptr = process global)
  // as gauges labeled {distiller=name}. Gauge semantics (last write wins)
  // fit the stack-allocated distillers CrawlSession::Distill builds per
  // call: nothing to unregister when the distiller dies.
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& name) const;

  // Opt-in convergence tracking: when enabled, Run() records the L1
  // distance between successive hub-score vectors after each iteration.
  // Off by default — each residual costs an extra HUBS scan, which would
  // distort the Figure 8(d) I/O measurements.
  void EnableResidualTracking(bool on) { track_residuals_ = on; }
  const std::vector<double>& residuals() const { return residuals_; }

 protected:
  explicit Distiller(DistillTables tables) : tables_(tables) {}

  DistillTables tables_;
  Stats stats_;
  bool track_residuals_ = false;
  std::vector<double> residuals_;
};

// Reads a score table (HUBS or AUTH) into an oid -> score map.
Result<std::unordered_map<uint64_t, double>> CollectScores(
    const sql::Table* table);

}  // namespace focus::distill

#endif  // FOCUS_DISTILL_DISTILLER_H_
