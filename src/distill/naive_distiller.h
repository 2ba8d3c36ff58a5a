// Naive distillation: per-edge index lookups and in-place score updates
// (the "Index" bars of Figure 8(d)).
#ifndef FOCUS_DISTILL_NAIVE_DISTILLER_H_
#define FOCUS_DISTILL_NAIVE_DISTILLER_H_

#include "distill/distiller.h"

namespace focus::distill {

// Creates empty HUBS and AUTH tables (names "HUBS", "AUTH") with the
// by_oid index the naive distiller probes per edge. The join distiller
// needs no index; production code uses CreateHubsAuthTables.
Status CreateNaiveScoreTables(sql::Catalog* catalog, DistillTables* tables);

class NaiveDistiller final : public Distiller {
 public:
  explicit NaiveDistiller(DistillTables tables) : Distiller(tables) {}

  // FailedPrecondition, before any row is touched, when HUBS or AUTH has
  // no by_oid index (e.g. tables from CreateHubsAuthTables).
  Status Initialize() override;
  Status RunIteration(double rho) override;

 private:
  // Sets every score in `table` to value (or scales by 1/total).
  Status ZeroScores(sql::Table* table);
  Status NormalizeScores(sql::Table* table);
  // Probes `table`'s by_oid index; 0 when absent.
  Result<double> LookupScore(const sql::Table* table, int64_t oid) const;
  // Adds delta to the row with `oid` (which must exist).
  Status AddToScore(sql::Table* table, int64_t oid, double delta);
  Result<double> LookupRelevance(int64_t oid) const;

  int crawl_oid_col_ = -1;
  int crawl_rel_col_ = -1;
};

}  // namespace focus::distill

#endif  // FOCUS_DISTILL_NAIVE_DISTILLER_H_
