#include "distill/distiller.h"

#include <cmath>

namespace focus::distill {

using sql::Schema;
using sql::Tuple;
using sql::TypeId;

Status CreateHubsAuthTables(sql::Catalog* catalog, DistillTables* tables) {
  Schema score_schema({{"oid", TypeId::kInt64}, {"score", TypeId::kDouble}});
  FOCUS_ASSIGN_OR_RETURN(tables->hubs,
                         catalog->CreateTable("HUBS", score_schema));
  FOCUS_ASSIGN_OR_RETURN(tables->auth,
                         catalog->CreateTable("AUTH", score_schema));
  return Status::OK();
}

namespace {

// L1 distance over the union of keys (missing key = score 0).
double L1Residual(const std::unordered_map<uint64_t, double>& a,
                  const std::unordered_map<uint64_t, double>& b) {
  double d = 0;
  for (const auto& [oid, score] : a) {
    auto it = b.find(oid);
    d += std::abs(score - (it == b.end() ? 0.0 : it->second));
  }
  for (const auto& [oid, score] : b) {
    if (!a.contains(oid)) d += std::abs(score);
  }
  return d;
}

}  // namespace

void Distiller::ExportMetrics(obs::MetricsRegistry* registry,
                              const std::string& name) const {
  registry = obs::MetricsRegistry::OrGlobal(registry);
  registry
      ->GetGauge("focus_distill_dangling_edges",
                 {{"distiller", name}, {"endpoint", "src"}})
      ->Set(static_cast<double>(stats_.dangling_src_edges));
  registry
      ->GetGauge("focus_distill_dangling_edges",
                 {{"distiller", name}, {"endpoint", "dst"}})
      ->Set(static_cast<double>(stats_.dangling_dst_edges));
  registry
      ->GetGauge("focus_distill_nonfinite_scores", {{"distiller", name}})
      ->Set(static_cast<double>(stats_.nonfinite_scores));
}

Status Distiller::Run(const HitsOptions& options) {
  FOCUS_RETURN_IF_ERROR(Initialize());
  return RunIterations(options);
}

Status Distiller::RunIterations(const HitsOptions& options) {
  std::unordered_map<uint64_t, double> prev;
  if (track_residuals_) {
    residuals_.clear();
    FOCUS_ASSIGN_OR_RETURN(prev, CollectScores(tables_.hubs));
  }
  for (int i = 0; i < options.iterations; ++i) {
    FOCUS_RETURN_IF_ERROR(RunIteration(options.rho));
    if (track_residuals_) {
      FOCUS_ASSIGN_OR_RETURN(auto cur, CollectScores(tables_.hubs));
      residuals_.push_back(L1Residual(prev, cur));
      prev = std::move(cur);
    }
  }
  return Status::OK();
}

Result<std::unordered_map<uint64_t, double>> CollectScores(
    const sql::Table* table) {
  std::unordered_map<uint64_t, double> out;
  auto it = table->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    out[static_cast<uint64_t>(row.Get(0).AsInt64())] = row.Get(1).AsDouble();
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  return out;
}

}  // namespace focus::distill
