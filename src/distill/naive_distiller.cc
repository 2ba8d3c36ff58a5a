#include "distill/naive_distiller.h"

#include <set>
#include <vector>

#include "util/clock.h"
#include "util/string_util.h"

namespace focus::distill {

using sql::Tuple;
using sql::Value;

Status CreateNaiveScoreTables(sql::Catalog* catalog, DistillTables* tables) {
  sql::Schema score_schema(
      {{"oid", sql::TypeId::kInt64}, {"score", sql::TypeId::kDouble}});
  std::vector<sql::IndexSpec> by_oid = {sql::IndexSpec{"by_oid", {0}, {}}};
  FOCUS_ASSIGN_OR_RETURN(
      tables->hubs, catalog->CreateTable("HUBS", score_schema, by_oid));
  FOCUS_ASSIGN_OR_RETURN(
      tables->auth, catalog->CreateTable("AUTH", score_schema, by_oid));
  return Status::OK();
}

Status NaiveDistiller::Initialize() {
  if (tables_.hubs->IndexId("by_oid") < 0 ||
      tables_.auth->IndexId("by_oid") < 0) {
    return Status::FailedPrecondition(
        "naive distiller needs HUBS and AUTH indexed by_oid "
        "(CreateNaiveScoreTables)");
  }
  crawl_oid_col_ = tables_.crawl->schema().ColumnIndex("oid");
  crawl_rel_col_ = tables_.crawl->schema().ColumnIndex("relevance");
  if (crawl_oid_col_ < 0 || crawl_rel_col_ < 0) {
    return Status::InvalidArgument(
        "crawl table must have oid and relevance columns");
  }
  // Distinct sources (hub candidates, score 1) and destinations
  // (authority candidates, score 0), in ascending oid order.
  std::set<int64_t> srcs, dsts;
  auto it = tables_.link->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    srcs.insert(row.Get(0).AsInt64());
    dsts.insert(row.Get(2).AsInt64());
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  FOCUS_RETURN_IF_ERROR(tables_.hubs->Clear());
  FOCUS_RETURN_IF_ERROR(tables_.auth->Clear());
  for (int64_t oid : srcs) {
    FOCUS_RETURN_IF_ERROR(
        tables_.hubs->Insert(Tuple({Value::Int64(oid), Value::Double(1.0)}))
            .status());
  }
  for (int64_t oid : dsts) {
    FOCUS_RETURN_IF_ERROR(
        tables_.auth->Insert(Tuple({Value::Int64(oid), Value::Double(0.0)}))
            .status());
  }
  return Status::OK();
}

Status NaiveDistiller::ZeroScores(sql::Table* table) {
  Stopwatch timer;
  auto it = table->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    row.Mutable(1) = Value::Double(0.0);
    FOCUS_RETURN_IF_ERROR(table->Update(rid, row));
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  stats_.update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status NaiveDistiller::NormalizeScores(sql::Table* table) {
  Stopwatch timer;
  double total = 0;
  {
    auto it = table->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) total += row.Get(1).AsDouble();
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  if (total > 0) {
    auto it = table->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) {
      row.Mutable(1) = Value::Double(row.Get(1).AsDouble() / total);
      FOCUS_RETURN_IF_ERROR(table->Update(rid, row));
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  stats_.update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Result<double> NaiveDistiller::LookupScore(const sql::Table* table,
                                           int64_t oid) const {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      table->IndexLookup(table->IndexId("by_oid"), {Value::Int64(oid)},
                         &rids));
  if (rids.empty()) return 0.0;
  Tuple row;
  FOCUS_RETURN_IF_ERROR(table->Get(rids[0], &row));
  return row.Get(1).AsDouble();
}

Status NaiveDistiller::AddToScore(sql::Table* table, int64_t oid,
                                  double delta) {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      table->IndexLookup(table->IndexId("by_oid"), {Value::Int64(oid)},
                         &rids));
  if (rids.empty()) {
    return Status::Internal(StrCat("score row missing for oid ", oid));
  }
  Tuple row;
  FOCUS_RETURN_IF_ERROR(table->Get(rids[0], &row));
  row.Mutable(1) = Value::Double(row.Get(1).AsDouble() + delta);
  return table->Update(rids[0], row);
}

Result<double> NaiveDistiller::LookupRelevance(int64_t oid) const {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(tables_.crawl->IndexLookup(
      tables_.crawl->IndexId("by_oid"), {Value::Int64(oid)}, &rids));
  if (rids.empty()) return 0.0;
  Tuple row;
  FOCUS_RETURN_IF_ERROR(tables_.crawl->Get(rids[0], &row));
  return row.Get(crawl_rel_col_).AsDouble();
}

Status NaiveDistiller::RunIteration(double rho) {
  // --- UpdateAuth ---
  FOCUS_RETURN_IF_ERROR(ZeroScores(tables_.auth));
  {
    auto it = tables_.link->Scan();
    storage::Rid rid;
    Tuple row;
    for (;;) {
      Stopwatch scan_timer;
      bool more = it.Next(&rid, &row);
      stats_.scan_seconds += scan_timer.ElapsedSeconds();
      if (!more) break;
      if (row.Get(1).AsInt32() == row.Get(3).AsInt32()) continue;  // nepotism
      Stopwatch lookup_timer;
      FOCUS_ASSIGN_OR_RETURN(double relevance,
                             LookupRelevance(row.Get(2).AsInt64()));
      if (relevance <= rho) {
        stats_.lookup_seconds += lookup_timer.ElapsedSeconds();
        continue;
      }
      FOCUS_ASSIGN_OR_RETURN(double hub,
                             LookupScore(tables_.hubs,
                                         row.Get(0).AsInt64()));
      stats_.lookup_seconds += lookup_timer.ElapsedSeconds();
      Stopwatch update_timer;
      FOCUS_RETURN_IF_ERROR(AddToScore(tables_.auth, row.Get(2).AsInt64(),
                                       hub * row.Get(4).AsDouble()));
      stats_.update_seconds += update_timer.ElapsedSeconds();
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  FOCUS_RETURN_IF_ERROR(NormalizeScores(tables_.auth));

  // --- UpdateHubs ---
  FOCUS_RETURN_IF_ERROR(ZeroScores(tables_.hubs));
  {
    auto it = tables_.link->Scan();
    storage::Rid rid;
    Tuple row;
    for (;;) {
      Stopwatch scan_timer;
      bool more = it.Next(&rid, &row);
      stats_.scan_seconds += scan_timer.ElapsedSeconds();
      if (!more) break;
      if (row.Get(1).AsInt32() == row.Get(3).AsInt32()) continue;
      Stopwatch lookup_timer;
      FOCUS_ASSIGN_OR_RETURN(double auth,
                             LookupScore(tables_.auth,
                                         row.Get(2).AsInt64()));
      stats_.lookup_seconds += lookup_timer.ElapsedSeconds();
      Stopwatch update_timer;
      FOCUS_RETURN_IF_ERROR(AddToScore(tables_.hubs, row.Get(0).AsInt64(),
                                       auth * row.Get(5).AsDouble()));
      stats_.update_seconds += update_timer.ElapsedSeconds();
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  return NormalizeScores(tables_.hubs);
}

}  // namespace focus::distill
