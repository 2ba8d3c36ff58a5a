#include "distill/join_distiller.h"

#include <algorithm>
#include <cmath>

#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/join.h"
#include "sql/exec/scan.h"
#include "sql/exec/external_sort.h"
#include "sql/exec/sort.h"
#include "util/clock.h"

namespace focus::distill {

using sql::AggKind;
using sql::AggSpec;
using sql::Collect;
using sql::Filter;
using sql::HashAggregate;
using sql::HashJoin;
using sql::MergeJoin;
using sql::OperatorPtr;
using sql::ProjExpr;
using sql::Project;
using sql::ExternalSort;
using sql::SeqScan;
using sql::SortKey;
using sql::Tuple;
using sql::TypeId;
using sql::Value;

namespace {
// LINK rows with sid_src <> sid_dst (the nepotism filter). `plan` may be
// null (no instrumentation).
OperatorPtr OffServerLinks(const sql::Table* link, sql::PlanStats* plan) {
  return sql::Analyze(
      plan, "Filter sid_src<>sid_dst",
      std::make_unique<Filter>(
          sql::Analyze(plan, "SeqScan LINK", std::make_unique<SeqScan>(link)),
          [](const Tuple& t) {
            return t.Get(1).AsInt32() != t.Get(3).AsInt32();
          }));
}

// The batch-engine counterpart. LINK: 0 oid_src, 1 sid_src, 2 oid_dst,
// 3 sid_dst, 4 wgt_fwd, 5 wgt_rev.
sql::BatchOperatorPtr BatchOffServerLinks(const sql::Table* link,
                                          sql::PlanStats* plan) {
  auto pred = [](const sql::Batch& in, std::vector<int64_t>* sel) {
    const auto& src = in.col(1).i32;
    const auto& dst = in.col(3).i32;
    for (size_t i = 0; i < src.size(); ++i) {
      if (src[i] != dst[i]) sel->push_back(static_cast<int64_t>(i));
    }
  };
  sql::BatchOperatorPtr scan =
      sql::AnalyzeBatch(plan, "BatchTableScan LINK",
                        std::make_unique<sql::BatchTableScan>(link));
  return sql::AnalyzeBatch(
      plan, "BatchFilter sid_src<>sid_dst",
      std::make_unique<sql::BatchFilter>(std::move(scan), pred));
}
}  // namespace

Status JoinDistiller::Initialize() {
  links_by_dst_ = sql::ColumnSet();
  eligible_by_src_ = sql::ColumnSet();
  crawl_oid_col_ = tables_.crawl->schema().ColumnIndex("oid");
  crawl_rel_col_ = tables_.crawl->schema().ColumnIndex("relevance");
  if (crawl_oid_col_ < 0 || crawl_rel_col_ < 0) {
    return Status::InvalidArgument(
        "crawl table must have oid and relevance columns");
  }
  std::vector<int64_t> srcs;  // distinct oid_src, ascending
  if (engine_ == sql::ExecEngine::kScalar) {
    Stopwatch join_timer;
    // Distinct sources in ascending order, via group-by over LINK.
    HashAggregate distinct_srcs(
        std::make_unique<SeqScan>(tables_.link), std::vector<int>{0},
        std::vector<AggSpec>{AggSpec{AggKind::kCount, -1, "cnt"}});
    FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(&distinct_srcs));
    stats_.join_seconds += join_timer.ElapsedSeconds();
    srcs.reserve(rows.size());
    for (const Tuple& row : rows) srcs.push_back(row.Get(0).AsInt64());
    FOCUS_RETURN_IF_ERROR(AuditDanglingEdges());
  } else {
    FOCUS_ASSIGN_OR_RETURN(srcs, SourcesAndDanglingEdgesVec());
  }

  Stopwatch update_timer;
  FOCUS_RETURN_IF_ERROR(tables_.hubs->Clear());
  FOCUS_RETURN_IF_ERROR(tables_.auth->Clear());
  for (int64_t src : srcs) {
    FOCUS_RETURN_IF_ERROR(
        tables_.hubs->Insert(Tuple({Value::Int64(src), Value::Double(1.0)}))
            .status());
  }
  stats_.update_seconds += update_timer.ElapsedSeconds();
  return Status::OK();
}

Result<std::vector<int64_t>> JoinDistiller::SourcesAndDanglingEdgesVec() {
  Stopwatch scan_timer;
  // CRAWL's oid set, sorted; then LINK's (oid_src, oid_dst) in one pass.
  sql::BatchTableScan crawl_scan(tables_.crawl, {crawl_oid_col_});
  sql::ColumnSet crawl_cols;
  FOCUS_RETURN_IF_ERROR(sql::CollectInto(&crawl_scan, &crawl_cols));
  std::vector<int64_t> known = crawl_cols.col(0).i64;
  std::sort(known.begin(), known.end());
  sql::BatchTableScan link_scan(tables_.link, {0, 2});
  sql::ColumnSet link_cols;
  FOCUS_RETURN_IF_ERROR(sql::CollectInto(&link_scan, &link_cols));
  const std::vector<int64_t>& src = link_cols.col(0).i64;
  const std::vector<int64_t>& dst = link_cols.col(1).i64;
  auto in_crawl = [&known](int64_t oid) {
    return std::binary_search(known.begin(), known.end(), oid);
  };
  stats_.dangling_src_edges = 0;
  stats_.dangling_dst_edges = 0;
  for (size_t i = 0; i < src.size(); ++i) {
    if (!in_crawl(src[i])) ++stats_.dangling_src_edges;
    if (!in_crawl(dst[i])) ++stats_.dangling_dst_edges;
  }
  std::vector<int64_t> srcs = src;
  std::sort(srcs.begin(), srcs.end());
  srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
  stats_.scan_seconds += scan_timer.ElapsedSeconds();
  return srcs;
}

Status JoinDistiller::AuditDanglingEdges() {
  // A crawl that purges exhausted URL rows (or recovers from a crash that
  // lost the tail of a batch) leaves LINK edges whose endpoint has no
  // CRAWL row. The Figure 4 joins drop those edges silently; this pass
  // makes the loss visible. One LINK scan with memoized by_oid probes.
  stats_.dangling_src_edges = 0;
  stats_.dangling_dst_edges = 0;
  int by_oid = tables_.crawl->IndexId("by_oid");
  if (by_oid < 0) return Status::OK();  // contract violation; stay silent
  Stopwatch scan_timer;
  std::unordered_map<int64_t, bool> known;
  auto in_crawl = [&](int64_t oid) -> Result<bool> {
    auto it = known.find(oid);
    if (it != known.end()) return it->second;
    std::vector<storage::Rid> rids;
    FOCUS_RETURN_IF_ERROR(
        tables_.crawl->IndexLookup(by_oid, {Value::Int64(oid)}, &rids));
    return known.emplace(oid, !rids.empty()).first->second;
  };
  auto it = tables_.link->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    FOCUS_ASSIGN_OR_RETURN(bool src_known, in_crawl(row.Get(0).AsInt64()));
    FOCUS_ASSIGN_OR_RETURN(bool dst_known, in_crawl(row.Get(2).AsInt64()));
    if (!src_known) ++stats_.dangling_src_edges;
    if (!dst_known) ++stats_.dangling_dst_edges;
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  stats_.scan_seconds += scan_timer.ElapsedSeconds();
  return Status::OK();
}

Status JoinDistiller::ReplaceNormalized(sql::Table* table,
                                        const std::vector<Tuple>& rows) {
  Stopwatch timer;
  double total = 0;
  for (const Tuple& row : rows) {
    double score = row.Get(1).AsNumeric();
    if (std::isfinite(score)) total += score;
  }
  FOCUS_RETURN_IF_ERROR(table->Clear());
  for (const Tuple& row : rows) {
    double score = row.Get(1).AsNumeric();
    // A non-finite contribution (corrupt weight, overflow) is clamped to
    // 0 and counted rather than allowed to turn the entire normalized
    // vector into NaN.
    if (!std::isfinite(score)) {
      ++stats_.nonfinite_scores;
      score = 0;
    } else if (total > 0) {
      score /= total;
    }
    FOCUS_RETURN_IF_ERROR(
        table->Insert(Tuple({row.Get(0), Value::Double(score)})).status());
  }
  stats_.update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status JoinDistiller::UpdateAuth(double rho) {
  Stopwatch join_timer;
  // Relevant pages: select oid from CRAWL where relevance > rho.
  int rel_col = crawl_rel_col_;
  int oid_col = crawl_oid_col_;
  OperatorPtr relevant = sql::Analyze(
      plan_, "Project oid",
      std::make_unique<Project>(
          sql::Analyze(
              plan_, "Filter relevance>rho",
              std::make_unique<Filter>(
                  sql::Analyze(plan_, "SeqScan CRAWL",
                               std::make_unique<SeqScan>(tables_.crawl)),
                  [rel_col, rho](const Tuple& t) {
                    return t.Get(rel_col).AsDouble() > rho;
                  })),
          std::vector<ProjExpr>{ProjExpr{"oid", TypeId::kInt64,
                                         [oid_col](const Tuple& t) {
                                           return t.Get(oid_col);
                                         }}}));
  // Eligible links: off-server links whose destination is relevant.
  OperatorPtr eligible = sql::Analyze(
      plan_, "HashJoin relevant~LINK",
      std::make_unique<HashJoin>(std::move(relevant),
                                 OffServerLinks(tables_.link, plan_),
                                 std::vector<int>{0}, std::vector<int>{2}));
  // eligible: 0 oid, 1 oid_src, 2 sid_src, 3 oid_dst, 4 sid_dst,
  //           5 wgt_fwd, 6 wgt_rev
  // External sort: spills through the same buffer pool when the eligible
  // link set outgrows the memory budget, as DB2's sort would.
  OperatorPtr by_src = sql::Analyze(
      plan_, "ExternalSort by oid_src",
      std::make_unique<ExternalSort>(std::move(eligible),
                                     std::vector<SortKey>{{1, false}},
                                     tables_.link->buffer_pool()));
  // HUBS is maintained in ascending-oid heap order: merge join directly.
  OperatorPtr with_hub = sql::Analyze(
      plan_, "MergeJoin links~HUBS",
      std::make_unique<MergeJoin>(
          std::move(by_src),
          sql::Analyze(plan_, "SeqScan HUBS",
                       std::make_unique<SeqScan>(tables_.hubs)),
          std::vector<int>{1}, std::vector<int>{0}));
  // with_hub: ..., 7 oid(hub), 8 score
  OperatorPtr contrib = sql::Analyze(
      plan_, "Project oid_dst,score*wgt_fwd",
      std::make_unique<Project>(
          std::move(with_hub),
          std::vector<ProjExpr>{
              ProjExpr{"oid_dst", TypeId::kInt64,
                       [](const Tuple& t) { return t.Get(3); }},
              ProjExpr{"w", TypeId::kDouble,
                       [](const Tuple& t) {
                         return Value::Double(t.Get(8).AsDouble() *
                                              t.Get(5).AsDouble());
                       }}}));
  OperatorPtr agg = sql::Analyze(
      plan_, "UpdateAuth: HashAggregate(oid_dst, sum)",
      std::make_unique<HashAggregate>(
          std::move(contrib), std::vector<int>{0},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 1, "score"}}));
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(agg.get()));
  stats_.join_seconds += join_timer.ElapsedSeconds();
  return ReplaceNormalized(tables_.auth, rows);
}

Status JoinDistiller::UpdateHubs() {
  Stopwatch join_timer;
  OperatorPtr by_dst = sql::Analyze(
      plan_, "ExternalSort by oid_dst",
      std::make_unique<ExternalSort>(OffServerLinks(tables_.link, plan_),
                                     std::vector<SortKey>{{2, false}},
                                     tables_.link->buffer_pool()));
  // AUTH is in ascending-oid heap order (ReplaceNormalized preserved the
  // aggregate's order).
  OperatorPtr with_auth = sql::Analyze(
      plan_, "MergeJoin links~AUTH",
      std::make_unique<MergeJoin>(
          std::move(by_dst),
          sql::Analyze(plan_, "SeqScan AUTH",
                       std::make_unique<SeqScan>(tables_.auth)),
          std::vector<int>{2}, std::vector<int>{0}));
  // with_auth: 0 oid_src .. 5 wgt_rev, 6 oid(auth), 7 score
  OperatorPtr contrib = sql::Analyze(
      plan_, "Project oid_src,score*wgt_rev",
      std::make_unique<Project>(
          std::move(with_auth),
          std::vector<ProjExpr>{
              ProjExpr{"oid_src", TypeId::kInt64,
                       [](const Tuple& t) { return t.Get(0); }},
              ProjExpr{"w", TypeId::kDouble,
                       [](const Tuple& t) {
                         return Value::Double(t.Get(7).AsDouble() *
                                              t.Get(5).AsDouble());
                       }}}));
  OperatorPtr agg = sql::Analyze(
      plan_, "UpdateHubs: HashAggregate(oid_src, sum)",
      std::make_unique<HashAggregate>(
          std::move(contrib), std::vector<int>{0},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 1, "score"}}));
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(agg.get()));
  stats_.join_seconds += join_timer.ElapsedSeconds();
  return ReplaceNormalized(tables_.hubs, rows);
}

sql::BatchOperatorPtr JoinDistiller::OffServerLinksByDst() {
  sql::BatchOperatorPtr fill;
  if (links_by_dst_.num_columns() == 0) {
    fill = sql::AnalyzeBatch(
        plan_, "BatchSort by oid_dst",
        std::make_unique<sql::BatchSort>(
            BatchOffServerLinks(tables_.link, plan_),
            std::vector<SortKey>{{2, false}}));
  }
  return sql::AnalyzeBatch(
      plan_, "BatchMaterialize LINK by oid_dst",
      std::make_unique<sql::BatchMaterialize>(&links_by_dst_,
                                              std::move(fill)));
}

sql::BatchOperatorPtr JoinDistiller::EligibleLinksBySrc(double rho) {
  sql::BatchOperatorPtr fill;
  if (eligible_by_src_.num_columns() == 0 || eligible_rho_ != rho) {
    eligible_by_src_ = sql::ColumnSet();
    eligible_rho_ = rho;
    // Relevant pages, pruned at the scan: CRAWL carries URL strings the
    // plan never reads, so the batch scan copies only (oid, relevance).
    sql::BatchOperatorPtr crawl_scan = sql::AnalyzeBatch(
        plan_, "BatchTableScan CRAWL(oid,relevance)",
        std::make_unique<sql::BatchTableScan>(
            tables_.crawl,
            std::vector<int>{crawl_oid_col_, crawl_rel_col_}));
    sql::BatchOperatorPtr filtered = sql::AnalyzeBatch(
        plan_, "BatchFilter relevance>rho",
        std::make_unique<sql::BatchFilter>(
            std::move(crawl_scan),
            [rho](const sql::Batch& in, std::vector<int64_t>* sel) {
              const auto& rel = in.col(1).f64;
              for (size_t i = 0; i < rel.size(); ++i) {
                if (rel[i] > rho) sel->push_back(static_cast<int64_t>(i));
              }
            }));
    sql::BatchOperatorPtr projected = sql::AnalyzeBatch(
        plan_, "BatchProject oid",
        std::make_unique<sql::BatchProject>(
            std::move(filtered),
            std::vector<sql::BatchExpr>{
                sql::BatchExpr::Passthrough("oid", TypeId::kInt64, 0)}));
    sql::BatchOperatorPtr relevant = sql::AnalyzeBatch(
        plan_, "BatchSort relevant by oid",
        std::make_unique<sql::BatchSort>(std::move(projected),
                                         std::vector<SortKey>{{0, false}}));
    // Eligible links: off-server links whose destination is relevant, via
    // merge join on oid_dst.
    sql::BatchOperatorPtr eligible = sql::AnalyzeBatch(
        plan_, "BatchMergeJoin LINK~relevant",
        std::make_unique<sql::BatchMergeJoin>(
            OffServerLinksByDst(), std::move(relevant), std::vector<int>{2},
            std::vector<int>{0}));
    fill = sql::AnalyzeBatch(
        plan_, "BatchSort by oid_src",
        std::make_unique<sql::BatchSort>(std::move(eligible),
                                         std::vector<SortKey>{{0, false}}));
  }
  // eligible: 0 oid_src, 1 sid_src, 2 oid_dst, 3 sid_dst, 4 wgt_fwd,
  //           5 wgt_rev, 6 oid(relevant)
  return sql::AnalyzeBatch(
      plan_, "BatchMaterialize eligible by oid_src",
      std::make_unique<sql::BatchMaterialize>(&eligible_by_src_,
                                              std::move(fill)));
}

Status JoinDistiller::UpdateAuthVec(double rho) {
  Stopwatch join_timer;
  sql::BatchOperatorPtr by_src = EligibleLinksBySrc(rho);
  // HUBS is maintained in ascending-oid heap order: merge join directly.
  sql::BatchOperatorPtr hubs_scan =
      sql::AnalyzeBatch(plan_, "BatchTableScan HUBS",
                        std::make_unique<sql::BatchTableScan>(tables_.hubs));
  sql::BatchOperatorPtr with_hub = sql::AnalyzeBatch(
      plan_, "BatchMergeJoin links~HUBS",
      std::make_unique<sql::BatchMergeJoin>(
          std::move(by_src), std::move(hubs_scan), std::vector<int>{0},
          std::vector<int>{0}));
  // with_hub: ..., 7 oid(hub), 8 score
  sql::BatchOperatorPtr contrib = sql::AnalyzeBatch(
      plan_, "BatchProject oid_dst,score*wgt_fwd",
      std::make_unique<sql::BatchProject>(
          std::move(with_hub),
          std::vector<sql::BatchExpr>{
              sql::BatchExpr::Passthrough("oid_dst", TypeId::kInt64, 2),
              sql::BatchExpr{"w", TypeId::kDouble,
                             [](const sql::Batch& in) {
                               const auto& wgt = in.col(4).f64;
                               const auto& score = in.col(8).f64;
                               sql::ColumnPtr out =
                                   sql::NewColumn(TypeId::kDouble);
                               out->f64.reserve(wgt.size());
                               for (size_t i = 0; i < wgt.size(); ++i) {
                                 out->f64.push_back(score[i] * wgt[i]);
                               }
                               return out;
                             }}}));
  // Sorting (stably) by oid_dst keeps the oid_src arrival order within
  // each group, so the sum order matches the scalar plan's.
  sql::BatchOperatorPtr agg = sql::AnalyzeBatch(
      plan_, "UpdateAuth: BatchSortAggregate(oid_dst, sum)",
      std::make_unique<sql::BatchSortAggregate>(
          std::move(contrib), std::vector<SortKey>{{0, false}},
          std::vector<int>{0},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 1, "score"}}));
  sql::Devectorize tail(std::move(agg));
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(&tail));
  stats_.join_seconds += join_timer.ElapsedSeconds();
  return ReplaceNormalized(tables_.auth, rows);
}

Status JoinDistiller::UpdateHubsVec() {
  Stopwatch join_timer;
  sql::BatchOperatorPtr by_dst = OffServerLinksByDst();
  // AUTH is in ascending-oid heap order (ReplaceNormalized preserved the
  // aggregate's order).
  sql::BatchOperatorPtr auth_scan =
      sql::AnalyzeBatch(plan_, "BatchTableScan AUTH",
                        std::make_unique<sql::BatchTableScan>(tables_.auth));
  sql::BatchOperatorPtr with_auth = sql::AnalyzeBatch(
      plan_, "BatchMergeJoin links~AUTH",
      std::make_unique<sql::BatchMergeJoin>(
          std::move(by_dst), std::move(auth_scan), std::vector<int>{2},
          std::vector<int>{0}));
  // with_auth: 0 oid_src .. 5 wgt_rev, 6 oid(auth), 7 score
  sql::BatchOperatorPtr contrib = sql::AnalyzeBatch(
      plan_, "BatchProject oid_src,score*wgt_rev",
      std::make_unique<sql::BatchProject>(
          std::move(with_auth),
          std::vector<sql::BatchExpr>{
              sql::BatchExpr::Passthrough("oid_src", TypeId::kInt64, 0),
              sql::BatchExpr{"w", TypeId::kDouble,
                             [](const sql::Batch& in) {
                               const auto& wgt = in.col(5).f64;
                               const auto& score = in.col(7).f64;
                               sql::ColumnPtr out =
                                   sql::NewColumn(TypeId::kDouble);
                               out->f64.reserve(wgt.size());
                               for (size_t i = 0; i < wgt.size(); ++i) {
                                 out->f64.push_back(score[i] * wgt[i]);
                               }
                               return out;
                             }}}));
  sql::BatchOperatorPtr agg = sql::AnalyzeBatch(
      plan_, "UpdateHubs: BatchSortAggregate(oid_src, sum)",
      std::make_unique<sql::BatchSortAggregate>(
          std::move(contrib), std::vector<SortKey>{{0, false}},
          std::vector<int>{0},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 1, "score"}}));
  sql::Devectorize tail(std::move(agg));
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(&tail));
  stats_.join_seconds += join_timer.ElapsedSeconds();
  return ReplaceNormalized(tables_.hubs, rows);
}

Status JoinDistiller::Prepare(double rho) {
  if (engine_ == sql::ExecEngine::kScalar) {
    return Status::FailedPrecondition("only the batch engine snapshots");
  }
  // Opening the eligible set drains its fill, which opens (and builds)
  // the off-server set beneath it.
  return EligibleLinksBySrc(rho)->Open();
}

Status JoinDistiller::RunIteration(double rho) {
  if (engine_ == sql::ExecEngine::kScalar) {
    FOCUS_RETURN_IF_ERROR(UpdateAuth(rho));
    return UpdateHubs();
  }
  FOCUS_RETURN_IF_ERROR(UpdateAuthVec(rho));
  return UpdateHubsVec();
}

Status JoinDistiller::RunIterationWithPlan(double rho,
                                           sql::PlanStats* plan) {
  plan_ = plan;
  Status s = RunIteration(rho);
  plan_ = nullptr;
  return s;
}

}  // namespace focus::distill
