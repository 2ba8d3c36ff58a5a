#include "classify/bulk_probe.h"

#include <map>
#include <unordered_set>

#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/batch_ops.h"
#include "sql/exec/join.h"
#include "sql/exec/scan.h"
#include "sql/exec/sort.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace focus::classify {

using sql::AggKind;
using sql::AggSpec;
using sql::Collect;
using sql::Filter;
using sql::HashAggregate;
using sql::HashJoin;
using sql::MergeJoin;
using sql::NestedLoopJoin;
using sql::Operator;
using sql::OperatorPtr;
using sql::ProjExpr;
using sql::Project;
using sql::SeqScan;
using sql::Sort;
using sql::SortKey;
using sql::Tuple;
using sql::TypeId;
using sql::Value;

Status BulkProbeClassifier::BulkProbeNode(
    taxonomy::Cid c0, const sql::Schema& doc_schema,
    const std::vector<sql::Tuple>& doc_sorted,
    std::unordered_map<uint64_t, std::vector<double>>* acc,
    Call* call) const {
  auto it = tables_->stat.find(c0);
  if (it == tables_->stat.end()) {
    return Status::Internal(StrCat("no STAT table for node ", c0));
  }
  const sql::Table* stat = it->second;
  const auto& children = ref_->tax().Children(c0);
  std::unordered_map<taxonomy::Cid, int> child_index;
  for (size_t i = 0; i < children.size(); ++i) {
    child_index[children[i]] = static_cast<int>(i);
  }

  Stopwatch join_timer;

  // PARTIAL(did, kcid, lpr1): DOCUMENT ⋈_tid STAT_c0 ⋈_kcid TAXONOMY,
  // group by (did, kcid), sum(freq * (logtheta + logdenom)).
  OperatorPtr doc_by_tid = sql::Analyze(
      call->plan, "BorrowedSource DOCUMENT(sorted)",
      std::make_unique<sql::BorrowedSource>(doc_schema, &doc_sorted));
  // STAT_c0's heap is already in (tid, kcid) order.
  OperatorPtr stat_scan = sql::Analyze(call->plan, "SeqScan STAT",
                                       std::make_unique<SeqScan>(stat));
  OperatorPtr joined = sql::Analyze(
      call->plan, "MergeJoin DOCUMENT~STAT",
      std::make_unique<MergeJoin>(std::move(doc_by_tid),
                                  std::move(stat_scan), std::vector<int>{1},
                                  std::vector<int>{1}));
  // joined: 0 did, 1 tid, 2 freq, 3 kcid, 4 tid, 5 logtheta
  OperatorPtr tax_children = sql::Analyze(
      call->plan, "IndexScanEq TAXONOMY by_pcid",
      std::make_unique<sql::IndexScanEq>(
          tables_->taxonomy, tables_->taxonomy->IndexId("by_pcid"),
          std::vector<Value>{Value::Int32(c0)}));
  OperatorPtr with_denom = sql::Analyze(
      call->plan, "HashJoin TAXONOMY~joined",
      std::make_unique<HashJoin>(std::move(tax_children), std::move(joined),
                                 std::vector<int>{1}, std::vector<int>{3}));
  // with_denom: 0 pcid, 1 kcid, 2 logprior, 3 logdenom, 4 type, 5 name,
  //             6 did, 7 tid, 8 freq, 9 kcid, 10 tid, 11 logtheta
  OperatorPtr contrib = sql::Analyze(
      call->plan, "Project did,kcid,contrib",
      std::make_unique<Project>(
          std::move(with_denom),
          std::vector<ProjExpr>{
              ProjExpr{"did", TypeId::kInt64,
                       [](const Tuple& t) { return t.Get(6); }},
              ProjExpr{"kcid", TypeId::kInt32,
                       [](const Tuple& t) { return t.Get(1); }},
              ProjExpr{"contrib", TypeId::kDouble,
                       [](const Tuple& t) {
                         return Value::Double(
                             t.Get(8).AsInt32() *
                             (t.Get(11).AsDouble() + t.Get(3).AsDouble()));
                       }}}));
  OperatorPtr partial_op = sql::Analyze(
      call->plan, "HashAggregate PARTIAL(did,kcid)",
      std::make_unique<HashAggregate>(
          std::move(contrib), std::vector<int>{0, 1},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 2, "lpr1"}}));
  // Ascending (did, kcid) by construction (ordered aggregation output).

  // DOCLEN(did, len): DOCUMENT restricted to F(c0), grouped by did.
  OperatorPtr features = sql::Analyze(
      call->plan, "HashAggregate features(tid)",
      std::make_unique<HashAggregate>(
          sql::Analyze(call->plan, "SeqScan STAT",
                       std::make_unique<SeqScan>(stat)),
          std::vector<int>{1},
          std::vector<AggSpec>{AggSpec{AggKind::kCount, -1, "cnt"}}));
  OperatorPtr doc_by_tid2 = sql::Analyze(
      call->plan, "BorrowedSource DOCUMENT(sorted)",
      std::make_unique<sql::BorrowedSource>(doc_schema, &doc_sorted));
  OperatorPtr doc_features = sql::Analyze(
      call->plan, "MergeJoin DOCUMENT~features",
      std::make_unique<MergeJoin>(std::move(doc_by_tid2),
                                  std::move(features), std::vector<int>{1},
                                  std::vector<int>{0}));
  // doc_features: 0 did, 1 tid, 2 freq, 3 tid, 4 cnt
  OperatorPtr doclen_op = sql::Analyze(
      call->plan, "HashAggregate DOCLEN(did)",
      std::make_unique<HashAggregate>(
          std::move(doc_features), std::vector<int>{0},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 2, "len"}}));

  // COMPLETE(did, kcid, lpr2): DOCLEN × children(c0), -len * logdenom.
  OperatorPtr tax_children2 = sql::Analyze(
      call->plan, "IndexScanEq TAXONOMY by_pcid",
      std::make_unique<sql::IndexScanEq>(
          tables_->taxonomy, tables_->taxonomy->IndexId("by_pcid"),
          std::vector<Value>{Value::Int32(c0)}));
  OperatorPtr cross = sql::Analyze(
      call->plan, "NestedLoopJoin DOCLEN×children",
      std::make_unique<NestedLoopJoin>(
          std::move(doclen_op), std::move(tax_children2),
          [](const Tuple&, const Tuple&) { return true; }));
  // cross: 0 did, 1 len, 2 pcid, 3 kcid, 4 logprior, 5 logdenom, ...
  OperatorPtr complete_op = sql::Analyze(
      call->plan, "Project COMPLETE",
      std::make_unique<Project>(
          std::move(cross),
          std::vector<ProjExpr>{
              ProjExpr{"did", TypeId::kInt64,
                       [](const Tuple& t) { return t.Get(0); }},
              ProjExpr{"kcid", TypeId::kInt32,
                       [](const Tuple& t) { return t.Get(3); }},
              ProjExpr{"lpr2", TypeId::kDouble,
                       [](const Tuple& t) {
                         return Value::Double(-t.Get(1).AsInt64() *
                                              t.Get(5).AsDouble());
                       }}}));
  // Children arrive in ascending kcid order from the index scan only if
  // TAXONOMY rows were inserted in cid order (they were), but sort
  // explicitly to keep the merge-join precondition independent of that.
  OperatorPtr complete_sorted = sql::Analyze(
      call->plan, "Sort COMPLETE (did,kcid)",
      std::make_unique<Sort>(std::move(complete_op),
                             std::vector<SortKey>{{0, false}, {1, false}}));

  // final: COMPLETE left outer join PARTIAL on (did, kcid).
  OperatorPtr final_join = sql::Analyze(
      call->plan,
      StrCat("BulkProbeNode c0=", c0, ": MergeJoin COMPLETE~PARTIAL"),
      std::make_unique<MergeJoin>(std::move(complete_sorted),
                                  std::move(partial_op),
                                  std::vector<int>{0, 1},
                                  std::vector<int>{0, 1},
                                  /*left_outer=*/true));
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(final_join.get()));
  call->stats.join_seconds += join_timer.ElapsedSeconds();

  Stopwatch finalize_timer;
  // rows: 0 did, 1 kcid, 2 lpr2, 3 did, 4 kcid, 5 lpr1(or NULL)
  for (const Tuple& row : rows) {
    uint64_t did = static_cast<uint64_t>(row.Get(0).AsInt64());
    taxonomy::Cid kcid = static_cast<taxonomy::Cid>(row.Get(1).AsInt32());
    double lpr = row.Get(2).AsDouble() +
                 (row.Get(5).is_null() ? 0.0 : row.Get(5).AsDouble());
    if (!row.Get(5).is_null()) ++call->stats.partial_rows;
    auto [entry, inserted] = acc->try_emplace(did);
    if (inserted) entry->second.assign(children.size(), 0.0);
    entry->second[child_index.at(kcid)] = lpr;
  }
  call->stats.output_rows += rows.size();
  call->stats.finalize_seconds += finalize_timer.ElapsedSeconds();
  return Status::OK();
}

Status BulkProbeClassifier::BulkProbeNodeVec(
    taxonomy::Cid c0, const sql::ColumnSet& doc_sorted,
    std::unordered_map<uint64_t, std::vector<double>>* acc,
    Call* call) const {
  auto it = tables_->stat.find(c0);
  if (it == tables_->stat.end()) {
    return Status::Internal(StrCat("no STAT table for node ", c0));
  }
  const sql::Table* stat = it->second;
  const auto& children = ref_->tax().Children(c0);
  std::unordered_map<taxonomy::Cid, int> child_index;
  for (size_t i = 0; i < children.size(); ++i) {
    child_index[children[i]] = static_cast<int>(i);
  }

  Stopwatch join_timer;

  // children(c0) from TAXONOMY, collected once per node: the kcid ->
  // logdenom lookup folds the scalar plan's HashJoin TAXONOMY~joined into
  // the contrib expression.
  sql::IndexScanEq tax_scan(tables_->taxonomy,
                            tables_->taxonomy->IndexId("by_pcid"),
                            std::vector<Value>{Value::Int32(c0)});
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> tax_rows, Collect(&tax_scan));
  auto logdenom = std::make_shared<std::unordered_map<int32_t, double>>();
  for (const Tuple& row : tax_rows) {
    logdenom->emplace(row.Get(1).AsInt32(), row.Get(3).AsDouble());
  }

  // PARTIAL(did, kcid, lpr1): DOCUMENT ⋈_tid STAT_c0, contrib expression,
  // sort, aggregate over sorted runs. The stable sort keeps the merge
  // join's arrival order within each (did, kcid) group, so the floating
  // accumulation order matches the scalar HashAggregate's exactly.
  // STAT_c0 feeds both the PARTIAL join and the feature-count aggregate;
  // one scan materializes it into columns so the heap pages are decoded
  // once per node (columnar materialization is cheap for this engine).
  sql::ColumnSet stat_cols;
  {
    sql::BatchOperatorPtr scan_once =
        sql::AnalyzeBatch(call->plan, "BatchTableScan STAT",
                          std::make_unique<sql::BatchTableScan>(stat));
    FOCUS_RETURN_IF_ERROR(sql::CollectInto(scan_once.get(), &stat_cols));
  }

  sql::BatchOperatorPtr doc_src = sql::AnalyzeBatch(
      call->plan, "BatchSource DOCUMENT(sorted)",
      std::make_unique<sql::BatchSource>(&doc_sorted));
  sql::BatchOperatorPtr stat_scan = sql::AnalyzeBatch(
      call->plan, "BatchSource STAT",
      std::make_unique<sql::BatchSource>(&stat_cols));
  // STAT_c0's heap is already in (tid, kcid) order.
  sql::BatchOperatorPtr joined = sql::AnalyzeBatch(
      call->plan, "BatchMergeJoin DOCUMENT~STAT",
      std::make_unique<sql::BatchMergeJoin>(
          std::move(doc_src), std::move(stat_scan), std::vector<int>{1},
          std::vector<int>{1}));
  // joined: 0 did, 1 tid, 2 freq, 3 kcid, 4 tid, 5 logtheta
  sql::BatchOperatorPtr contrib = sql::AnalyzeBatch(
      call->plan, "BatchProject did,kcid,contrib",
      std::make_unique<sql::BatchProject>(
          std::move(joined),
          std::vector<sql::BatchExpr>{
              sql::BatchExpr::Passthrough("did", TypeId::kInt64, 0),
              sql::BatchExpr::Passthrough("kcid", TypeId::kInt32, 3),
              sql::BatchExpr{
                  "contrib", TypeId::kDouble,
                  [logdenom](const sql::Batch& in) {
                    const auto& freq = in.col(2).i32;
                    const auto& kcid = in.col(3).i32;
                    const auto& theta = in.col(5).f64;
                    sql::ColumnPtr out = sql::NewColumn(TypeId::kDouble);
                    out->f64.reserve(freq.size());
                    for (size_t i = 0; i < freq.size(); ++i) {
                      out->f64.push_back(freq[i] * (theta[i] +
                                                    logdenom->at(kcid[i])));
                    }
                    return out;
                  }}}));
  sql::BatchOperatorPtr partial_op = sql::AnalyzeBatch(
      call->plan, "BatchSortAggregate PARTIAL(did,kcid)",
      std::make_unique<sql::BatchSortAggregate>(
          std::move(contrib),
          std::vector<SortKey>{{0, false}, {1, false}},
          std::vector<int>{0, 1},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 2, "lpr1"}}));

  // DOCLEN(did, len): DOCUMENT restricted to F(c0), grouped by did. The
  // pre-sorted STAT streams through BatchSortedAggregate.
  sql::BatchOperatorPtr features_src = sql::AnalyzeBatch(
      call->plan, "BatchSource STAT",
      std::make_unique<sql::BatchSource>(&stat_cols));
  sql::BatchOperatorPtr features = sql::AnalyzeBatch(
      call->plan, "BatchSortedAggregate features(tid)",
      std::make_unique<sql::BatchSortedAggregate>(
          std::move(features_src), std::vector<int>{1},
          std::vector<AggSpec>{AggSpec{AggKind::kCount, -1, "cnt"}}));
  sql::BatchOperatorPtr doc_src2 = sql::AnalyzeBatch(
      call->plan, "BatchSource DOCUMENT(sorted)",
      std::make_unique<sql::BatchSource>(&doc_sorted));
  sql::BatchOperatorPtr doc_features = sql::AnalyzeBatch(
      call->plan, "BatchMergeJoin DOCUMENT~features",
      std::make_unique<sql::BatchMergeJoin>(
          std::move(doc_src2), std::move(features), std::vector<int>{1},
          std::vector<int>{0}));
  // doc_features: 0 did, 1 tid, 2 freq, 3 tid, 4 cnt
  sql::BatchOperatorPtr doclen_op = sql::AnalyzeBatch(
      call->plan, "BatchSortAggregate DOCLEN(did)",
      std::make_unique<sql::BatchSortAggregate>(
          std::move(doc_features), std::vector<SortKey>{{0, false}},
          std::vector<int>{0},
          std::vector<AggSpec>{AggSpec{AggKind::kSum, 2, "len"}}));

  // COMPLETE(did, kcid, lpr2): DOCLEN × children(c0), -len * logdenom.
  // The children side runs the scalar index scan through the Vectorize
  // adapter — scalar and batch operators composing in one plan.
  sql::BatchOperatorPtr tax_children = sql::AnalyzeBatch(
      call->plan, "BatchProject kcid,logdenom",
      std::make_unique<sql::BatchProject>(
          sql::AnalyzeBatch(
              call->plan, "Vectorize IndexScanEq TAXONOMY by_pcid",
              std::make_unique<sql::Vectorize>(
                  std::make_unique<sql::IndexScanEq>(
                      tables_->taxonomy,
                      tables_->taxonomy->IndexId("by_pcid"),
                      std::vector<Value>{Value::Int32(c0)}))),
          std::vector<sql::BatchExpr>{
              sql::BatchExpr::Passthrough("kcid", TypeId::kInt32, 1),
              sql::BatchExpr::Passthrough("logdenom", TypeId::kDouble, 3)}));
  sql::BatchOperatorPtr cross = sql::AnalyzeBatch(
      call->plan, "BatchCrossJoin DOCLEN×children",
      std::make_unique<sql::BatchCrossJoin>(std::move(doclen_op),
                                            std::move(tax_children)));
  // cross: 0 did, 1 len, 2 kcid, 3 logdenom
  sql::BatchOperatorPtr complete_op = sql::AnalyzeBatch(
      call->plan, "BatchProject COMPLETE",
      std::make_unique<sql::BatchProject>(
          std::move(cross),
          std::vector<sql::BatchExpr>{
              sql::BatchExpr::Passthrough("did", TypeId::kInt64, 0),
              sql::BatchExpr::Passthrough("kcid", TypeId::kInt32, 2),
              sql::BatchExpr{"lpr2", TypeId::kDouble,
                             [](const sql::Batch& in) {
                               const auto& len = in.col(1).i64;
                               const auto& denom = in.col(3).f64;
                               sql::ColumnPtr out =
                                   sql::NewColumn(TypeId::kDouble);
                               out->f64.reserve(len.size());
                               for (size_t i = 0; i < len.size(); ++i) {
                                 out->f64.push_back(-len[i] * denom[i]);
                               }
                               return out;
                             }}}));
  sql::BatchOperatorPtr complete_sorted = sql::AnalyzeBatch(
      call->plan, "BatchSort COMPLETE (did,kcid)",
      std::make_unique<sql::BatchSort>(
          std::move(complete_op),
          std::vector<SortKey>{{0, false}, {1, false}}));

  // final: COMPLETE left outer join PARTIAL on (did, kcid).
  sql::BatchOperatorPtr final_join = sql::AnalyzeBatch(
      call->plan,
      StrCat("BulkProbeNode c0=", c0, ": BatchMergeJoin COMPLETE~PARTIAL"),
      std::make_unique<sql::BatchMergeJoin>(
          std::move(complete_sorted), std::move(partial_op),
          std::vector<int>{0, 1}, std::vector<int>{0, 1},
          /*left_outer=*/true));

  // Drain straight from the columns: 0 did, 1 kcid, 2 lpr2, 3 did,
  // 4 kcid, 5 lpr1 (NULL when no PARTIAL row).
  FOCUS_RETURN_IF_ERROR(final_join->Open());
  sql::Batch batch;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, final_join->NextBatch(&batch));
    if (!more) break;
    size_t n = batch.num_rows();
    const auto& did_col = batch.col(0).i64;
    const auto& kcid_col = batch.col(1).i32;
    const auto& lpr2_col = batch.col(2).f64;
    const sql::ColumnData& lpr1 = batch.col(5);
    call->stats.output_rows += n;
    for (size_t i = 0; i < n; ++i) {
      double lpr = lpr2_col[i];
      if (!lpr1.IsNull(i)) {
        lpr += lpr1.f64[i];
        ++call->stats.partial_rows;
      }
      auto [entry, inserted] =
          acc->try_emplace(static_cast<uint64_t>(did_col[i]));
      if (inserted) entry->second.assign(children.size(), 0.0);
      entry->second[child_index.at(kcid_col[i])] = lpr;
    }
  }
  final_join->Close();
  call->stats.join_seconds += join_timer.ElapsedSeconds();
  return Status::OK();
}

Result<std::unordered_map<uint64_t, ClassScores>>
BulkProbeClassifier::Finalize(
    const std::vector<uint64_t>& dids,
    std::unordered_map<taxonomy::Cid,
                       std::unordered_map<uint64_t, std::vector<double>>>*
        node_acc,
    Call* call) const {
  Stopwatch finalize_timer;
  std::unordered_map<uint64_t, ClassScores> out;
  out.reserve(dids.size());
  for (uint64_t did : dids) {
    std::unordered_map<taxonomy::Cid, std::vector<double>> child_ll;
    for (taxonomy::Cid c0 : ref_->tax().InternalPreorder()) {
      auto& acc = (*node_acc)[c0];
      auto it = acc.find(did);
      if (it != acc.end()) {
        child_ll.emplace(c0, it->second);
      } else {
        child_ll.emplace(c0,
                         std::vector<double>(ref_->tax().Children(c0).size(),
                                             0.0));
      }
    }
    out.emplace(did, ref_->PropagateScores(child_ll));
  }
  call->stats.finalize_seconds += finalize_timer.ElapsedSeconds();
  return out;
}

Result<std::unordered_map<uint64_t, ClassScores>>
BulkProbeClassifier::ClassifyAllScalar(const sql::Table* document,
                                       Call* call) const {
  // One sequential pass sorts DOCUMENT by tid into a temp reused by every
  // node's merge joins (as a clustered sort temp would be in DB2).
  Stopwatch sort_timer;
  OperatorPtr doc_sort = sql::Analyze(
      call->plan, "Sort DOCUMENT by tid",
      std::make_unique<Sort>(
          sql::Analyze(call->plan, "SeqScan DOCUMENT",
                       std::make_unique<SeqScan>(document)),
          std::vector<SortKey>{{1, false}}));
  FOCUS_ASSIGN_OR_RETURN(
      std::vector<Tuple> doc_sorted,
      sql::Collect(doc_sort.get(), document->num_rows()));
  call->stats.join_seconds += sort_timer.ElapsedSeconds();

  // Distinct document ids (docs with no feature terms anywhere still get
  // scores — priors only).
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> dids;
  for (const Tuple& row : doc_sorted) {
    uint64_t did = static_cast<uint64_t>(row.Get(0).AsInt64());
    if (seen.insert(did).second) dids.push_back(did);
  }

  // Per internal node, per did: child log-likelihood vector.
  std::unordered_map<taxonomy::Cid,
                     std::unordered_map<uint64_t, std::vector<double>>>
      node_acc;
  for (taxonomy::Cid c0 : ref_->tax().InternalPreorder()) {
    FOCUS_RETURN_IF_ERROR(BulkProbeNode(c0, document->schema(), doc_sorted,
                                        &node_acc[c0], call));
  }
  return Finalize(dids, &node_acc, call);
}

Result<std::unordered_map<uint64_t, ClassScores>>
BulkProbeClassifier::ClassifyAllVectorized(const sql::Table* document,
                                           Call* call) const {
  // One batch pass sorts DOCUMENT by tid into a columnar temp shared
  // (zero-copy for small batches) by every node's merge joins.
  Stopwatch sort_timer;
  sql::BatchOperatorPtr doc_scan =
      sql::AnalyzeBatch(call->plan, "BatchTableScan DOCUMENT",
                        std::make_unique<sql::BatchTableScan>(document));
  sql::BatchOperatorPtr doc_sort = sql::AnalyzeBatch(
      call->plan, "BatchSort DOCUMENT by tid",
      std::make_unique<sql::BatchSort>(std::move(doc_scan),
                                       std::vector<SortKey>{{1, false}}));
  sql::ColumnSet doc_sorted;
  FOCUS_RETURN_IF_ERROR(sql::CollectInto(doc_sort.get(), &doc_sorted));

  call->stats.join_seconds += sort_timer.ElapsedSeconds();

  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> dids;
  for (int64_t did : doc_sorted.col(0).i64) {
    if (seen.insert(static_cast<uint64_t>(did)).second) {
      dids.push_back(static_cast<uint64_t>(did));
    }
  }

  std::unordered_map<taxonomy::Cid,
                     std::unordered_map<uint64_t, std::vector<double>>>
      node_acc;
  for (taxonomy::Cid c0 : ref_->tax().InternalPreorder()) {
    FOCUS_RETURN_IF_ERROR(
        BulkProbeNodeVec(c0, doc_sorted, &node_acc[c0], call));
  }
  return Finalize(dids, &node_acc, call);
}

Result<std::unordered_map<uint64_t, ClassScores>>
BulkProbeClassifier::ClassifyAll(const sql::Table* document,
                                 Stats* stats) const {
  return ClassifyWithPlan(document, nullptr, stats);
}

Result<std::unordered_map<uint64_t, ClassScores>>
BulkProbeClassifier::ClassifyWithPlan(const sql::Table* document,
                                      sql::PlanStats* plan,
                                      Stats* stats) const {
  Call call;
  call.plan = plan;
  auto result = engine_ == sql::ExecEngine::kScalar
                    ? ClassifyAllScalar(document, &call)
                    : ClassifyAllVectorized(document, &call);
  if (stats != nullptr) *stats = call.stats;
  return result;
}

}  // namespace focus::classify
