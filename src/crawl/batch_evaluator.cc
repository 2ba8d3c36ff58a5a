#include "crawl/batch_evaluator.h"

#include "classify/db_tables.h"

namespace focus::crawl {

PageJudgment BatchRelevanceEvaluator::FromScores(
    const classify::ClassScores& scores) const {
  const taxonomy::Taxonomy& tax = ref_->tax();
  PageJudgment j;
  j.relevance = scores.Relevance(tax);
  j.best_leaf = scores.BestLeaf(tax);
  j.best_leaf_is_good = tax.IsGoodOrSubsumed(j.best_leaf);
  return j;
}

Result<PageJudgment> BatchRelevanceEvaluator::Judge(
    const text::TermVector& terms) {
  return FromScores(ref_->Classify(terms));
}

Result<std::vector<PageJudgment>> BatchRelevanceEvaluator::JudgeBatch(
    const std::vector<text::TermVector>& docs) {
  return JudgeBatchImpl(docs, nullptr);
}

Result<std::vector<PageJudgment>> BatchRelevanceEvaluator::JudgeBatchWithPlan(
    const std::vector<text::TermVector>& docs, sql::PlanStats* plan) {
  return JudgeBatchImpl(docs, plan);
}

Result<std::vector<PageJudgment>> BatchRelevanceEvaluator::JudgeBatchImpl(
    const std::vector<text::TermVector>& docs, sql::PlanStats* plan) {
  if (docs.empty()) return std::vector<PageJudgment>{};
  if (docs.size() == 1) {
    // A relational plan over one document is all fixed cost; use the
    // in-memory path (identical scores).
    FOCUS_ASSIGN_OR_RETURN(PageJudgment j, Judge(docs[0]));
    return std::vector<PageJudgment>{j};
  }

  FOCUS_ASSIGN_OR_RETURN(
      std::unique_ptr<sql::Table> document,
      classify::NewDocumentTable(scratch_->buffer_pool()));
  auto judged = ScoreThrough(document.get(), docs, plan);
  // The table's pages go back to the pool's free list even on failure.
  document->ReleaseStorage();
  return judged;
}

Result<std::vector<PageJudgment>> BatchRelevanceEvaluator::ScoreThrough(
    sql::Table* document, const std::vector<text::TermVector>& docs,
    sql::PlanStats* plan) const {
  // dids are 1-based batch positions, so scores map back by index.
  for (size_t i = 0; i < docs.size(); ++i) {
    FOCUS_RETURN_IF_ERROR(classify::InsertDocument(document, i + 1, docs[i]));
  }
  FOCUS_ASSIGN_OR_RETURN(auto scored, bulk_->ClassifyWithPlan(document, plan));
  std::vector<PageJudgment> out;
  out.reserve(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto it = scored.find(i + 1);
    // An empty term vector materializes no DOCUMENT rows, so the plan
    // never sees its did; the in-memory path scores it identically
    // (priors only).
    out.push_back(it == scored.end() ? FromScores(ref_->Classify(docs[i]))
                                     : FromScores(it->second));
  }
  return out;
}

}  // namespace focus::crawl
