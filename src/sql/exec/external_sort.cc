#include "sql/exec/external_sort.h"

#include <algorithm>

namespace focus::sql {

ExternalSort::ExternalSort(OperatorPtr child, std::vector<SortKey> keys,
                           storage::BufferPool* pool,
                           size_t memory_budget_rows)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      pool_(pool),
      memory_budget_rows_(memory_budget_rows < 2 ? 2 : memory_budget_rows) {}

Status ExternalSort::SpillRun(std::vector<Tuple>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [this](const Tuple& a, const Tuple& b) {
                     return CompareOnKeys(a, b, keys_) < 0;
                   });
  FOCUS_ASSIGN_OR_RETURN(storage::HeapFile run,
                         storage::HeapFile::Create(pool_));
  for (const Tuple& t : *rows) {
    FOCUS_RETURN_IF_ERROR(run.Insert(t.Serialize(schema())).status());
  }
  runs_.push_back(std::move(run));
  rows->clear();
  return Status::OK();
}

void ExternalSort::ReleaseRuns() {
  cursors_.clear();
  std::vector<storage::PageId> pages;
  for (const storage::HeapFile& run : runs_) run.AppendPages(&pages);
  pool_->FreePages(pages);
  runs_.clear();
}

Status ExternalSort::AdvanceRun(size_t idx) {
  RunCursor& cursor = cursors_[idx];
  storage::Rid rid;
  std::string record;
  if (!cursor.it.Next(&rid, &record)) {
    FOCUS_RETURN_IF_ERROR(cursor.it.status());
    cursor.valid = false;
    return Status::OK();
  }
  FOCUS_ASSIGN_OR_RETURN(cursor.current,
                         Tuple::Deserialize(schema(), record));
  cursor.valid = true;
  return Status::OK();
}

Status ExternalSort::Open() {
  FOCUS_RETURN_IF_ERROR(child_->Open());
  ReleaseRuns();
  tail_.clear();
  tail_pos_ = 0;

  std::vector<Tuple> buffer;
  buffer.reserve(memory_budget_rows_);
  Tuple t;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->Next(&t));
    if (!more) break;
    buffer.push_back(t);
    if (buffer.size() >= memory_budget_rows_) {
      FOCUS_RETURN_IF_ERROR(SpillRun(&buffer));
    }
  }
  std::stable_sort(buffer.begin(), buffer.end(),
                   [this](const Tuple& a, const Tuple& b) {
                     return CompareOnKeys(a, b, keys_) < 0;
                   });
  tail_ = std::move(buffer);

  last_num_runs_ = static_cast<int>(runs_.size());
  // Cursors only after runs_ stops growing (iterators hold pointers).
  cursors_.reserve(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    cursors_.push_back(RunCursor{runs_[i].Scan(), Tuple(), false});
  }
  for (size_t i = 0; i < cursors_.size(); ++i) {
    FOCUS_RETURN_IF_ERROR(AdvanceRun(i));
  }
  return Status::OK();
}

Result<bool> ExternalSort::Next(Tuple* out) {
  // Pick the smallest head among run cursors and the in-memory tail;
  // ties resolve to the earliest run (stability).
  int best = -1;
  for (size_t i = 0; i < cursors_.size(); ++i) {
    if (!cursors_[i].valid) continue;
    if (best < 0 ||
        CompareOnKeys(cursors_[i].current, cursors_[best].current, keys_) <
            0) {
      best = static_cast<int>(i);
    }
  }
  bool tail_has = tail_pos_ < tail_.size();
  if (best < 0 && !tail_has) return false;
  if (best >= 0 &&
      (!tail_has ||
       CompareOnKeys(cursors_[best].current, tail_[tail_pos_], keys_) <=
           0)) {
    *out = cursors_[best].current;
    FOCUS_RETURN_IF_ERROR(AdvanceRun(best));
    return true;
  }
  *out = tail_[tail_pos_++];
  return true;
}

void ExternalSort::Close() {
  ReleaseRuns();
  tail_.clear();
  child_->Close();
}

}  // namespace focus::sql
