// External merge sort.
//
// Sorts arbitrarily large inputs with a bounded in-memory budget: rows
// accumulate up to `memory_budget_rows`, each full buffer is sorted and
// spilled as a run into a temporary heap file (through the buffer pool, so
// spill I/O is charged like any other table I/O), and Next() k-way merges
// the runs. Inputs that fit the budget never touch disk. The sort is
// stable (ties keep input order: runs are formed in input order and the
// merge breaks ties on run index).
#ifndef FOCUS_SQL_EXEC_EXTERNAL_SORT_H_
#define FOCUS_SQL_EXEC_EXTERNAL_SORT_H_

#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "sql/exec/operator.h"
#include "sql/exec/sort.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace focus::sql {

class ExternalSort final : public Operator {
 public:
  // `pool` hosts the spill runs; it must outlive the operator. The run
  // pages go back to the pool's free-page list on Close (and on re-Open).
  ExternalSort(OperatorPtr child, std::vector<SortKey> keys,
               storage::BufferPool* pool, size_t memory_budget_rows = 8192);
  ~ExternalSort() override { ReleaseRuns(); }

  Status Open() override;
  Result<bool> Next(Tuple* out) override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }

  // Number of spilled runs in the last Open (0 = fully in-memory).
  // Survives Close().
  int num_runs() const { return last_num_runs_; }

 private:
  struct RunCursor {
    storage::HeapFile::Iterator it;
    Tuple current;
    bool valid = false;
  };

  Status SpillRun(std::vector<Tuple>* rows);
  // Drops the cursors and frees every run's pages.
  void ReleaseRuns();
  // Loads the next tuple of run `idx` into its cursor.
  Status AdvanceRun(size_t idx);

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  storage::BufferPool* pool_;
  size_t memory_budget_rows_;

  std::vector<storage::HeapFile> runs_;
  int last_num_runs_ = 0;
  std::vector<RunCursor> cursors_;
  // Rows that never spilled (the final, possibly only, run).
  std::vector<Tuple> tail_;
  size_t tail_pos_ = 0;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_EXEC_EXTERNAL_SORT_H_
