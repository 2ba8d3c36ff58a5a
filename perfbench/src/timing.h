// Timing decorators for the benchmark's per-layer accounting.
//
// The benchmark times each layer from outside, at the library's two virtual
// seams: crawl::RelevanceEvaluator (crawler -> classifier) and
// storage::DiskManager (buffer pool -> WAL, and WAL -> each file). Every
// decorator forwards each call unchanged to the object it wraps and only
// adds clock reads and counters around it; perfbench_test checks that a
// crawl through the decorators visits the same pages and writes the same
// CRAWL/LINK rows as one without them.
#ifndef FOCUS_PERFBENCH_TIMING_H_
#define FOCUS_PERFBENCH_TIMING_H_

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "crawl/relevance_evaluator.h"
#include "storage/disk_manager.h"

namespace focus::perfbench {

// Steady-clock nanoseconds (the benchmark's one time base).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time consumed by the calling thread, in nanoseconds.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Plain-value copy of a TimedDisk's counters; subtract two to get the I/O
// of an interval.
struct IoSnapshot {
  uint64_t read_ops = 0;   // ReadPage + ReadPages calls
  uint64_t pages_read = 0;
  uint64_t writes = 0;
  uint64_t allocs = 0;
  uint64_t syncs = 0;
  int64_t read_ns = 0;
  int64_t write_ns = 0;
  int64_t alloc_ns = 0;
  int64_t sync_ns = 0;

  IoSnapshot operator-(const IoSnapshot& o) const {
    return {read_ops - o.read_ops, pages_read - o.pages_read,
            writes - o.writes,     allocs - o.allocs,
            syncs - o.syncs,       read_ns - o.read_ns,
            write_ns - o.write_ns, alloc_ns - o.alloc_ns,
            sync_ns - o.sync_ns};
  }
};

// DiskManager decorator: forwards every call to `inner` and accumulates
// call counts and wall time per operation kind. Thread-safe (the counters
// are atomics; sync latencies are kept for percentiles under a mutex —
// syncs are rare). The base-class stats() is not forwarded (it is not
// virtual); read the wrapped manager's stats() directly instead.
class TimedDisk final : public storage::DiskManager {
 public:
  explicit TimedDisk(storage::DiskManager* inner) : inner_(inner) {}

  TimedDisk(const TimedDisk&) = delete;
  TimedDisk& operator=(const TimedDisk&) = delete;

  Status ReadPage(storage::PageId id, char* out) override {
    int64_t t0 = NowNs();
    Status s = inner_->ReadPage(id, out);
    read_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
    pages_read_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  Status ReadPages(storage::PageId first, uint32_t n, char* out) override {
    int64_t t0 = NowNs();
    Status s = inner_->ReadPages(first, n, out);
    read_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
    pages_read_.fetch_add(n, std::memory_order_relaxed);
    return s;
  }
  Status WritePage(storage::PageId id, const char* in) override {
    int64_t t0 = NowNs();
    Status s = inner_->WritePage(id, in);
    write_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    writes_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  Result<storage::PageId> AllocatePage() override {
    int64_t t0 = NowNs();
    Result<storage::PageId> id = inner_->AllocatePage();
    alloc_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    allocs_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override {
    int64_t t0 = NowNs();
    Status s = inner_->Sync();
    int64_t dt = NowNs() - t0;
    sync_ns_.fetch_add(dt, std::memory_order_relaxed);
    syncs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    sync_samples_ns_.push_back(dt);
    return s;
  }

  IoSnapshot Snapshot() const {
    IoSnapshot s;
    s.read_ops = read_ops_.load(std::memory_order_relaxed);
    s.pages_read = pages_read_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    s.allocs = allocs_.load(std::memory_order_relaxed);
    s.syncs = syncs_.load(std::memory_order_relaxed);
    s.read_ns = read_ns_.load(std::memory_order_relaxed);
    s.write_ns = write_ns_.load(std::memory_order_relaxed);
    s.alloc_ns = alloc_ns_.load(std::memory_order_relaxed);
    s.sync_ns = sync_ns_.load(std::memory_order_relaxed);
    return s;
  }
  std::vector<int64_t> SyncSamplesNs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_samples_ns_;
  }

 private:
  storage::DiskManager* inner_;
  std::atomic<uint64_t> read_ops_{0}, pages_read_{0}, writes_{0}, allocs_{0},
      syncs_{0};
  std::atomic<int64_t> read_ns_{0}, write_ns_{0}, alloc_ns_{0}, sync_ns_{0};
  mutable std::mutex mu_;
  std::vector<int64_t> sync_samples_ns_;
};

// One classifier call seen by a TimedEvaluator.
struct JudgeCall {
  int64_t start_ns = 0;  // steady clock
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  // calling thread's CPU time inside the call
  uint32_t pages = 0;
};

// RelevanceEvaluator decorator: forwards Judge and JudgeBatch to `inner`
// unchanged and records each call's wall interval and the calling thread's
// CPU time inside it. CPU time is the classifier's busy time; wall minus
// CPU is time the call waited (for BatchRelevanceEvaluator's serializing
// mutex, or for a core). Thread-safe.
class TimedEvaluator final : public crawl::RelevanceEvaluator {
 public:
  explicit TimedEvaluator(crawl::RelevanceEvaluator* inner) : inner_(inner) {}

  TimedEvaluator(const TimedEvaluator&) = delete;
  TimedEvaluator& operator=(const TimedEvaluator&) = delete;

  Result<crawl::PageJudgment> Judge(const text::TermVector& terms) override {
    int64_t t0 = NowNs();
    int64_t c0 = ThreadCpuNs();
    Result<crawl::PageJudgment> j = inner_->Judge(terms);
    Note(t0, c0, 1);
    return j;
  }
  Result<std::vector<crawl::PageJudgment>> JudgeBatch(
      const std::vector<text::TermVector>& docs) override {
    int64_t t0 = NowNs();
    int64_t c0 = ThreadCpuNs();
    Result<std::vector<crawl::PageJudgment>> j = inner_->JudgeBatch(docs);
    Note(t0, c0, static_cast<uint32_t>(docs.size()));
    return j;
  }

  std::vector<JudgeCall> Calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  void Note(int64_t t0, int64_t c0, uint32_t pages) {
    JudgeCall call{t0, 0, ThreadCpuNs() - c0, pages};
    call.end_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(call);
  }

  crawl::RelevanceEvaluator* inner_;
  mutable std::mutex mu_;
  std::vector<JudgeCall> calls_;
};

}  // namespace focus::perfbench

#endif  // FOCUS_PERFBENCH_TIMING_H_
