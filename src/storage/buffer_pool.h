// Scan-resistant buffer pool behind one latch.
//
// Every table and index access in focus goes through this pool, so the
// hit/miss counters directly measure the access-path behaviour that the
// paper's Figure 8 experiments are about (random index probes vs sequential
// sort-merge scans under a bounded number of 4 KiB frames).
//
// Layout. One frame array, one page table and one free-frame list, all
// guarded by a single mutex that every public call takes for its whole
// duration, device I/O included (DiskManager implementations are not
// thread safe). The pool is thread-safe, but the crawl store, the
// classifier tables and the distiller each reach their pool from one
// thread at a time, so the latch is uncontended where it matters. Pin
// capacity is pool-global: callers may hold up to num_frames concurrent
// pins before a fetch fails with ResourceExhausted.
//
// Replacement is a 2Q variant keyed on a per-frame use count:
//   A1   — fetched exactly once (the "cold" A1 queue of 2Q): evicted
//          first, in LRU order. A sequential flood — a heap scan touching
//          every page once — churns entirely here and cannot evict hot
//          pages, which is the scan-resistance property
//          tests/storage_pool_test.cc pins down.
//   spec — prefetched, never fetched: speculation whose value is still
//          ahead; protected from the flood, second in line otherwise.
//   hot  — fetched two or more times (index upper levels, roots, hot STAT
//          pages). Use counts only grow, so 2Q's Am bound applies: once
//          hot frames exceed half the pool, the LRU hot frame is evicted
//          ahead of speculation — otherwise every frame eventually looks
//          hot and readahead is squeezed into a handful of churn frames.
//
// Readahead. Prefetch(first, n) batch-reads a contiguous page run in one
// DiskManager::ReadPages op (one simulated seek instead of n) and installs
// the missing pages as evict-first speculation. HeapFile and B+-tree
// iterators call it when advancing along their page chains; with
// Options::auto_readahead the pool additionally detects ascending miss
// streams itself (a small stream table with forward-gap and back-step
// tolerance, so interleaved heap/leaf page streams of one region merge
// into one stream) and reads ahead of them. Each stream remembers its
// issued edge: a swept region is transferred from disk at most once, and
// the first use of a prefetched page near the edge extends the window
// ahead of the consumer (pipelining), so a steady consumer misses only at
// stream startup. Readahead is purely advisory: failures are swallowed
// and speculation never fails the fetch that triggered it.
//
// Crash safety: the pool itself is free to write back dirty pages at any
// time (eviction, FlushAll). When the DiskManager underneath is a
// WalDiskManager (wal.h), those write-backs land in the WAL's in-memory
// overlay, not on the data device, so the redo-log flush-order discipline
// — log record synced before a dirty page may reach the platter — holds
// structurally: uncommitted pages simply never reach the data device, and
// the data device is only written at checkpoints, after the log sync.
#ifndef FOCUS_STORAGE_BUFFER_POOL_H_
#define FOCUS_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/status.h"

namespace focus::storage {

class BufferPool {
 public:
  struct Options {
    // Pages fetched per readahead batch (explicit Prefetch callers may ask
    // for more; auto-detected streams use exactly this). 0 disables
    // auto-readahead issue even when auto_readahead is set.
    uint32_t readahead_window = 16;
    // Readahead master switch: enables iterator-cooperative chain prefetch
    // (MaybePrefetchChain) and the pool's own ascending miss-stream
    // detection for access paths with no iterator cooperation. Off by
    // default: tests that count cold misses rely on the pool reading
    // exactly the pages asked for.
    bool auto_readahead = false;
  };

  struct Stats {
    uint64_t fetches = 0;    // FetchPage calls
    uint64_t hits = 0;       // served from a resident frame
    uint64_t misses = 0;     // required a disk read
    uint64_t evictions = 0;  // victim frames recycled
    uint64_t dirty_writebacks = 0;
    uint64_t readahead_issued = 0;  // pages installed by Prefetch
    uint64_t readahead_used = 0;    // prefetched pages later fetched

    Stats operator-(const Stats& other) const {
      Stats d;
      d.fetches = fetches - other.fetches;
      d.hits = hits - other.hits;
      d.misses = misses - other.misses;
      d.evictions = evictions - other.evictions;
      d.dirty_writebacks = dirty_writebacks - other.dirty_writebacks;
      d.readahead_issued = readahead_issued - other.readahead_issued;
      d.readahead_used = readahead_used - other.readahead_used;
      return d;
    }
    double hit_ratio() const {
      return fetches == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(fetches);
    }
  };

  // The pool holds at most `num_frames` pages of `disk`. `disk` must outlive
  // the pool.
  BufferPool(DiskManager* disk, size_t num_frames)
      : BufferPool(disk, num_frames, Options{}) {}
  BufferPool(DiskManager* disk, size_t num_frames, Options options);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Registers a snapshot-time collector exporting this pool's hit/miss/
  // eviction/readahead counters and hit ratio (and the backing DiskManager's
  // read/write counters) as focus_bufferpool_* / focus_disk_* samples
  // labeled {pool=pool_name}. Rebinding replaces the previous binding; the
  // destructor unregisters.
  void BindMetrics(obs::MetricsRegistry* registry, std::string pool_name);

  // Pins page `id` in memory and returns it. The caller must balance with
  // UnpinPage. Fails with ResourceExhausted only when every frame of the
  // pool is pinned.
  Result<Page*> FetchPage(PageId id);

  // Pins a zeroed page for new content and returns its id via `out_id`:
  // the lowest id on the free-page list if any (see FreePages), else a page
  // freshly allocated on disk. A recycled id that is still resident reuses
  // its own frame; its old bytes are never read back.
  Result<Page*> NewPage(PageId* out_id);

  // Returns pages whose content is dead (a cleared or dropped table's heap
  // and index nodes) to the free-page list, so NewPage hands them out again
  // before it grows the device. Unpinned resident frames of these pages
  // are dropped without write-back. The caller guarantees nothing
  // references the pages any more. The list lives in memory only: a
  // reopened store starts with an empty one, so pages freed but not yet
  // reused when a session ends stay allocated (a leak bounded by one
  // session). Lowest ids go first, which keeps rebuilt page chains
  // ascending for chain readahead.
  void FreePages(const std::vector<PageId>& ids);

  // Releases one pin; `dirty` marks the frame for write-back on eviction.
  // The dirty bit only ever accumulates (unpinning clean never clears a
  // dirty mark left by an earlier pin); eviction/flush clears it after the
  // write-back.
  void UnpinPage(PageId id, bool dirty);

  // Advisory batched readahead: reads pages [first, first + n) in one
  // ReadPages op and installs the non-resident ones as evict-first
  // speculation. Returns immediately if the first page is already resident
  // (the common mid-window case for chained iterators). Stops installing
  // once the pool has no frame to spare, rather than evict pages this same
  // batch installed. Never fails the caller: I/O errors and frame
  // exhaustion just mean less speculation.
  void Prefetch(PageId first, uint32_t n);

  // Iterator cooperation: HeapFile and B+-tree iterators call this when
  // advancing to the next page of their chain. A no-op unless readahead is
  // enabled (Options::auto_readahead), so scans through a default pool
  // read exactly the pages they touch — tests that count cold misses
  // depend on that.
  void MaybePrefetchChain(PageId next) {
    if (options_.auto_readahead && options_.readahead_window > 0 &&
        next != kInvalidPageId) {
      Prefetch(next, options_.readahead_window);
    }
  }

  // Writes back every dirty resident page.
  Status FlushAll();

  // Drops every unpinned page (writing back dirty ones). Used by benchmarks
  // to measure cold-cache behaviour.
  Status EvictAll();

  size_t num_frames() const { return num_frames_; }
  uint32_t readahead_window() const { return options_.readahead_window; }
  // A point-in-time snapshot, not a reference.
  Stats stats() const;
  void ResetStats();

 private:
  // Every field is guarded by latch_.
  struct Frame {
    Page* page = nullptr;  // pages_[frame index]
    PageId page_id = kInvalidPageId;
    int32_t pin_count = 0;
    uint64_t last_used = 0;
    // 0 = prefetched & untouched, 1 = fetched once, >= 2 = hot. Saturating
    // in spirit: only the 0/1/2+ distinction matters for eviction.
    uint32_t uses = 0;
    bool dirty = false;
  };

  // Ascending miss-stream tracker for auto-readahead.
  struct Stream {
    PageId next = kInvalidPageId;  // first page the stream expects next
    PageId issued = 0;  // exclusive edge of pages already prefetched; the
                        // stream never re-reads below it, so each page of
                        // a swept region costs at most one disk transfer
    uint32_t run = 0;   // consecutive matching misses
    uint64_t tick = 0;  // LRU stamp for stream replacement
  };

  // The *Locked helpers require latch_ held.

  // Picks a frame to hold a new page: a free frame if any, else the
  // least-recently-used unpinned frame of the lowest populated level
  // (writing it back if dirty). Fails rather than evict speculation
  // installed after clock tick `spare_spec_after`, so a readahead batch
  // larger than the pool stops instead of evicting its own pages.
  Result<size_t> GetVictimLocked(uint64_t spare_spec_after = UINT64_MAX);
  // Writes `f` back if it is dirty.
  Status WriteBackLocked(Frame* f);
  // Pins a resident frame for a hit (touch + level promotion + readahead
  // accounting) and extends readahead when it consumes a prefetched page.
  Page* TouchHitLocked(Frame* f);
  void PrefetchLocked(PageId first, uint32_t n);
  void MaybeAutoReadaheadLocked(PageId missed);
  // Pipelined window extension: called when a prefetched page is consumed
  // for the first time. If the consumer is within kStreamLead pages of its
  // stream's issued edge, the next window is read before the consumer can
  // miss at the edge.
  void MaybeExtendReadaheadLocked(PageId used);

  const Options options_;
  DiskManager* disk_;
  size_t num_frames_;

  mutable std::mutex latch_;
  // Frame state lives apart from the 4 KiB page buffers, so the victim
  // search (one pass over frames_ per eviction, and a readahead batch
  // evicts once per installed page) reads a few contiguous cache lines
  // instead of one line and one TLB entry per frame.
  std::vector<Frame> frames_;
  std::vector<Page> pages_;
  std::unordered_map<PageId, size_t> table_;
  std::vector<size_t> free_frames_;
  uint64_t clock_ = 0;
  Stats stats_;

  std::vector<Stream> streams_;
  uint64_t stream_tick_ = 0;

  // Free-page list (FreePages / NewPage).
  std::set<PageId> free_pages_;

#ifdef FOCUS_SANITIZE
  // Pin/unpin balance: every successful FetchPage/NewPage must be matched
  // by exactly one UnpinPage before the pool dies.
  int64_t outstanding_pins_ = 0;
#endif

  obs::MetricsRegistry* metrics_registry_ = nullptr;
  uint64_t collector_id_ = 0;  // 0 = not bound
};

// RAII pin guard. Fetches on construction (check ok()), unpins on
// destruction. Movable: ownership of the pin transfers and the moved-from
// guard becomes released; copying is still forbidden. Release() is
// idempotent, and a MarkDirty() before Release() is never lost — the pool
// merges the dirty flag into the frame on unpin.
class PageGuard {
 public:
  PageGuard(BufferPool* pool, PageId id) : pool_(pool), id_(id) {
    auto r = pool->FetchPage(id);
    if (r.ok()) {
      page_ = r.value();
    } else {
      status_ = r.status();
    }
  }
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  PageGuard(PageGuard&& other) noexcept
      : pool_(other.pool_),
        id_(other.id_),
        page_(std::exchange(other.page_, nullptr)),
        dirty_(other.dirty_),
        status_(std::move(other.status_)) {}
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      id_ = other.id_;
      page_ = std::exchange(other.page_, nullptr);
      dirty_ = other.dirty_;
      status_ = std::move(other.status_);
    }
    return *this;
  }

  bool ok() const { return page_ != nullptr; }
  const Status& status() const { return status_; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }
  PageId id() const { return id_; }
  void MarkDirty() { dirty_ = true; }

  // Unpins early (idempotent).
  void Release() {
    if (page_ != nullptr) {
      pool_->UnpinPage(id_, dirty_);
      page_ = nullptr;
    }
  }

 private:
  BufferPool* pool_;
  PageId id_;
  Page* page_ = nullptr;
  bool dirty_ = false;
  Status status_;
};

}  // namespace focus::storage

#endif  // FOCUS_STORAGE_BUFFER_POOL_H_
