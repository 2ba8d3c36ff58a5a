#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace focus::storage {

namespace {
// Concurrent ascending miss streams tracked for auto-readahead. Table
// builds interleave heap and index pages, so two or three streams advance
// at once; eight gives slack without scanning cost.
constexpr size_t kMaxStreams = 8;
// A stream stays alive if the next miss lands within (window + gap) pages
// of the predicted position: pages served by the previous readahead batch
// produce no misses, so the stream only "hears" from its consumer again at
// the window edge.
constexpr uint32_t kStreamGap = 4;
// Back-step tolerance: interleaved sub-streams of one region (heap pages
// and the index leaves allocated alongside them) miss a few pages behind
// the stream head without being a different stream.
constexpr uint32_t kStreamBack = 8;
// Pipelining distance: once a consumer touches a prefetched page within
// this many pages of the stream's issued edge, the next window is read
// immediately, so a steady consumer never stalls on an edge miss.
constexpr uint32_t kStreamLead = 8;
}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t num_frames, Options options)
    : options_(options), disk_(disk) {
  if (num_frames < 4) num_frames = 4;  // room for a root, a leaf, a heap page
  num_frames_ = num_frames;
  frames_.resize(num_frames);
  pages_.resize(num_frames);
  for (size_t i = 0; i < num_frames; ++i) frames_[i].page = &pages_[i];
  free_frames_.reserve(num_frames);
  for (size_t i = num_frames; i > 0; --i) free_frames_.push_back(i - 1);
  streams_.resize(kMaxStreams);
}

BufferPool::~BufferPool() {
  if (collector_id_ != 0) metrics_registry_->RemoveCollector(collector_id_);
#ifdef FOCUS_SANITIZE
  if (outstanding_pins_ != 0) {
    std::fprintf(stderr,
                 "BufferPool destroyed with %lld outstanding pin(s): some "
                 "FetchPage/NewPage was never balanced by UnpinPage\n",
                 static_cast<long long>(outstanding_pins_));
    std::abort();
  }
#endif
}

void BufferPool::BindMetrics(obs::MetricsRegistry* registry,
                             std::string pool_name) {
  if (collector_id_ != 0) metrics_registry_->RemoveCollector(collector_id_);
  metrics_registry_ = obs::MetricsRegistry::OrGlobal(registry);
  obs::Labels labels = {{"pool", std::move(pool_name)}};
  collector_id_ = metrics_registry_->AddCollector(
      [this, labels](std::vector<obs::GaugeSample>* out) {
        Stats pool;
        DiskManager::Stats disk;
        {
          std::lock_guard<std::mutex> lock(latch_);
          pool = stats_;
          disk = disk_->stats();
        }
        auto emit = [&](const char* name, double v) {
          out->push_back({name, labels, v});
        };
        emit("focus_bufferpool_fetches_total", pool.fetches);
        emit("focus_bufferpool_hits_total", pool.hits);
        emit("focus_bufferpool_misses_total", pool.misses);
        emit("focus_bufferpool_evictions_total", pool.evictions);
        emit("focus_bufferpool_dirty_writebacks_total",
             pool.dirty_writebacks);
        emit("focus_bufferpool_readahead_issued_total",
             pool.readahead_issued);
        emit("focus_bufferpool_readahead_used_total", pool.readahead_used);
        emit("focus_bufferpool_hit_ratio", pool.hit_ratio());
        emit("focus_bufferpool_frames", num_frames_);
        emit("focus_disk_reads_total", disk.reads);
        emit("focus_disk_batch_reads_total", disk.batch_reads);
        emit("focus_disk_writes_total", disk.writes);
        emit("focus_disk_allocations_total", disk.allocations);
        emit("focus_disk_syncs_total", disk.syncs);
      });
}

Page* BufferPool::TouchHitLocked(Frame* f) {
  ++f->pin_count;
  f->last_used = ++clock_;
  ++stats_.hits;
#ifdef FOCUS_SANITIZE
  ++outstanding_pins_;
#endif
  if (f->uses++ == 0) {
    // First touch of a prefetched frame: the speculation paid off. The
    // frame is pinned now, so the extension's installs cannot evict it.
    ++stats_.readahead_used;
    MaybeExtendReadaheadLocked(f->page_id);
  }
  return f->page;
}

Status BufferPool::WriteBackLocked(Frame* f) {
  if (!f->dirty) return Status::OK();
  FOCUS_RETURN_IF_ERROR(disk_->WritePage(f->page_id, f->page->data));
  ++stats_.dirty_writebacks;
  f->dirty = false;
  return Status::OK();
}

Result<size_t> BufferPool::GetVictimLocked(uint64_t spare_spec_after) {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  // 2Q-style victim choice over three frame classes:
  //   A1   — fetched exactly once (a scan's consumed pages): evict first,
  //          LRU order. A sequential flood churns here and can never push
  //          out a hot index page while any A1 frame is evictable.
  //   spec — prefetched, never fetched: speculation with known future
  //          value; protected while the hot queue is over budget.
  //   hot  — fetched twice or more. Use counts only ever grow, so without
  //          a bound every frame eventually looks hot and readahead is
  //          squeezed into a handful of churn frames. Classic 2Q caps Am:
  //          once hot frames exceed half the pool, the LRU hot frame is
  //          evicted ahead of speculation.
  const size_t none = frames_.size();
  size_t best_a1 = none, best_spec = none, best_hot = none;
  uint64_t used_a1 = 0, used_spec = 0, used_hot = 0;
  size_t hot_count = 0;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.page_id == kInvalidPageId) continue;
    if (f.uses >= 2) ++hot_count;
    if (f.pin_count > 0) continue;
    if (f.uses == 1) {
      if (best_a1 == none || f.last_used < used_a1) {
        best_a1 = i;
        used_a1 = f.last_used;
      }
    } else if (f.uses == 0) {
      if (best_spec == none || f.last_used < used_spec) {
        best_spec = i;
        used_spec = f.last_used;
      }
    } else if (best_hot == none || f.last_used < used_hot) {
      best_hot = i;
      used_hot = f.last_used;
    }
  }
  size_t best = best_a1;
  if (best == none) {
    bool hot_over_budget = hot_count > frames_.size() / 2;
    best = hot_over_budget && best_hot != none ? best_hot : best_spec;
    if (best == none) best = best_hot;
  }
  if (best == none) {
    return Status::ResourceExhausted(
        StrCat("all ", frames_.size(), " buffer frames are pinned"));
  }
  Frame& f = frames_[best];
  if (f.uses == 0 && f.last_used > spare_spec_after) {
    return Status::ResourceExhausted("readahead batch fills the pool");
  }
  FOCUS_RETURN_IF_ERROR(WriteBackLocked(&f));
  table_.erase(f.page_id);
  f.page_id = kInvalidPageId;
  f.uses = 0;
  ++stats_.evictions;
  return best;
}

Result<Page*> BufferPool::FetchPage(PageId id) {
  std::lock_guard<std::mutex> lock(latch_);
  ++stats_.fetches;
  if (auto it = table_.find(id); it != table_.end()) {
    return TouchHitLocked(&frames_[it->second]);
  }
  ++stats_.misses;
  FOCUS_ASSIGN_OR_RETURN(size_t idx, GetVictimLocked());
  Frame& f = frames_[idx];
  if (Status s = disk_->ReadPage(id, f.page->data); !s.ok()) {
    free_frames_.push_back(idx);
    return s;
  }
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.uses = 1;
  f.last_used = ++clock_;
  table_[id] = idx;
#ifdef FOCUS_SANITIZE
  ++outstanding_pins_;
#endif
  // The fetched frame is pinned, so readahead installs cannot evict it.
  MaybeAutoReadaheadLocked(id);
  return f.page;
}

Result<Page*> BufferPool::NewPage(PageId* out_id) {
  std::lock_guard<std::mutex> lock(latch_);
  PageId id;
  const bool recycled = !free_pages_.empty();
  if (recycled) {
    id = *free_pages_.begin();
    free_pages_.erase(free_pages_.begin());
  } else {
    FOCUS_ASSIGN_OR_RETURN(id, disk_->AllocatePage());
  }
  size_t idx;
  if (auto it = table_.find(id); it != table_.end()) {
    // A recycled page a readahead reinstalled (or whose frame was pinned
    // when it was freed): reuse that frame, so one id never has two.
    idx = it->second;
  } else {
    Result<size_t> victim = GetVictimLocked();
    if (!victim.ok()) {
      if (recycled) free_pages_.insert(id);
      return victim.status();
    }
    idx = victim.value();
  }
  Frame& f = frames_[idx];
  f.page->Zero();
  f.page_id = id;
  ++f.pin_count;
  f.dirty = true;  // must reach disk even if never touched
  f.uses = 1;
  f.last_used = ++clock_;
  table_[id] = idx;
#ifdef FOCUS_SANITIZE
  ++outstanding_pins_;
#endif
  *out_id = id;
  return f.page;
}

void BufferPool::FreePages(const std::vector<PageId>& ids) {
  std::lock_guard<std::mutex> lock(latch_);
  for (PageId id : ids) {
    auto it = table_.find(id);
    if (it == table_.end()) continue;
    Frame& f = frames_[it->second];
    if (f.pin_count > 0) continue;
    // Dead bytes: no write-back, and the frame is free for the next fetch.
    f.dirty = false;
    f.page_id = kInvalidPageId;
    f.uses = 0;
    free_frames_.push_back(it->second);
    table_.erase(it);
  }
  free_pages_.insert(ids.begin(), ids.end());
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  std::lock_guard<std::mutex> lock(latch_);
  auto it = table_.find(id);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  if (dirty) f.dirty = true;
#ifdef FOCUS_SANITIZE
  if (f.pin_count <= 0) {
    std::fprintf(stderr, "UnpinPage(%u) without a matching pin\n", id);
    std::abort();
  }
  --outstanding_pins_;
#endif
  if (f.pin_count > 0) --f.pin_count;
}

void BufferPool::Prefetch(PageId first, uint32_t n) {
  std::lock_guard<std::mutex> lock(latch_);
  PrefetchLocked(first, n);
}

void BufferPool::PrefetchLocked(PageId first, uint32_t n) {
  // The common mid-window probe: the previous batch already covers the
  // next page, so the iterator's per-advance call costs one map lookup.
  if (n == 0 || table_.count(first) != 0) return;
  uint32_t device_pages = disk_->NumPages();
  if (first >= device_pages) return;
  n = std::min<uint32_t>(n, device_pages - first);
  // Only pages absent now are installed: a resident page may be newer than
  // its device image, and a victim write-back in the loop below can evict
  // it before its turn comes. Absent pages are current on the device, and
  // holding the latch keeps every other thread from touching them.
  std::vector<bool> resident(n);
  for (uint32_t i = 0; i < n; ++i) resident[i] = table_.count(first + i) != 0;
  std::vector<char> buf(static_cast<size_t>(n) * kPageSize);
  if (!disk_->ReadPages(first, n, buf.data()).ok()) return;
  const uint64_t batch_start = clock_;
  for (uint32_t i = 0; i < n; ++i) {
    if (resident[i]) continue;
    PageId id = first + i;
    Result<size_t> victim = GetVictimLocked(batch_start);
    if (!victim.ok()) return;  // no frame to spare: drop the speculation
    Frame& f = frames_[victim.value()];
    std::memcpy(f.page->data, buf.data() + static_cast<size_t>(i) * kPageSize,
                kPageSize);
    f.page_id = id;
    f.pin_count = 0;
    f.dirty = false;
    f.uses = 0;  // evict-first until used
    f.last_used = ++clock_;
    table_[id] = victim.value();
    ++stats_.readahead_issued;
  }
}

void BufferPool::MaybeAutoReadaheadLocked(PageId missed) {
  if (!options_.auto_readahead || options_.readahead_window == 0) return;
  ++stream_tick_;
  Stream* match = nullptr;
  for (Stream& s : streams_) {
    // Tolerate small back-steps as well as forward gaps: access paths
    // whose pages interleave in one region (a heap and the index built
    // alongside it) look like one ascending stream with +-stride jitter,
    // and splitting them into per-page-parity streams would thrash the
    // table.
    if (s.run > 0 && missed + kStreamBack >= s.next &&
        missed < s.next + options_.readahead_window + kStreamGap) {
      match = &s;
      break;
    }
  }
  if (match == nullptr) {
    Stream* victim = &streams_[0];
    for (Stream& s : streams_) {
      if (s.run == 0) {
        victim = &s;
        break;
      }
      if (s.tick < victim->tick) victim = &s;
    }
    victim->next = missed + 1;
    victim->issued = 0;
    victim->run = 1;
    victim->tick = stream_tick_;
    return;
  }
  // The stream's consumer surfaced again (pages in between were served by
  // the last batch): extend it and, once confirmed, read ahead — but never
  // below the issued edge. Jitter misses inside an already issued window
  // (an evicted straggler) must not re-read the whole window; only a miss
  // at or past the edge advances it.
  match->next = std::max<PageId>(match->next, missed + 1);
  match->tick = stream_tick_;
  if (++match->run >= 2 && missed + kStreamLead >= match->issued) {
    PageId start = std::max<PageId>(missed + 1, match->issued);
    match->issued = start + options_.readahead_window;
    PrefetchLocked(start, options_.readahead_window);
  }
}

void BufferPool::MaybeExtendReadaheadLocked(PageId used) {
  if (!options_.auto_readahead || options_.readahead_window == 0) return;
  for (Stream& s : streams_) {
    if (s.run < 2 || s.issued == 0) continue;
    if (used >= s.issued || s.issued - used > kStreamLead) continue;
    // The consumer is closing in on this stream's issued edge: read the
    // next window now, while the tail of the current one still feeds it.
    PageId start = s.issued;
    s.issued = start + options_.readahead_window;
    s.next = std::max<PageId>(s.next, used + 1);
    s.tick = ++stream_tick_;
    PrefetchLocked(start, options_.readahead_window);
    return;
  }
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(latch_);
  for (const auto& [page_id, idx] : table_) {
    FOCUS_RETURN_IF_ERROR(WriteBackLocked(&frames_[idx]));
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  std::lock_guard<std::mutex> lock(latch_);
  for (auto it = table_.begin(); it != table_.end();) {
    Frame& f = frames_[it->second];
    if (f.pin_count > 0) {
      ++it;
      continue;
    }
    FOCUS_RETURN_IF_ERROR(WriteBackLocked(&f));
    free_frames_.push_back(it->second);
    f.page_id = kInvalidPageId;
    f.uses = 0;
    it = table_.erase(it);
  }
  return Status::OK();
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(latch_);
  return stats_;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(latch_);
  stats_ = Stats{};
}

}  // namespace focus::storage
