#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace focus::storage {

namespace {
// Auto-sharding: one sub-pool per this many frames, capped below.
constexpr size_t kFramesPerShard = 64;
constexpr size_t kMaxAutoShards = 8;
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
  size_t shards = options_.shards;
  if (shards == 0) {
    shards = std::clamp<size_t>(num_frames / kFramesPerShard, 1,
                                kMaxAutoShards);
  }
  // Every shard needs enough frames for one descent (root, leaf, heap).
  shards = std::clamp<size_t>(shards, 1, std::max<size_t>(1, num_frames / 4));
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    size_t n = num_frames / shards + (s < num_frames % shards ? 1 : 0);
    shard->frames.reserve(n);
    shard->free_frames.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      shard->frames.push_back(std::make_unique<Frame>());
      shard->free_frames.push_back(n - 1 - i);
    }
    shards_.push_back(std::move(shard));
  }
  streams_.resize(kMaxStreams);
}

BufferPool::~BufferPool() {
  if (collector_id_ != 0) metrics_registry_->RemoveCollector(collector_id_);
#ifdef FOCUS_SANITIZE
  int64_t pins = outstanding_pins_.load(std::memory_order_relaxed);
  if (pins != 0) {
    std::fprintf(stderr,
                 "BufferPool destroyed with %lld outstanding pin(s): some "
                 "FetchPage/NewPage was never balanced by UnpinPage\n",
                 static_cast<long long>(pins));
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
        Stats pool = stats();
        DiskManager::Stats disk;
        {
          std::lock_guard<std::mutex> lock(io_mutex_);
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
        emit("focus_bufferpool_shards", shards_.size());
        emit("focus_disk_reads_total", disk.reads);
        emit("focus_disk_batch_reads_total", disk.batch_reads);
        emit("focus_disk_writes_total", disk.writes);
        emit("focus_disk_allocations_total", disk.allocations);
        emit("focus_disk_syncs_total", disk.syncs);
        for (size_t s = 0; s < shards_.size(); ++s) {
          Stats sh = shard_stats(s);
          obs::Labels sl = labels;
          sl.push_back({"shard", StrCat(s)});
          auto emit_shard = [&](const char* name, double v) {
            out->push_back({name, sl, v});
          };
          emit_shard("focus_bufferpool_shard_fetches_total", sh.fetches);
          emit_shard("focus_bufferpool_shard_hits_total", sh.hits);
          emit_shard("focus_bufferpool_shard_misses_total", sh.misses);
          emit_shard("focus_bufferpool_shard_evictions_total", sh.evictions);
        }
      });
}

Page* BufferPool::TouchHitLocked(Shard* shard, Frame* f,
                                 bool* first_spec_use) {
  f->pin_count.fetch_add(1, std::memory_order_acq_rel);
  f->last_used.store(
      shard->clock.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  uint32_t prev = f->uses.fetch_add(1, std::memory_order_relaxed);
  shard->stats.hits.fetch_add(1, std::memory_order_relaxed);
  if (prev == 0) {
    // First touch of a prefetched frame: the speculation paid off.
    shard->stats.readahead_used.fetch_add(1, std::memory_order_relaxed);
    *first_spec_use = true;
  }
#ifdef FOCUS_SANITIZE
  outstanding_pins_.fetch_add(1, std::memory_order_relaxed);
#endif
  return &f->page;
}

Result<size_t> BufferPool::GetVictimLocked(Shard* shard, bool allow_steal) {
  if (!shard->free_frames.empty()) {
    size_t idx = shard->free_frames.back();
    shard->free_frames.pop_back();
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
  //          once hot frames exceed half the shard, the LRU hot frame is
  //          evicted ahead of speculation.
  size_t best_a1 = shard->frames.size(), best_spec = best_a1,
         best_hot = best_a1;
  uint64_t used_a1 = 0, used_spec = 0, used_hot = 0;
  size_t hot_count = 0;
  for (size_t i = 0; i < shard->frames.size(); ++i) {
    if (shard->frames[i] == nullptr) continue;  // hole left by a steal
    Frame& f = *shard->frames[i];
    if (f.page_id == kInvalidPageId) continue;
    uint32_t uses = f.uses.load(std::memory_order_relaxed);
    if (uses >= 2) ++hot_count;
    if (f.pin_count.load(std::memory_order_acquire) > 0) continue;
    uint64_t used = f.last_used.load(std::memory_order_relaxed);
    if (uses == 1) {
      if (best_a1 == shard->frames.size() || used < used_a1) {
        best_a1 = i;
        used_a1 = used;
      }
    } else if (uses == 0) {
      if (best_spec == shard->frames.size() || used < used_spec) {
        best_spec = i;
        used_spec = used;
      }
    } else if (best_hot == shard->frames.size() || used < used_hot) {
      best_hot = i;
      used_hot = used;
    }
  }
  size_t best = best_a1;
  if (best == shard->frames.size()) {
    bool hot_over_budget = hot_count > shard->frames.size() / 2;
    best = hot_over_budget && best_hot != shard->frames.size() ? best_hot
                                                               : best_spec;
    if (best == shard->frames.size()) best = best_hot;
  }
  if (best == shard->frames.size()) {
    if (allow_steal) {
      Result<size_t> stolen = StealFrameLocked(shard);
      if (stolen.ok()) return stolen;
    }
    return Status::ResourceExhausted(
        StrCat("all ", shard->frames.size(), " buffer frames of shard are ",
               "pinned (", num_frames_, " frames, ", shards_.size(),
               " shards)"));
  }
  Frame& f = *shard->frames[best];
  if (f.dirty.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> io(io_mutex_);
    FOCUS_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.page.data));
    shard->stats.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
    f.dirty.store(false, std::memory_order_relaxed);
    shard->writeback_gen.fetch_add(1, std::memory_order_release);
  }
  shard->table.erase(f.page_id);
  f.page_id = kInvalidPageId;
  f.uses.store(0, std::memory_order_relaxed);
  shard->stats.evictions.fetch_add(1, std::memory_order_relaxed);
  return best;
}

Result<size_t> BufferPool::StealFrameLocked(Shard* shard) {
  for (auto& donor_owner : shards_) {
    Shard* donor = donor_owner.get();
    if (donor == shard) continue;
    // try_lock only: we hold `shard`'s latch, and a thread stealing in the
    // other direction holds `donor`'s, so blocking here could deadlock.
    std::unique_lock<std::shared_mutex> donor_latch(donor->latch,
                                                    std::try_to_lock);
    if (!donor_latch.owns_lock()) continue;
    // No nested stealing: the donor must give up one of its own frames
    // (free, or evicted here — which also write-backs and bumps the
    // donor's generation as any eviction does).
    Result<size_t> victim = GetVictimLocked(donor, /*allow_steal=*/false);
    if (!victim.ok()) continue;
    shard->frames.push_back(std::move(donor->frames[victim.value()]));
    return shard->frames.size() - 1;
  }
  return Status::ResourceExhausted("no shard has an evictable frame");
}

Result<Page*> BufferPool::FetchPage(PageId id) {
  Shard* shard = shards_[ShardOf(id)].get();
  shard->stats.fetches.fetch_add(1, std::memory_order_relaxed);
  bool first_spec_use = false;
  Page* page = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(shard->latch);
    if (auto it = shard->table.find(id); it != shard->table.end()) {
      page = TouchHitLocked(shard, shard->frames[it->second].get(),
                            &first_spec_use);
    }
  }
  if (page != nullptr) {
    // The hit pinned the frame, so extending readahead (which takes shard
    // latches and the io mutex) is safe latch-free here.
    if (first_spec_use) MaybeExtendReadahead(id);
    return page;
  }
  {
    std::unique_lock<std::shared_mutex> lock(shard->latch);
    // Another thread may have loaded the page between latch modes.
    if (auto it = shard->table.find(id); it != shard->table.end()) {
      page = TouchHitLocked(shard, shard->frames[it->second].get(),
                            &first_spec_use);
      lock.unlock();
      if (first_spec_use) MaybeExtendReadahead(id);
      return page;
    }
    shard->stats.misses.fetch_add(1, std::memory_order_relaxed);
    FOCUS_ASSIGN_OR_RETURN(size_t idx,
                           GetVictimLocked(shard, /*allow_steal=*/true));
    Frame& f = *shard->frames[idx];
    {
      std::lock_guard<std::mutex> io(io_mutex_);
      Status s = disk_->ReadPage(id, f.page.data);
      if (!s.ok()) {
        shard->free_frames.push_back(idx);
        return s;
      }
    }
    f.page_id = id;
    f.pin_count.store(1, std::memory_order_release);
    f.dirty.store(false, std::memory_order_relaxed);
    f.uses.store(1, std::memory_order_relaxed);
    f.last_used.store(
        shard->clock.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    shard->table[id] = idx;
    page = &f.page;
  }
#ifdef FOCUS_SANITIZE
  outstanding_pins_.fetch_add(1, std::memory_order_relaxed);
#endif
  // The fetched frame is pinned, so readahead (which takes other shard
  // latches) is safe to run latch-free here.
  MaybeAutoReadahead(id);
  return page;
}

Result<Page*> BufferPool::NewPage(PageId* out_id) {
  PageId id = kInvalidPageId;
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    if (!free_pages_.empty()) {
      id = *free_pages_.begin();
      free_pages_.erase(free_pages_.begin());
    }
  }
  const bool recycled = id != kInvalidPageId;
  if (!recycled) {
    std::lock_guard<std::mutex> io(io_mutex_);
    FOCUS_ASSIGN_OR_RETURN(id, disk_->AllocatePage());
  }
  Shard* shard = shards_[ShardOf(id)].get();
  std::unique_lock<std::shared_mutex> lock(shard->latch);
  size_t idx;
  if (auto it = shard->table.find(id); it != shard->table.end()) {
    // A recycled page a readahead reinstalled (or whose frame was pinned
    // when it was freed): reuse that frame, so one id never has two.
    idx = it->second;
  } else {
    Result<size_t> victim = GetVictimLocked(shard, /*allow_steal=*/true);
    if (!victim.ok()) {
      if (recycled) {
        std::lock_guard<std::mutex> free_lock(free_mutex_);
        free_pages_.insert(id);
      }
      return victim.status();
    }
    idx = victim.value();
  }
  Frame& f = *shard->frames[idx];
  f.page.Zero();
  f.page_id = id;
  f.pin_count.fetch_add(1, std::memory_order_acq_rel);
  f.dirty.store(true, std::memory_order_relaxed);  // must reach disk even
                                                   // if never touched
  f.uses.store(1, std::memory_order_relaxed);
  f.last_used.store(shard->clock.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  shard->table[id] = idx;
#ifdef FOCUS_SANITIZE
  outstanding_pins_.fetch_add(1, std::memory_order_relaxed);
#endif
  *out_id = id;
  return &f.page;
}

void BufferPool::FreePages(const std::vector<PageId>& ids) {
  for (PageId id : ids) {
    Shard* shard = shards_[ShardOf(id)].get();
    std::unique_lock<std::shared_mutex> lock(shard->latch);
    auto it = shard->table.find(id);
    if (it == shard->table.end()) continue;
    Frame& f = *shard->frames[it->second];
    if (f.pin_count.load(std::memory_order_acquire) > 0) continue;
    // Dead bytes: no write-back, and the frame is free for the next fetch.
    f.dirty.store(false, std::memory_order_relaxed);
    f.page_id = kInvalidPageId;
    f.uses.store(0, std::memory_order_relaxed);
    shard->free_frames.push_back(it->second);
    shard->table.erase(it);
  }
  std::lock_guard<std::mutex> lock(free_mutex_);
  free_pages_.insert(ids.begin(), ids.end());
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  Shard* shard = shards_[ShardOf(id)].get();
  std::shared_lock<std::shared_mutex> lock(shard->latch);
  auto it = shard->table.find(id);
  if (it == shard->table.end()) return;
  Frame& f = *shard->frames[it->second];
  if (dirty) f.dirty.store(true, std::memory_order_relaxed);
  int32_t prev = f.pin_count.load(std::memory_order_relaxed);
  while (prev > 0 &&
         !f.pin_count.compare_exchange_weak(prev, prev - 1,
                                            std::memory_order_acq_rel)) {
  }
#ifdef FOCUS_SANITIZE
  if (prev <= 0) {
    std::fprintf(stderr, "UnpinPage(%u) without a matching pin\n", id);
    std::abort();
  }
  outstanding_pins_.fetch_sub(1, std::memory_order_relaxed);
#endif
}

void BufferPool::Prefetch(PageId first, uint32_t n) {
  if (n == 0) return;
  {
    // The common mid-window probe: the previous batch already covers the
    // next page, so the iterator's per-advance call costs one map lookup.
    Shard* shard = shards_[ShardOf(first)].get();
    std::shared_lock<std::shared_mutex> lock(shard->latch);
    if (shard->table.count(first) != 0) return;
  }
  std::vector<char> buf;
  std::vector<uint64_t> gens(shards_.size());
  {
    std::lock_guard<std::mutex> io(io_mutex_);
    uint32_t device_pages = disk_->NumPages();
    if (first >= device_pages) return;
    n = std::min<uint32_t>(n, device_pages - first);
    buf.resize(static_cast<size_t>(n) * kPageSize);
    if (!disk_->ReadPages(first, n, buf.data()).ok()) return;
    // Sample each shard's write-back generation while still holding the
    // I/O mutex (write-backs advance it under the same mutex): any page
    // written back after this point makes its shard's installs below
    // stale, and the per-page check catches exactly those.
    for (size_t s = 0; s < shards_.size(); ++s) {
      gens[s] = shards_[s]->writeback_gen.load(std::memory_order_acquire);
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    PageId id = first + i;
    size_t shard_idx = ShardOf(id);
    Shard* shard = shards_[shard_idx].get();
    std::unique_lock<std::shared_mutex> lock(shard->latch);
    // Stale-read guard: if any of this shard's pages was written back
    // since the batch read, our buffered image of `id` may predate a
    // modify+evict cycle of the very same page — installing it would
    // resurrect the pre-modification version as a clean resident frame.
    // Write-backs require residency and happen under this exclusive
    // latch, so an unchanged generation here proves no such cycle
    // completed, and none can start before the install below is visible.
    if (shard->writeback_gen.load(std::memory_order_acquire) !=
        gens[shard_idx]) {
      continue;
    }
    if (shard->table.count(id) != 0) continue;
    auto victim = GetVictimLocked(shard, /*allow_steal=*/false);
    if (!victim.ok()) continue;  // shard fully pinned: drop the speculation
    Frame& f = *shard->frames[victim.value()];
    std::memcpy(f.page.data, buf.data() + static_cast<size_t>(i) * kPageSize,
                kPageSize);
    f.page_id = id;
    f.pin_count.store(0, std::memory_order_release);
    f.dirty.store(false, std::memory_order_relaxed);
    f.uses.store(0, std::memory_order_relaxed);  // evict-first until used
    f.last_used.store(shard->clock.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    shard->table[id] = victim.value();
    shard->stats.readahead_issued.fetch_add(1, std::memory_order_relaxed);
  }
}

void BufferPool::MaybeAutoReadahead(PageId missed) {
  if (!options_.auto_readahead || options_.readahead_window == 0) return;
  PageId start = kInvalidPageId;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
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
    if (match != nullptr) {
      // The stream's consumer surfaced again (pages in between were served
      // by the last batch): extend it and, once confirmed, read ahead —
      // but never below the issued edge. Jitter misses inside an already
      // issued window (an evicted straggler) must not re-read the whole
      // window; only a miss at or past the edge advances it.
      match->next = std::max<PageId>(match->next, missed + 1);
      match->tick = stream_tick_;
      if (++match->run >= 2 && missed + kStreamLead >= match->issued) {
        start = std::max<PageId>(missed + 1, match->issued);
        match->issued = start + options_.readahead_window;
      }
    } else {
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
    }
  }
  if (start != kInvalidPageId) Prefetch(start, options_.readahead_window);
}

void BufferPool::MaybeExtendReadahead(PageId used) {
  if (!options_.auto_readahead || options_.readahead_window == 0) return;
  PageId start = kInvalidPageId;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    for (Stream& s : streams_) {
      if (s.run < 2 || s.issued == 0) continue;
      if (used >= s.issued || s.issued - used > kStreamLead) continue;
      // The consumer is closing in on this stream's issued edge: read the
      // next window now, while the tail of the current one still feeds it.
      start = s.issued;
      s.issued = start + options_.readahead_window;
      s.next = std::max<PageId>(s.next, used + 1);
      s.tick = ++stream_tick_;
      break;
    }
  }
  if (start != kInvalidPageId) Prefetch(start, options_.readahead_window);
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->latch);
    for (auto& [page_id, idx] : shard->table) {
      Frame& f = *shard->frames[idx];
      if (!f.dirty.load(std::memory_order_relaxed)) continue;
      std::lock_guard<std::mutex> io(io_mutex_);
      FOCUS_RETURN_IF_ERROR(disk_->WritePage(page_id, f.page.data));
      shard->stats.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
      f.dirty.store(false, std::memory_order_relaxed);
      shard->writeback_gen.fetch_add(1, std::memory_order_release);
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->latch);
    for (auto it = shard->table.begin(); it != shard->table.end();) {
      Frame& f = *shard->frames[it->second];
      if (f.pin_count.load(std::memory_order_acquire) > 0) {
        ++it;
        continue;
      }
      if (f.dirty.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> io(io_mutex_);
        FOCUS_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.page.data));
        shard->stats.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
        f.dirty.store(false, std::memory_order_relaxed);
        shard->writeback_gen.fetch_add(1, std::memory_order_release);
      }
      shard->free_frames.push_back(it->second);
      f.page_id = kInvalidPageId;
      f.uses.store(0, std::memory_order_relaxed);
      it = shard->table.erase(it);
    }
  }
  return Status::OK();
}

BufferPool::Stats BufferPool::stats() const {
  Stats total;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Stats sh = shard_stats(s);
    total.fetches += sh.fetches;
    total.hits += sh.hits;
    total.misses += sh.misses;
    total.evictions += sh.evictions;
    total.dirty_writebacks += sh.dirty_writebacks;
    total.readahead_issued += sh.readahead_issued;
    total.readahead_used += sh.readahead_used;
  }
  return total;
}

BufferPool::Stats BufferPool::shard_stats(size_t i) const {
  const ShardStats& s = shards_[i]->stats;
  Stats out;
  out.fetches = s.fetches.load(std::memory_order_relaxed);
  out.hits = s.hits.load(std::memory_order_relaxed);
  out.misses = s.misses.load(std::memory_order_relaxed);
  out.evictions = s.evictions.load(std::memory_order_relaxed);
  out.dirty_writebacks = s.dirty_writebacks.load(std::memory_order_relaxed);
  out.readahead_issued = s.readahead_issued.load(std::memory_order_relaxed);
  out.readahead_used = s.readahead_used.load(std::memory_order_relaxed);
  return out;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    ShardStats& s = shard->stats;
    s.fetches.store(0, std::memory_order_relaxed);
    s.hits.store(0, std::memory_order_relaxed);
    s.misses.store(0, std::memory_order_relaxed);
    s.evictions.store(0, std::memory_order_relaxed);
    s.dirty_writebacks.store(0, std::memory_order_relaxed);
    s.readahead_issued.store(0, std::memory_order_relaxed);
    s.readahead_used.store(0, std::memory_order_relaxed);
  }
}

}  // namespace focus::storage
