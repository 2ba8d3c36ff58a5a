// Buffer pool: scan resistance, readahead, PageGuard semantics,
// batched device reads, and multi-threaded pin/unpin (run under TSan in
// the CI storage job).
//
// The replacement-policy tests pin down the 2Q properties the Figure 8
// benchmarks depend on: a sequential flood churns only once-used frames
// (hot index pages survive), and a hot-monopolized pool still admits
// readahead speculation (the bounded hot queue).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/string_util.h"

namespace focus::storage {
namespace {

// Seeds `n` pages through the pool (page i carries i at offset 0), flushes
// them to the device, and empties the pool so every later fetch starts cold.
std::vector<PageId> SeedPages(BufferPool* pool, int n) {
  std::vector<PageId> ids(n);
  for (int i = 0; i < n; ++i) {
    auto page = pool->NewPage(&ids[i]);
    EXPECT_TRUE(page.ok());
    page.value()->Write<uint32_t>(0, static_cast<uint32_t>(i));
    pool->UnpinPage(ids[i], true);
  }
  EXPECT_TRUE(pool->EvictAll().ok());
  pool->ResetStats();
  return ids;
}

TEST(BufferPoolScanResistanceTest, SequentialFloodCannotEvictHotPages) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  std::vector<PageId> ids = SeedPages(&pool, 80);

  // Heat two pages (an index root and an upper level, say): two fetches
  // each puts them in the hot class, and two hot frames are well under
  // the half-pool hot budget.
  for (int round = 0; round < 2; ++round) {
    for (PageId id : {ids[0], ids[1]}) {
      ASSERT_TRUE(pool.FetchPage(id).ok());
      pool.UnpinPage(id, false);
    }
  }

  // A sequential flood an order of magnitude larger than the pool: every
  // page fetched exactly once churns through the A1 class only.
  for (int i = 2; i < 80; ++i) {
    ASSERT_TRUE(pool.FetchPage(ids[i]).ok());
    pool.UnpinPage(ids[i], false);
  }

  uint64_t misses_before = pool.stats().misses;
  for (PageId id : {ids[0], ids[1]}) {
    auto page = pool.FetchPage(id);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value()->Read<uint32_t>(0), id);
    pool.UnpinPage(id, false);
  }
  EXPECT_EQ(pool.stats().misses, misses_before)
      << "the flood evicted a hot page";
}

TEST(BufferPoolScanResistanceTest, BoundedHotQueueStillAdmitsSpeculation) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  std::vector<PageId> ids = SeedPages(&pool, 16);

  // Monopolize the pool: every frame hot (fetched twice). Without the
  // half-pool bound on the hot class nothing would be evictable ahead
  // of speculation and prefetched pages would be destroyed on arrival.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(pool.FetchPage(ids[i]).ok());
      pool.UnpinPage(ids[i], false);
    }
  }

  pool.Prefetch(ids[8], 4);
  EXPECT_EQ(pool.stats().readahead_issued, 4u);
  uint64_t misses_before = pool.stats().misses;
  for (int i = 8; i < 12; ++i) {
    auto page = pool.FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value()->Read<uint32_t>(0), static_cast<uint32_t>(i));
    pool.UnpinPage(ids[i], false);
  }
  EXPECT_EQ(pool.stats().misses, misses_before)
      << "speculation was evicted before use";
  EXPECT_EQ(pool.stats().readahead_used, 4u);
}

TEST(BufferPoolReadaheadTest, AscendingMissStreamIsDetectedAndCovered) {
  MemDiskManager disk;
  BufferPool pool(&disk, 64,
                  BufferPool::Options{.readahead_window = 8,
                                      .auto_readahead = true});
  std::vector<PageId> ids = SeedPages(&pool, 200);

  for (int i = 0; i < 200; ++i) {
    auto page = pool.FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value()->Read<uint32_t>(0), static_cast<uint32_t>(i));
    pool.UnpinPage(ids[i], false);
  }
  BufferPool::Stats s = pool.stats();
  // Startup costs a couple of misses; after that the stream's issued edge
  // extends ahead of the consumer and everything is a prefetched hit.
  EXPECT_LE(s.misses, 10u);
  EXPECT_GE(s.readahead_used, 180u);
  EXPECT_GT(s.hit_ratio(), 0.9);
  // The issued-edge bookkeeping reads each swept page at most once.
  EXPECT_LE(s.readahead_issued, 220u);
  // Batched: far fewer vector ops than pages read.
  EXPECT_LE(disk.stats().batch_reads, 40u);
}

TEST(BufferPoolReadaheadTest, PrefetchIsAdvisoryPastDeviceEnd) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  std::vector<PageId> ids = SeedPages(&pool, 8);
  pool.Prefetch(ids[4], 100);  // window runs past the device: clamped
  EXPECT_EQ(pool.stats().readahead_issued, 4u);
  pool.Prefetch(1000, 8);  // entirely unallocated: a no-op, not an error
  EXPECT_EQ(pool.stats().readahead_issued, 4u);
}

TEST(BufferPoolReadaheadTest, OversizedPrefetchStopsAtThePoolSize) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  std::vector<PageId> ids = SeedPages(&pool, 32);
  // A batch four times the pool installs what fits and stops: evicting
  // its own earlier pages would only churn frames under the latch.
  pool.Prefetch(ids[0], 32);
  EXPECT_EQ(pool.stats().readahead_issued, 8u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.FetchPage(ids[i]).ok());
    pool.UnpinPage(ids[i], false);
  }
  EXPECT_EQ(pool.stats().misses, 0u);
  EXPECT_EQ(pool.stats().readahead_used, 8u);
}

TEST(BufferPoolPinningTest, FetchFailsOnlyWhilePoolFullyPinned) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4);
  std::vector<PageId> ids = SeedPages(&pool, 5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.FetchPage(ids[i]).ok());
  }
  auto r = pool.FetchPage(ids[4]);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  pool.Prefetch(ids[4], 1);  // advisory: swallowed, not an error

  pool.UnpinPage(ids[0], false);
  auto again = pool.FetchPage(ids[4]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->Read<uint32_t>(0), 4u);
  pool.UnpinPage(ids[4], false);
  for (int i = 1; i < 4; ++i) pool.UnpinPage(ids[i], false);
}

TEST(BufferPoolPinningTest, PinCapacityIsPoolGlobal) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  std::vector<PageId> ids = SeedPages(&pool, 9);
  // Callers may hold num_frames concurrent pins.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.FetchPage(ids[i]).ok()) << "pin " << i;
  }
  // Only a truly full pool refuses.
  auto r = pool.FetchPage(ids[8]);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  for (int i = 0; i < 8; ++i) pool.UnpinPage(ids[i], false);
}

TEST(PageGuardTest, MoveConstructionTransfersThePin) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  std::vector<PageId> ids = SeedPages(&pool, 1);
  {
    PageGuard a(&pool, ids[0]);
    ASSERT_TRUE(a.ok());
    PageGuard b(std::move(a));
    EXPECT_FALSE(a.ok());  // moved-from: released, double-unpin impossible
    EXPECT_TRUE(b.ok());
    EXPECT_EQ(b.page()->Read<uint32_t>(0), 0u);
  }  // exactly one unpin happens here
  // The page is now unpinned: a full pool can evict it.
  ASSERT_TRUE(pool.EvictAll().ok());
}

TEST(PageGuardTest, MoveAssignmentReleasesTheOldPin) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  std::vector<PageId> ids = SeedPages(&pool, 2);
  PageGuard a(&pool, ids[0]);
  PageGuard b(&pool, ids[1]);
  ASSERT_TRUE(a.ok() && b.ok());
  a = std::move(b);  // must unpin ids[0], then own ids[1]
  EXPECT_EQ(a.id(), ids[1]);
  EXPECT_FALSE(b.ok());
  a.Release();
  a.Release();  // idempotent
  // Both pins are gone: EvictAll (which skips pinned frames) empties the
  // pool, so a re-fetch of either page is a cold miss.
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchPage(ids[0]).ok());
  pool.UnpinPage(ids[0], false);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(PageGuardTest, DirtyMarkSurvivesReleaseAndRepin) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  std::vector<PageId> ids = SeedPages(&pool, 1);
  {
    PageGuard g(&pool, ids[0]);
    ASSERT_TRUE(g.ok());
    g.page()->Write<uint32_t>(0, 4242);
    g.MarkDirty();
    // A second, clean pin of the same page released after the dirty one
    // must not wash out the dirty mark (the pool merges, never clears).
    PageGuard clean(&pool, ids[0]);
    ASSERT_TRUE(clean.ok());
    g.Release();
    clean.Release();
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  PageGuard back(&pool, ids[0]);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.page()->Read<uint32_t>(0), 4242u);
  EXPECT_EQ(pool.stats().misses, 1u);  // really re-read from the device
}

TEST(PageGuardTest, FailedFetchReportsStatus) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  PageGuard g(&pool, 123);  // unallocated
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.page(), nullptr);
  g.Release();  // safe on a failed guard
}

#ifdef FOCUS_SANITIZE
TEST(BufferPoolSanitizeDeathTest, UnbalancedUnpinAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  PageId id;
  ASSERT_TRUE(pool.NewPage(&id).ok());
  pool.UnpinPage(id, true);
  EXPECT_DEATH(pool.UnpinPage(id, false), "without a matching pin");
}
#endif

TEST(BufferPoolConcurrencyTest, ParallelPinUnpinKeepsContentsIntact) {
  constexpr int kThreads = 8;
  constexpr int kPages = 512;
  constexpr int kIters = 4000;
  MemDiskManager disk;
  BufferPool pool(&disk, 256);
  std::vector<PageId> ids = SeedPages(&pool, kPages);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9E3779B9u * (t + 1);
      for (int i = 0; i < kIters; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        PageId id = ids[(state >> 33) % kPages];
        auto page = pool.FetchPage(id);
        if (!page.ok()) {  // transiently full pool is legal under load
          continue;
        }
        bool dirty = false;
        if (page.value()->Read<uint32_t>(0) != id) failures.fetch_add(1);
        if (i % 7 == t % 7) {
          // Scribble in a thread-private slot; offset 0 stays the page id.
          page.value()->Write<uint32_t>(64 + 4 * t, uint32_t(i));
          dirty = true;
        }
        pool.UnpinPage(id, dirty);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Every page still carries its id after the storm.
  for (int i = 0; i < kPages; ++i) {
    auto page = pool.FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value()->Read<uint32_t>(0), static_cast<uint32_t>(i));
    pool.UnpinPage(ids[i], false);
  }
}

TEST(BufferPoolConcurrencyTest, PrefetchNeverResurrectsStalePages) {
  // One thread keeps prefetching the whole range while writers modify
  // pages through a pool far smaller than the working set, so dirty
  // write-backs race the prefetcher's batch reads constantly. A prefetch
  // that installs its pre-write-back read as a clean resident frame
  // surfaces as a lost update: each writer's private slot must always
  // read back exactly what that writer last wrote.
  constexpr int kPages = 64;
  constexpr int kWriters = 4;
  constexpr int kIters = 20000;
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  std::vector<PageId> ids = SeedPages(&pool, kPages);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread prefetcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // One whole-range batch: a long read-then-install window that a
      // writer's modify+evict cycle would have to slip into.
      pool.Prefetch(ids[0], kPages);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      uint64_t state = 0x12345u + t;
      std::vector<uint32_t> last(kPages, 0);
      for (int i = 0; i < kIters; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        size_t idx = (state >> 33) % kPages;
        auto page = pool.FetchPage(ids[idx]);
        if (!page.ok()) continue;  // transiently full pool: legal
        uint32_t v = page.value()->Read<uint32_t>(8 + 4 * t);
        if (v != last[idx]) failures.fetch_add(1);
        last[idx] = v + 1;
        page.value()->Write<uint32_t>(8 + 4 * t, v + 1);
        pool.UnpinPage(ids[idx], true);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  prefetcher.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(BufferPoolConcurrencyTest, ConcurrentReadaheadAndFetchesAgree) {
  // Threads walk disjoint ascending ranges through one auto-readahead
  // pool: stream detection, prefetch installs and hits race on the pool
  // latch. Contents must stay correct and the pool balanced.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 256;
  MemDiskManager disk;
  BufferPool pool(&disk, 256,
                  BufferPool::Options{.readahead_window = 8,
                                      .auto_readahead = true});
  std::vector<PageId> ids = SeedPages(&pool, kThreads * kPerThread);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        PageId id = ids[t * kPerThread + i];
        auto page = pool.FetchPage(id);
        if (!page.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (page.value()->Read<uint32_t>(0) != id) failures.fetch_add(1);
        pool.UnpinPage(id, false);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MemDiskManagerBatchedReadTest, ReadPagesMatchesPerPageReads) {
  MemDiskManager disk;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(disk.AllocatePage().ok());
    Page p;
    p.Zero();
    p.Write<uint32_t>(0, 1000 + i);
    ASSERT_TRUE(disk.WritePage(i, p.data).ok());
  }
  std::vector<char> buf(6 * kPageSize);
  ASSERT_TRUE(disk.ReadPages(2, 6, buf.data()).ok());
  for (int i = 0; i < 6; ++i) {
    uint32_t v;
    std::memcpy(&v, buf.data() + static_cast<size_t>(i) * kPageSize,
                sizeof v);
    EXPECT_EQ(v, 1002u + i);
  }
  EXPECT_EQ(disk.stats().batch_reads, 1u);
  EXPECT_EQ(disk.stats().reads, 6u);  // batched reads count per page
  // The whole run must be allocated.
  EXPECT_EQ(disk.ReadPages(8, 4, buf.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(disk.ReadPages(3, 0, buf.data()).ok());  // empty run: no-op
}

TEST(WalBatchedReadTest, OverlayPagesSplitTheForwardedRuns) {
  MemDiskManager data, log;
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  Page img;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal->AllocatePage().ok());
    img.Zero();
    img.Write<uint32_t>(0, 500 + i);
    ASSERT_TRUE(wal->WritePage(i, img.data).ok());
  }
  ASSERT_TRUE(wal->Commit("m").ok());
  // Everything is still overlay-resident: a batched read is served from
  // memory, no data-device I/O at all.
  std::vector<char> buf(8 * kPageSize);
  uint64_t dev_batches = data.stats().batch_reads;
  uint64_t dev_reads = data.stats().reads;
  ASSERT_TRUE(wal->ReadPages(0, 8, buf.data()).ok());
  EXPECT_EQ(data.stats().batch_reads, dev_batches);
  EXPECT_EQ(data.stats().reads, dev_reads);

  // Checkpoint folds the overlay down; re-dirty page 3 only. A batched
  // read of [0, 8) must now split into two device runs around the overlay
  // page: [0, 3) and [4, 8).
  ASSERT_TRUE(wal->Checkpoint("m").ok());
  img.Zero();
  img.Write<uint32_t>(0, 9999);
  ASSERT_TRUE(wal->WritePage(3, img.data).ok());
  dev_batches = data.stats().batch_reads;
  ASSERT_TRUE(wal->ReadPages(0, 8, buf.data()).ok());
  EXPECT_EQ(data.stats().batch_reads, dev_batches + 2);
  for (int i = 0; i < 8; ++i) {
    uint32_t v;
    std::memcpy(&v, buf.data() + static_cast<size_t>(i) * kPageSize,
                sizeof v);
    EXPECT_EQ(v, i == 3 ? 9999u : 500u + i) << "page " << i;
  }
  // Past the committed horizon the batched read fails like ReadPage does.
  EXPECT_FALSE(wal->ReadPages(6, 4, buf.data()).ok());
}

TEST(BufferPoolMetricsTest, PoolSamplesExport) {
  obs::MetricsRegistry registry;
  MemDiskManager disk;
  BufferPool pool(&disk, 128);
  pool.BindMetrics(&registry, "test_pool");
  SeedPages(&pool, 32);
  for (PageId id = 0; id < 32; ++id) {
    ASSERT_TRUE(pool.FetchPage(id).ok());
    pool.UnpinPage(id, false);
  }
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("focus_bufferpool_hit_ratio"), std::string::npos);
  EXPECT_NE(json.find("focus_bufferpool_readahead_issued_total"),
            std::string::npos);
  EXPECT_NE(json.find("focus_disk_batch_reads_total"), std::string::npos);
  EXPECT_EQ(json.find("focus_bufferpool_shard"), std::string::npos);
}

// ---------------------------------------------------------------------
// Free-page list.

TEST(FreePageListTest, NewPageReusesLowestFreedIdsBeforeGrowing) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  for (int i = 0; i < 8; ++i) {
    PageId id;
    ASSERT_TRUE(pool.NewPage(&id).ok());
    pool.UnpinPage(id, true);
  }
  pool.FreePages({5, 2, 7});
  for (PageId want : {2u, 5u, 7u, 8u}) {
    PageId id;
    ASSERT_TRUE(pool.NewPage(&id).ok());
    EXPECT_EQ(id, want);
    pool.UnpinPage(id, true);
  }
  EXPECT_EQ(disk.NumPages(), 9u);
}

TEST(FreePageListTest, FreedDirtyFrameIsDroppedWithoutWriteBack) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  PageId id;
  Page* page = pool.NewPage(&id).TakeValue();
  std::memcpy(page->data, "dead", 4);
  pool.UnpinPage(id, true);
  uint64_t writes = disk.stats().writes;
  pool.FreePages({id});
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, writes);
  EXPECT_EQ(pool.stats().dirty_writebacks, 0u);
}

TEST(FreePageListTest, RecycledResidentPageReusesItsFrameZeroed) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4);
  PageId id;
  Page* page = pool.NewPage(&id).TakeValue();
  std::memcpy(page->data, "stale", 5);
  pool.UnpinPage(id, true);
  ASSERT_TRUE(pool.FlushAll().ok());  // the device holds "stale"
  pool.FreePages({id});
  // A readahead reinstalls the freed page from disk: it is resident again
  // when NewPage recycles it.
  pool.Prefetch(id, 1);
  ASSERT_EQ(pool.stats().readahead_issued, 1u);
  uint64_t reads = disk.stats().reads;
  PageId again;
  Page* fresh = pool.NewPage(&again).TakeValue();
  ASSERT_EQ(again, id);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(fresh->data[i], 0) << i;
  std::memcpy(fresh->data, "fresh", 5);
  EXPECT_EQ(disk.stats().reads, reads);
  // Fill the other three frames with pinned pages, unpin them, and fetch
  // the recycled page: it must still be the one frame holding "fresh". A
  // second frame for the id would have been evicted first, dropping the
  // mapping, and the fetch would read "stale" back from disk.
  std::vector<PageId> others(3);
  for (PageId& other : others) ASSERT_TRUE(pool.NewPage(&other).ok());
  for (PageId other : others) pool.UnpinPage(other, true);
  {
    PageGuard guard(&pool, id);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard.page(), fresh);
    EXPECT_EQ(std::memcmp(guard.page()->data, "fresh", 5), 0);
  }
  pool.UnpinPage(id, true);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(FreePageListTest, PinnedPageIsRecycledInItsOwnFrame) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  PageId id;
  Page* page = pool.NewPage(&id).TakeValue();
  std::memcpy(page->data, "held", 4);
  pool.FreePages({id});  // still pinned: the frame stays
  PageId again;
  Page* fresh = pool.NewPage(&again).TakeValue();
  EXPECT_EQ(again, id);
  EXPECT_EQ(fresh, page);
  EXPECT_EQ(fresh->data[0], 0);
  pool.UnpinPage(id, true);
  pool.UnpinPage(id, true);
}

}  // namespace
}  // namespace focus::storage
