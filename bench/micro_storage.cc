// Micro-benchmarks for the storage engine: B+-tree, buffer pool, heap file.
//
// Two modes:
//   (default)  google-benchmark micro-benchmarks (BM_* below).
//   --json     the buffer-pool workload sweep: point-read vs
//              sequential-scan vs mixed workloads across pool sizes,
//              against a latency-modeled disk. Prints one
//              JSON array (one object per configuration) for the CI
//              storage job and the scripts/append_bench_trajectory.py
//              --storage flow.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "util/clock.h"
#include "util/random.h"

namespace focus::storage {
namespace {

void BM_BPlusTreeInsert(benchmark::State& state) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4096);
  auto tree = BPlusTree::Create(&pool).TakeValue();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(rng.Next(), rng.Next()).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreeProbe(benchmark::State& state) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4096);
  auto tree = BPlusTree::Create(&pool).TakeValue();
  const uint64_t n = state.range(0);
  for (uint64_t i = 0; i < n; ++i) {
    (void)tree.Insert(i * 7919 % n, i);
  }
  Rng rng(2);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(tree.GetAll(rng.Uniform(n), &out).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeProbe)->Arg(10000)->Arg(100000);

void BM_BufferPoolHit(benchmark::State& state) {
  MemDiskManager disk;
  BufferPool pool(&disk, 64);
  PageId id;
  (void)pool.NewPage(&id);
  pool.UnpinPage(id, true);
  for (auto _ : state) {
    auto page = pool.FetchPage(id);
    benchmark::DoNotOptimize(page.ok());
    pool.UnpinPage(id, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  std::vector<PageId> ids(64);
  for (auto& id : ids) {
    (void)pool.NewPage(&id);
    pool.UnpinPage(id, true);
  }
  size_t i = 0;
  for (auto _ : state) {
    PageId id = ids[i++ % ids.size()];  // cycle > pool: every fetch misses
    auto page = pool.FetchPage(id);
    benchmark::DoNotOptimize(page.ok());
    pool.UnpinPage(id, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolMissEvict);

void BM_HeapFileInsert(benchmark::State& state) {
  MemDiskManager disk;
  BufferPool pool(&disk, 256);
  auto file = HeapFile::Create(&pool).TakeValue();
  std::string record(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(file.Insert(record).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapFileInsert);

void BM_HeapFileScan(benchmark::State& state) {
  MemDiskManager disk;
  BufferPool pool(&disk, 1024);
  auto file = HeapFile::Create(&pool).TakeValue();
  std::string record(64, 'x');
  for (int i = 0; i < 10000; ++i) (void)file.Insert(record);
  for (auto _ : state) {
    auto it = file.Scan();
    Rid rid;
    std::string rec;
    int64_t count = 0;
    while (it.Next(&rid, &rec)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_HeapFileScan);

// ---------------------------------------------------------------------------
// --json workload sweep
//
// A latency-modeled disk (a seek per read op, a small per-page transfer
// cost) seeded with a fixed working set, swept across pool sizes under
// three access patterns:
//   point — 4 threads of uniform random page fetches (latch + replacement
//           pressure; hit ratio tracks frames/working-set)
//   seq   — one thread sweeping the working set in order twice (the
//           stream detector + batched readahead path)
//   mixed — one sequential sweeper plus 3 point-read threads (the
//           scan-resistance scenario: the sweep must not starve the
//           random readers' hot set)

constexpr size_t kSweepPages = 1024;          // 4 MiB working set
constexpr size_t kPointOpsPerThread = 4096;
constexpr int kPointThreads = 4;
constexpr int kSeqSweeps = 2;
constexpr double kSweepReadLatencyUs = 20;
constexpr double kSweepTransferLatencyUs = 2;
constexpr uint32_t kSweepReadaheadWindow = 16;

struct SweepRow {
  const char* workload;
  size_t frames;
  int threads;
  uint64_t ops;
  double wall_s;
  BufferPool::Stats pool;
  uint64_t batch_reads;
};

// One thread's worth of uniform random fetches. Each thread gets its own
// seed so the threads issue independent streams.
void PointReads(BufferPool* pool, uint64_t seed, size_t ops) {
  Rng rng(seed);
  for (size_t i = 0; i < ops; ++i) {
    PageId id = rng.Uniform(kSweepPages);
    auto page = pool->FetchPage(id);
    if (!page.ok()) continue;  // transient all-pinned: skip, advisory load
    benchmark::DoNotOptimize(page.value()->data[0]);
    pool->UnpinPage(id, false);
  }
}

void SequentialSweeps(BufferPool* pool, int sweeps) {
  for (int s = 0; s < sweeps; ++s) {
    for (PageId id = 0; id < kSweepPages; ++id) {
      auto page = pool->FetchPage(id);
      if (!page.ok()) continue;
      benchmark::DoNotOptimize(page.value()->data[0]);
      pool->UnpinPage(id, false);
    }
  }
}

SweepRow RunSweepConfig(const char* workload, MemDiskManager* disk,
                        size_t frames) {
  BufferPool pool(disk, frames,
                  BufferPool::Options{.readahead_window =
                                          kSweepReadaheadWindow,
                                      .auto_readahead = true});
  uint64_t batch_reads_before = disk->stats().batch_reads;
  SweepRow row{workload, frames, 1, 0, 0, {}, 0};
  Stopwatch wall;
  if (std::strcmp(workload, "point") == 0) {
    row.threads = kPointThreads;
    row.ops = kPointThreads * kPointOpsPerThread;
    std::vector<std::thread> threads;
    for (int t = 0; t < kPointThreads; ++t) {
      threads.emplace_back(PointReads, &pool, 1000 + t, kPointOpsPerThread);
    }
    for (auto& t : threads) t.join();
  } else if (std::strcmp(workload, "seq") == 0) {
    row.threads = 1;
    row.ops = kSeqSweeps * kSweepPages;
    SequentialSweeps(&pool, kSeqSweeps);
  } else {  // mixed: one sweeper + (kPointThreads - 1) random readers
    row.threads = kPointThreads;
    row.ops = kSweepPages + (kPointThreads - 1) * kPointOpsPerThread;
    std::vector<std::thread> threads;
    threads.emplace_back(SequentialSweeps, &pool, 1);
    for (int t = 1; t < kPointThreads; ++t) {
      threads.emplace_back(PointReads, &pool, 2000 + t, kPointOpsPerThread);
    }
    for (auto& t : threads) t.join();
  }
  row.wall_s = wall.ElapsedSeconds();
  row.pool = pool.stats();
  row.batch_reads = disk->stats().batch_reads - batch_reads_before;
  return row;
}

int RunWorkloadSweep() {
  // Seed the working set once; every configuration reads the same pages.
  MemDiskManager disk(MemDiskManager::Options{
      .read_latency_us = kSweepReadLatencyUs,
      .write_latency_us = 0,
      .transfer_latency_us = kSweepTransferLatencyUs});
  {
    BufferPool seeder(&disk, 64);
    for (size_t i = 0; i < kSweepPages; ++i) {
      PageId id;
      auto page = seeder.NewPage(&id);
      if (!page.ok()) return 1;
      page.value()->data[0] = static_cast<char>(id & 0xff);
      seeder.UnpinPage(id, true);
    }
    if (!seeder.FlushAll().ok()) return 1;
  }

  std::vector<SweepRow> rows;
  for (const char* workload : {"point", "seq", "mixed"}) {
    for (size_t frames : {64, 256, 1024}) {
      rows.push_back(RunSweepConfig(workload, &disk, frames));
    }
  }

  std::printf("[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    double used_frac =
        r.pool.readahead_issued == 0
            ? 0.0
            : static_cast<double>(r.pool.readahead_used) /
                  static_cast<double>(r.pool.readahead_issued);
    std::printf(
        "  {\"workload\":\"%s\",\"frames\":%zu,"
        "\"threads\":%d,\"ops\":%llu,"
        "\"wall_seconds\":%.6f,\"ops_per_second\":%.0f,"
        "\"hit_ratio\":%.4f,\"misses\":%llu,"
        "\"readahead_issued\":%llu,\"readahead_used\":%llu,"
        "\"readahead_used_frac\":%.4f,\"batch_reads\":%llu}%s\n",
        r.workload, r.frames, r.threads,
        static_cast<unsigned long long>(r.ops), r.wall_s,
        r.wall_s == 0 ? 0 : r.ops / r.wall_s, r.pool.hit_ratio(),
        static_cast<unsigned long long>(r.pool.misses),
        static_cast<unsigned long long>(r.pool.readahead_issued),
        static_cast<unsigned long long>(r.pool.readahead_used), used_frac,
        static_cast<unsigned long long>(r.batch_reads),
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("]\n");
  return 0;
}

}  // namespace
}  // namespace focus::storage

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return focus::storage::RunWorkloadSweep();
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
