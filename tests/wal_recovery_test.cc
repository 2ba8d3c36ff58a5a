// WAL recovery under deterministic crash injection.
//
// The heart of this file is a crash *matrix*: one golden pass of a
// CrawlDb commit/checkpoint workload counts every mutating device
// operation, then the workload is re-run once per operation index with
// CrashFaultDiskManager pulling the plug exactly there. Every recovered
// store must equal a batch boundary of the golden run — pre- or
// post-state of the batch in flight, never a torn hybrid. Variants
// repeat the sweep with torn pages (partial byte prefixes) and with a
// second crash during recovery itself. A pre-WAL baseline shows the raw
// FileDiskManager-style path really does leave torn state without the
// log, which is the point of having one.
//
// FOCUS_WAL_CRASH_STRIDE=<n> sweeps every n-th crash point (CI smoke);
// FOCUS_WAL_METRICS_JSON=<path> additionally dumps one recovery's WAL
// counters as a metrics JSON artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "crawl/relevance_evaluator.h"
#include "obs/metrics.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/crash_fault_disk.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/string_util.h"

namespace focus {
namespace {

using storage::CrashFaultDiskManager;
using storage::CrashPlan;
using storage::kPageSize;
using storage::MemDiskManager;
using storage::Page;
using storage::PageId;
using storage::WalDiskManager;

// ---------------------------------------------------------------------
// The workload: a deterministic CrawlDb batch sequence.

constexpr int kBatches = 6;
constexpr int kCheckpointEvery = 3;  // batches 2 and 5 checkpoint

// Sorted row-string image of all three crawl tables.
using DbImage = std::vector<std::string>;

DbImage SnapshotDb(crawl::CrawlDb* db) {
  DbImage out;
  for (sql::Table* table : {db->crawl_table(), db->link_table(),
                            db->breaker_table()}) {
    auto it = table->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      out.push_back(StrCat(table->name(), "|", row.ToString()));
    }
    EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Batch b: six new URLs, three of them visited and linked, one breaker
// row. Pure function of b, so re-runs replay byte-identical batches.
Status ApplyBatch(crawl::CrawlDb* db, int b) {
  std::vector<std::string> urls;
  for (int i = 0; i < 6; ++i) {
    urls.push_back(StrCat("http://s", b, ".example/p", i));
    FOCUS_RETURN_IF_ERROR(db->AddUrl(urls.back(), 0.25 + 0.1 * i, 1));
  }
  for (int i = 0; i < 3; ++i) {
    FOCUS_ASSIGN_OR_RETURN(crawl::CrawlRecord rec,
                           db->LookupByUrl(urls[i]));
    FOCUS_RETURN_IF_ERROR(
        db->RecordVisit(rec.oid, 0.5 + 0.05 * i, 3, 1000 * (b + 1) + i));
    FOCUS_RETURN_IF_ERROR(db->AddLink(urls[i], urls[3 + i]));
  }
  crawl::BreakerRecord brk;
  brk.sid = 100 + b;
  brk.state = crawl::BreakerState::kOpen;
  brk.consecutive_failures = b + 1;
  brk.open_until_us = 5000 * (b + 1);
  brk.cooldown_s = 1.5;
  return db->UpsertBreaker(brk);
}

// One full pass over (data, log): open the WAL store, apply kBatches
// batches, committing each (checkpointing every kCheckpointEvery-th).
// *ok_batches counts the batch commits that returned OK — after a crash,
// recovery must land at or one past that boundary. When `goldens` is
// given, appends the snapshot after open and after every durable batch.
Status RunWorkload(storage::DiskManager* data, storage::DiskManager* log,
                   int* ok_batches, std::vector<DbImage>* goldens) {
  *ok_batches = 0;
  FOCUS_ASSIGN_OR_RETURN(std::unique_ptr<WalDiskManager> wal,
                         WalDiskManager::Open(data, log));
  storage::BufferPool pool(wal.get(), 256);
  sql::Catalog catalog(&pool);
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                         crawl::CrawlDb::Open(&catalog, wal.get()));
  if (goldens != nullptr) goldens->push_back(SnapshotDb(&db));
  for (int b = 0; b < kBatches; ++b) {
    FOCUS_RETURN_IF_ERROR(ApplyBatch(&db, b));
    if ((b + 1) % kCheckpointEvery == 0) {
      FOCUS_RETURN_IF_ERROR(db.Checkpoint());
    } else {
      FOCUS_RETURN_IF_ERROR(db.Commit());
    }
    ++*ok_batches;
    if (goldens != nullptr) goldens->push_back(SnapshotDb(&db));
  }
  return Status::OK();
}

// Reopens the surviving devices (no fault decorators = the platters after
// the power cut) and snapshots the recovered store.
Status RecoverAndSnapshot(storage::DiskManager* data,
                          storage::DiskManager* log,
                          WalDiskManager::Options options, DbImage* out,
                          storage::WalStats* stats = nullptr) {
  FOCUS_ASSIGN_OR_RETURN(std::unique_ptr<WalDiskManager> wal,
                         WalDiskManager::Open(data, log, options));
  storage::BufferPool pool(wal.get(), 256);
  sql::Catalog catalog(&pool);
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                         crawl::CrawlDb::Open(&catalog, wal.get()));
  *out = SnapshotDb(&db);
  if (stats != nullptr) *stats = wal->wal_stats();
  return Status::OK();
}

uint64_t CrashStride() {
  if (const char* env = std::getenv("FOCUS_WAL_CRASH_STRIDE")) {
    long v = std::atol(env);
    if (v > 1) return static_cast<uint64_t>(v);
  }
  return 1;
}

// Copies a device's content page-by-page (used to re-seed double-crash
// runs without replaying the whole workload).
void CopyDevice(storage::DiskManager* from, MemDiskManager* to) {
  Page buf;
  for (PageId p = 0; p < from->NumPages(); ++p) {
    ASSERT_TRUE(from->ReadPage(p, buf.data).ok());
    if (to->NumPages() <= p) {
      ASSERT_TRUE(to->AllocatePage().ok());
    }
    ASSERT_TRUE(to->WritePage(p, buf.data).ok());
  }
}

// ---------------------------------------------------------------------
// WAL basics.

TEST(WalBasicsTest, CommitIsDurableAcrossReopen) {
  MemDiskManager data, log;
  Page img;
  for (uint32_t i = 0; i < kPageSize; ++i) img.data[i] = char(i * 7);
  {
    auto wal = WalDiskManager::Open(&data, &log).TakeValue();
    PageId p = wal->AllocatePage().TakeValue();
    ASSERT_TRUE(wal->WritePage(p, img.data).ok());
    ASSERT_TRUE(wal->Commit("layout-blob-1").ok());
    EXPECT_EQ(wal->wal_stats().commits, 1u);
    EXPECT_GE(wal->wal_stats().appends, 1u);
    EXPECT_GE(wal->wal_stats().syncs, 1u);
  }
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  EXPECT_EQ(wal->recovered_metadata(), "layout-blob-1");
  EXPECT_EQ(wal->NumPages(), 1u);
  EXPECT_GE(wal->wal_stats().recovery_replayed, 1u);
  Page got;
  ASSERT_TRUE(wal->ReadPage(0, got.data).ok());
  EXPECT_EQ(std::memcmp(got.data, img.data, kPageSize), 0);
}

TEST(WalBasicsTest, UncommittedWritesVanishOnReopen) {
  MemDiskManager data, log;
  Page committed, uncommitted;
  committed.Zero();
  std::memcpy(committed.data, "durable", 7);
  uncommitted.Zero();
  std::memcpy(uncommitted.data, "volatile", 8);
  {
    auto wal = WalDiskManager::Open(&data, &log).TakeValue();
    PageId p = wal->AllocatePage().TakeValue();
    ASSERT_TRUE(wal->WritePage(p, committed.data).ok());
    ASSERT_TRUE(wal->Commit("m1").ok());
    ASSERT_TRUE(wal->WritePage(p, uncommitted.data).ok());
    // No commit: the second image must not survive.
  }
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  Page got;
  ASSERT_TRUE(wal->ReadPage(0, got.data).ok());
  EXPECT_EQ(std::memcmp(got.data, committed.data, kPageSize), 0);
}

TEST(WalBasicsTest, CheckpointFoldsLogIntoDataDevice) {
  MemDiskManager data, log;
  Page img;
  img.Zero();
  std::memcpy(img.data, "checkpointed", 12);
  {
    auto wal = WalDiskManager::Open(&data, &log).TakeValue();
    PageId p = wal->AllocatePage().TakeValue();
    ASSERT_TRUE(wal->WritePage(p, img.data).ok());
    ASSERT_TRUE(wal->Checkpoint("m-ckpt").ok());
    EXPECT_EQ(wal->wal_stats().checkpoints, 1u);
    EXPECT_EQ(wal->epoch(), 1u);
  }
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  // Everything now lives on the data device: nothing to replay.
  EXPECT_EQ(wal->wal_stats().recovery_replayed, 0u);
  EXPECT_EQ(wal->recovered_metadata(), "m-ckpt");
  EXPECT_EQ(wal->epoch(), 1u);
  Page got;
  ASSERT_TRUE(wal->ReadPage(0, got.data).ok());
  EXPECT_EQ(std::memcmp(got.data, img.data, kPageSize), 0);
}

TEST(WalBasicsTest, StoreWithRetiredLinkIndexDoesNotReopen) {
  // LINK once carried a by_dst index beside by_src. A store checkpointed
  // with that layout is not migrated: Open refuses it with Table::Attach's
  // InvalidArgument before it reads a page.
  MemDiskManager data, log;
  {
    auto wal = WalDiskManager::Open(&data, &log).TakeValue();
    storage::BufferPool pool(wal.get(), 64);
    sql::Catalog catalog(&pool);
    auto db = crawl::CrawlDb::Create(&catalog).TakeValue();
    sql::Schema link_schema = db.link_table()->schema();
    ASSERT_TRUE(catalog.DropTable("LINK").ok());
    ASSERT_TRUE(catalog
                    .CreateTable("LINK", link_schema,
                                 {sql::IndexSpec{"by_src", {0}, {}},
                                  sql::IndexSpec{"by_dst", {2}, {}}})
                    .ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(wal->Checkpoint(catalog.SerializeLayouts()).ok());
  }
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  storage::BufferPool pool(wal.get(), 64);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find(
                "layout has 2 indexes, declaration has 1"),
            std::string::npos)
      << db.status();
  EXPECT_EQ(pool.stats().fetches, 0u);
}

TEST(WalBasicsTest, CheckpointCyclesKeepLogSegmentBounded) {
  // Twelve commit+checkpoint cycles of the same-size batch: the log
  // segment must not grow — every checkpoint folds the tail back to the
  // device start, so the log's page high-water mark plateaus.
  MemDiskManager data, log;
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  storage::BufferPool pool(wal.get(), 256);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  constexpr int kCycles = 12;
  uint64_t tail_after_ckpt = 0;
  uint32_t pages_after_warmup = 0;
  uint64_t last_epoch = wal->epoch();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ASSERT_TRUE(ApplyBatch(&db, cycle).ok());
    ASSERT_TRUE(db.Commit().ok());
    storage::WalStats mid = wal->wal_stats();
    EXPECT_GT(mid.tail_bytes, 0u);        // the commit really hit the log
    EXPECT_EQ(mid.pending_bytes, 0u);     // ...and nothing stayed buffered
    ASSERT_TRUE(db.Checkpoint().ok());
    storage::WalStats stats = wal->wal_stats();
    EXPECT_GT(stats.epoch, last_epoch);   // checkpoint opened a new epoch
    last_epoch = stats.epoch;
    if (cycle == 0) {
      tail_after_ckpt = stats.tail_bytes;
    } else {
      // The post-checkpoint tail is a constant, not a growing offset.
      EXPECT_EQ(stats.tail_bytes, tail_after_ckpt) << "cycle " << cycle;
    }
    if (cycle == 2) pages_after_warmup = stats.device_pages;
    if (cycle > 2) {
      // The high-water mark plateaus at the largest batch seen so far
      // (batch payloads vary by a few bytes per cycle), so allow a tiny
      // slack over the warmup value — but it must not track cycle count.
      EXPECT_LE(stats.device_pages, pages_after_warmup + 2)
          << "log device grew in cycle " << cycle;
    }
  }
  uint32_t bounded_pages = wal->wal_stats().device_pages;

  // Control: the same workload with commits only. Without checkpoints the
  // tail is a strictly growing offset and the device outgrows the
  // checkpointed run's plateau — which is what makes the bound above a
  // real property and not an accident of small batches.
  MemDiskManager data2, log2;
  auto wal2 = WalDiskManager::Open(&data2, &log2).TakeValue();
  storage::BufferPool pool2(wal2.get(), 256);
  sql::Catalog catalog2(&pool2);
  auto db2 = crawl::CrawlDb::Open(&catalog2, wal2.get()).TakeValue();
  uint64_t prev_tail = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ASSERT_TRUE(ApplyBatch(&db2, cycle).ok());
    ASSERT_TRUE(db2.Commit().ok());
    storage::WalStats stats = wal2->wal_stats();
    EXPECT_GT(stats.tail_bytes, prev_tail) << "cycle " << cycle;
    prev_tail = stats.tail_bytes;
  }
  EXPECT_GT(wal2->wal_stats().device_pages, bounded_pages);
}

// Log device that, once armed, fails every write to its first page. The
// first flush of an epoch writes that page, so after the first commit
// only a checkpoint's log reset does.
class FailingLogHead final : public storage::DiskManager {
 public:
  explicit FailingLogHead(storage::DiskManager* inner) : inner_(inner) {}
  void Arm() { armed_ = true; }
  int failed_writes() const { return failed_writes_; }
  Status ReadPage(PageId id, char* out) override {
    return inner_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const char* in) override {
    if (armed_ && id == 0) {
      ++failed_writes_;
      return Status::IOError("log head write failed");
    }
    return inner_->WritePage(id, in);
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override { return inner_->Sync(); }

 private:
  storage::DiskManager* inner_;
  bool armed_ = false;
  int failed_writes_ = 0;
};

TEST(WalBasicsTest, FailedLogResetPoisonsLaterCommits) {
  // A checkpoint writes the new epoch's manifest, then resets the log to
  // that epoch's head. If the reset's write fails, the head may never have
  // landed, and recovery would drop any commit appended behind it. So the
  // store must refuse every later commit until it is reopened.
  MemDiskManager data, log;
  FailingLogHead failing_log(&log);
  auto wal = WalDiskManager::Open(&data, &failing_log).TakeValue();
  PageId p = wal->AllocatePage().TakeValue();
  Page img;
  img.Zero();
  auto write = [&](uint32_t v) {
    img.Write<uint32_t>(0, v);
    return wal->WritePage(p, img.data);
  };
  ASSERT_TRUE(write(1).ok());
  ASSERT_TRUE(wal->Commit("m1").ok());

  failing_log.Arm();
  ASSERT_TRUE(write(2).ok());
  EXPECT_FALSE(wal->Checkpoint("m2").ok());
  EXPECT_EQ(failing_log.failed_writes(), 1) << "only the reset may fail";
  ASSERT_TRUE(write(3).ok());
  EXPECT_FALSE(wal->Commit("m3").ok());
  EXPECT_FALSE(wal->StageCommit("m3").ok());
  EXPECT_FALSE(wal->Checkpoint("m3").ok());
  EXPECT_EQ(failing_log.failed_writes(), 1);
  wal.reset();

  // The manifest had already made the checkpoint durable.
  auto reopened = WalDiskManager::Open(&data, &log).TakeValue();
  EXPECT_EQ(reopened->recovered_metadata(), "m2");
  Page got;
  ASSERT_TRUE(reopened->ReadPage(p, got.data).ok());
  EXPECT_EQ(got.Read<uint32_t>(0), 2u);
}

TEST(WalGroupCommitTest, ConcurrentCommitsShareOneSyncBarrier) {
  // Eight committers released together against a leader that lingers:
  // every batch must become durable, and far fewer sync barriers than
  // commits must have been issued (the group-commit coalescing the
  // focus_wal_group_commit_* counters report).
  constexpr int kThreads = 8;
  MemDiskManager data, log;
  WalDiskManager::Options options;
  options.group_commit_wait_us = 20000;  // 20 ms linger for late joiners
  auto wal = WalDiskManager::Open(&data, &log, options).TakeValue();
  std::vector<PageId> pages(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pages[t] = wal->AllocatePage().TakeValue();
  }
  uint64_t syncs_before = wal->wal_stats().syncs;

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Page img;
      img.Zero();
      img.Write<uint32_t>(0, 7000 + t);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      if (!wal->WritePage(pages[t], img.data).ok() ||
          !wal->Commit(StrCat("meta-", t)).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  storage::WalStats stats = wal->wal_stats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kThreads));
  EXPECT_LT(stats.syncs - syncs_before, static_cast<uint64_t>(kThreads))
      << "no commits coalesced";
  EXPECT_GE(stats.group_commit_max_batch, 2u);
  EXPECT_GE(stats.group_commit_flushes, 1u);

  // Every batch is durable: each page carries its committer's image after
  // reopen, and the last metadata blob is one of the committed ones.
  auto reopened = WalDiskManager::Open(&data, &log).TakeValue();
  for (int t = 0; t < kThreads; ++t) {
    Page got;
    ASSERT_TRUE(reopened->ReadPage(pages[t], got.data).ok());
    EXPECT_EQ(got.Read<uint32_t>(0), 7000u + t);
  }
  EXPECT_EQ(reopened->recovered_metadata().rfind("meta-", 0), 0u);
}

TEST(WalGroupCommitTest, StagedCommitsShareOneBarrier) {
  // A commit splits into stage (append to the log tail, no I/O) and await
  // (flush + sync until durable), so a caller can stage under its own lock
  // and wait after releasing it. Commits staged before any await ride one
  // sync barrier, and an empty stage still waits for the commit staged
  // before it.
  MemDiskManager data, log;
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  PageId pages[3];
  for (PageId& p : pages) p = wal->AllocatePage().TakeValue();
  ASSERT_TRUE(wal->Commit("meta-0").ok());
  const uint64_t syncs_before = wal->wal_stats().syncs;
  auto write = [&](int i) {
    Page img;
    img.Zero();
    img.Write<uint32_t>(0, 7000 + i);
    return wal->WritePage(pages[i], img.data);
  };

  storage::CommitTicket tickets[2];
  std::vector<std::thread> stagers;
  for (int t = 0; t < 2; ++t) {
    stagers.emplace_back([&, t] {
      ASSERT_TRUE(write(t).ok());
      Result<storage::CommitTicket> staged =
          wal->StageCommit(StrCat("meta-", t + 1));
      ASSERT_TRUE(staged.ok()) << staged.status();
      tickets[t] = *staged;
    });
  }
  for (auto& th : stagers) th.join();
  EXPECT_EQ(wal->wal_stats().syncs, syncs_before) << "staging synced";
  EXPECT_NE(tickets[0].seq, tickets[1].seq);
  std::vector<std::thread> awaiters;
  for (int t = 0; t < 2; ++t) {
    awaiters.emplace_back(
        [&, t] { EXPECT_TRUE(wal->AwaitCommit(tickets[t]).ok()); });
  }
  for (auto& th : awaiters) th.join();
  storage::WalStats stats = wal->wal_stats();
  EXPECT_EQ(stats.syncs - syncs_before, 1u);
  EXPECT_EQ(stats.group_commit_max_batch, 2u);

  // Nothing dirty and the same metadata: the stage logs nothing, but its
  // ticket names the pending commit, and awaiting it makes that durable.
  ASSERT_TRUE(write(2).ok());
  storage::CommitTicket pending = wal->StageCommit("meta-3").TakeValue();
  storage::CommitTicket empty = wal->StageCommit("meta-3").TakeValue();
  EXPECT_TRUE(pending.logged);
  EXPECT_EQ(pending.pages, 1u);
  EXPECT_FALSE(empty.logged);
  EXPECT_EQ(empty.seq, pending.seq);
  ASSERT_TRUE(wal->AwaitCommit(empty).ok());
  EXPECT_EQ(wal->wal_stats().syncs - syncs_before, 2u);
  ASSERT_TRUE(wal->AwaitCommit(pending).ok());
  EXPECT_EQ(wal->wal_stats().syncs - syncs_before, 2u) << "already durable";

  auto reopened = WalDiskManager::Open(&data, &log).TakeValue();
  for (int i = 0; i < 3; ++i) {
    Page got;
    ASSERT_TRUE(reopened->ReadPage(pages[i], got.data).ok());
    EXPECT_EQ(got.Read<uint32_t>(0), 7000u + i);
  }
  EXPECT_EQ(reopened->recovered_metadata(), "meta-3");
}

// ---------------------------------------------------------------------
// The crash matrix.

void SweepCrashMatrix(uint32_t torn_bytes) {
  CrashPlan plan;  // no crash scheduled: the golden pass only counts ops
  std::vector<DbImage> goldens;
  uint64_t total_ops = 0;
  {
    MemDiskManager data, log;
    CrashFaultDiskManager cdata(&data, &plan), clog(&log, &plan);
    int ok = 0;
    Status s = RunWorkload(&cdata, &clog, &ok, &goldens);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(ok, kBatches);
    total_ops = plan.op_count.load();
  }
  ASSERT_GT(total_ops, 30u);
  ASSERT_EQ(goldens.size(), size_t{kBatches} + 1);
  // Batches really change the store (distinct boundaries => the matrix
  // assertion below is not vacuous).
  for (int b = 0; b < kBatches; ++b) ASSERT_NE(goldens[b], goldens[b + 1]);

  for (uint64_t k = 0; k < total_ops; k += CrashStride()) {
    SCOPED_TRACE(StrCat("crash at op ", k, " of ", total_ops,
                        " torn_bytes=", torn_bytes));
    MemDiskManager data, log;
    plan.Reset(k, torn_bytes);
    CrashFaultDiskManager cdata(&data, &plan), clog(&log, &plan);
    int ok = 0;
    Status s = RunWorkload(&cdata, &clog, &ok, nullptr);
    ASSERT_FALSE(s.ok());
    ASSERT_NE(s.message().find(storage::kCrashMessage), std::string::npos)
        << s.ToString();

    DbImage recovered;
    Status r = RecoverAndSnapshot(&data, &log, {}, &recovered);
    ASSERT_TRUE(r.ok()) << r.ToString();
    // Atomic and durable: exactly the pre- or post-state of the batch in
    // flight — never earlier than the last acknowledged commit, never a
    // torn in-between.
    bool pre = recovered == goldens[ok];
    bool post = ok + 1 <= kBatches && recovered == goldens[ok + 1];
    EXPECT_TRUE(pre || post)
        << "recovered " << recovered.size() << " rows; expected boundary "
        << ok << " (" << goldens[ok].size() << " rows) or " << ok + 1;
  }
}

TEST(WalCrashMatrixTest, EveryCrashPointRecoversToABatchBoundary) {
  SweepCrashMatrix(/*torn_bytes=*/0);
}

TEST(WalCrashMatrixTest, TornPagesNeverSurfaceAfterRecovery) {
  // The crashing write persists a 1037-byte prefix — a torn sector run.
  // Checksums must reject the fragment wherever it lands.
  SweepCrashMatrix(/*torn_bytes=*/1037);
}

TEST(WalCrashMatrixTest, CrashDuringRecoveryStillRecovers) {
  CrashPlan plan;
  std::vector<DbImage> goldens;
  uint64_t total_ops = 0;
  {
    MemDiskManager data, log;
    CrashFaultDiskManager cdata(&data, &plan), clog(&log, &plan);
    int ok = 0;
    ASSERT_TRUE(RunWorkload(&cdata, &clog, &ok, &goldens).ok());
    total_ops = plan.op_count.load();
  }

  WalDiskManager::Options ckpt;
  ckpt.checkpoint_after_recovery = true;  // gives recovery its own writes
  uint64_t stride = std::max<uint64_t>(7, CrashStride());
  for (uint64_t k = 3; k < total_ops; k += stride) {
    // First crash: stop the workload at op k; keep the surviving bytes.
    MemDiskManager data0, log0;
    int first_ok = 0;
    plan.Reset(k);
    {
      CrashFaultDiskManager cdata(&data0, &plan), clog(&log0, &plan);
      Status s = RunWorkload(&cdata, &clog, &first_ok, nullptr);
      ASSERT_FALSE(s.ok());
    }
    // Second crash: sweep every op j of the checkpointing recovery until
    // one run completes without hitting the crash point.
    for (uint64_t j = 0;; ++j) {
      ASSERT_LT(j, 2000u) << "recovery never completed";
      SCOPED_TRACE(StrCat("first crash at ", k, ", second at ", j));
      MemDiskManager data, log;
      CopyDevice(&data0, &data);
      CopyDevice(&log0, &log);
      plan.Reset(j);
      DbImage mid;
      Status second;
      {
        CrashFaultDiskManager cdata(&data, &plan), clog(&log, &plan);
        second = RecoverAndSnapshot(&cdata, &clog, ckpt, &mid);
      }
      // Third, clean open — after zero, one, or two interrupted attempts
      // the store must still land on the same boundary.
      DbImage final_image;
      ASSERT_TRUE(
          RecoverAndSnapshot(&data, &log, ckpt, &final_image).ok());
      bool pre = final_image == goldens[first_ok];
      bool post = first_ok + 1 <= kBatches &&
                  final_image == goldens[first_ok + 1];
      EXPECT_TRUE(pre || post);
      if (second.ok()) {
        EXPECT_EQ(mid, final_image);
        break;  // j ran past the end of recovery: sweep done for this k
      }
      ASSERT_NE(second.message().find(storage::kCrashMessage),
                std::string::npos)
          << second.ToString();
    }
  }
}

// ---------------------------------------------------------------------
// The pre-WAL baseline this subsystem replaces.

TEST(PreWalBaselineTest, RawDeviceCrashLeavesTornState) {
  // Same batch workload against a bare device — "commit" is FlushAll +
  // Sync, the strongest discipline available without a log. The golden
  // pass records the device image at every boundary; the sweep then shows
  // crash points whose surviving bytes match *no* boundary. (Worse still,
  // a raw store cannot even be reattached: table roots live only in
  // memory. The byte-level comparison is the generous reading.)
  auto run = [](storage::DiskManager* dev, MemDiskManager* inner,
                std::vector<std::string>* images) -> Status {
    auto dump = [inner] {
      std::string out;
      Page buf;
      for (PageId p = 0; p < inner->NumPages(); ++p) {
        EXPECT_TRUE(inner->ReadPage(p, buf.data).ok());
        out.append(buf.data, kPageSize);
      }
      return out;
    };
    storage::BufferPool pool(dev, 256);
    sql::Catalog catalog(&pool);
    FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                           crawl::CrawlDb::Create(&catalog));
    if (images != nullptr) images->push_back(dump());
    for (int b = 0; b < kBatches; ++b) {
      FOCUS_RETURN_IF_ERROR(ApplyBatch(&db, b));
      FOCUS_RETURN_IF_ERROR(pool.FlushAll());
      FOCUS_RETURN_IF_ERROR(dev->Sync());
      if (images != nullptr) images->push_back(dump());
    }
    return Status::OK();
  };

  CrashPlan plan;
  std::vector<std::string> goldens;
  uint64_t total_ops = 0;
  {
    MemDiskManager disk;
    CrashFaultDiskManager cdisk(&disk, &plan);
    ASSERT_TRUE(run(&cdisk, &disk, &goldens).ok());
    total_ops = plan.op_count.load();
  }
  ASSERT_GT(total_ops, 30u);
  goldens.push_back("");  // the pristine (empty) device is also a boundary

  uint64_t torn_points = 0;
  for (uint64_t k = 0; k < total_ops; k += CrashStride()) {
    MemDiskManager disk;
    plan.Reset(k);
    CrashFaultDiskManager cdisk(&disk, &plan);
    ASSERT_FALSE(run(&cdisk, &disk, nullptr).ok());
    std::string image;
    Page buf;
    for (PageId p = 0; p < disk.NumPages(); ++p) {
      ASSERT_TRUE(disk.ReadPage(p, buf.data).ok());
      image.append(buf.data, kPageSize);
    }
    if (std::find(goldens.begin(), goldens.end(), image) ==
        goldens.end()) {
      ++torn_points;
    }
  }
  // Without the WAL, many crash points strand the device between
  // boundaries. This is the failure mode the crash matrix proves the
  // logged path cannot exhibit.
  EXPECT_GT(torn_points, 0u);
}

// ---------------------------------------------------------------------
// File-backed reopen (real fdatasync path) + metrics artifact.

TEST(WalFileBackedTest, SurvivesProcessStyleReopenFromFiles) {
  std::string base = ::testing::TempDir() + "wal_reopen";
  DbImage expected;
  {
    auto data = storage::FileDiskManager::Open(base + ".db").TakeValue();
    auto log = storage::FileDiskManager::Open(base + ".wal").TakeValue();
    auto wal = WalDiskManager::Open(data.get(), log.get()).TakeValue();
    storage::BufferPool pool(wal.get(), 64);
    sql::Catalog catalog(&pool);
    auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
    ASSERT_TRUE(ApplyBatch(&db, 0).ok());
    ASSERT_TRUE(db.Commit().ok());
    ASSERT_TRUE(ApplyBatch(&db, 1).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(ApplyBatch(&db, 2).ok());
    ASSERT_TRUE(db.Commit().ok());
    expected = SnapshotDb(&db);
  }  // destructors close the files: the "process" is gone
  storage::FileDiskManager::Options attach;
  attach.truncate = false;
  auto data =
      storage::FileDiskManager::Open(base + ".db", attach).TakeValue();
  auto log =
      storage::FileDiskManager::Open(base + ".wal", attach).TakeValue();
  auto wal = WalDiskManager::Open(data.get(), log.get()).TakeValue();
  storage::BufferPool pool(wal.get(), 64);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  EXPECT_EQ(SnapshotDb(&db), expected);
  EXPECT_GT(wal->wal_stats().recovery_replayed, 0u);  // batch 2 replays
}

TEST(WalMetricsTest, RecoveryCountersExport) {
  // One mid-workload crash + recovery with metrics bound; when
  // FOCUS_WAL_METRICS_JSON is set (the CI artifact hook), the registry
  // snapshot is also written there.
  CrashPlan plan;
  uint64_t total_ops = 0;
  {
    MemDiskManager data, log;
    CrashFaultDiskManager cdata(&data, &plan), clog(&log, &plan);
    int ok = 0;
    ASSERT_TRUE(RunWorkload(&cdata, &clog, &ok, nullptr).ok());
    total_ops = plan.op_count.load();
  }
  MemDiskManager data, log;
  plan.Reset(total_ops / 2);
  {
    CrashFaultDiskManager cdata(&data, &plan), clog(&log, &plan);
    int ok = 0;
    ASSERT_FALSE(RunWorkload(&cdata, &clog, &ok, nullptr).ok());
  }
  obs::MetricsRegistry registry;
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  wal->BindMetrics(&registry, "recovery");
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("focus_wal_recovery_replayed_total"),
            std::string::npos);
  EXPECT_NE(json.find("focus_wal_recovered_commits_total"),
            std::string::npos);
  if (const char* path = std::getenv("FOCUS_WAL_METRICS_JSON")) {
    std::ofstream out(path);
    out << json;
    ASSERT_TRUE(out.good());
  }
}

// ---------------------------------------------------------------------
// Periodic crawler checkpoints bound recovery replay.

// Judges everything maximally relevant — the crawl visits pages as fast
// as the frontier supplies them, which is all this test needs.
class ConstantEvaluator final : public crawl::RelevanceEvaluator {
 public:
  Result<crawl::PageJudgment> Judge(const text::TermVector&) override {
    crawl::PageJudgment j;
    j.relevance = 1.0;
    j.best_leaf_is_good = true;
    return j;
  }
};

// Runs a WAL-backed crawl of `fetches` pages with the given checkpoint
// interval, then "crashes" (drops the crawler without a final checkpoint)
// and reopens the devices. Returns the reopened WAL's recovery stats.
storage::WalStats CrawlThenRecover(int fetches, int checkpoint_every) {
  taxonomy::Taxonomy tax;
  taxonomy::Cid rec =
      tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  EXPECT_TRUE(tax.AddTopic(rec, "cycling").ok());
  webgraph::WebConfig config;
  config.seed = 5;
  config.pages_per_topic = 150;
  config.background_pages = 400;
  auto web = webgraph::SimulatedWeb::Generate(tax, config, {});
  EXPECT_TRUE(web.ok()) << web.status();

  MemDiskManager data, log;
  {
    auto wal = WalDiskManager::Open(&data, &log).TakeValue();
    storage::BufferPool pool(wal.get(), 512);
    sql::Catalog catalog(&pool);
    auto db = crawl::CrawlDb::Create(&catalog).TakeValue();
    db.BindWal(wal.get());
    ConstantEvaluator evaluator;
    crawl::CrawlerOptions options;
    options.max_fetches = fetches;
    options.checkpoint_every_batches = checkpoint_every;
    crawl::Crawler crawler(&web.value(), &evaluator, &db, &catalog,
                           options);
    EXPECT_TRUE(crawler.AddSeed(web.value().page(0).url).ok());
    EXPECT_TRUE(crawler.Crawl().ok());
    EXPECT_GT(crawler.visits().size(), 0u);
  }
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  return wal->wal_stats();
}

TEST(CrawlerRevisitTest, RevisitLoopKeepsLogDiskBounded) {
  // A crawler that re-crawls its corpus forever (ScheduleRevisits rounds)
  // commits without end. Its periodic checkpoint truncates the log every
  // kCheckpointEvery batches, so the log device's high-water mark stops
  // growing once the largest checkpoint interval has been seen; without
  // checkpoints it grows with every round.
  taxonomy::Taxonomy tax;
  taxonomy::Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  ASSERT_TRUE(tax.AddTopic(rec, "cycling").ok());
  webgraph::WebConfig config;
  config.seed = 5;
  config.pages_per_topic = 150;
  config.background_pages = 400;
  auto web = webgraph::SimulatedWeb::Generate(tax, config, {});
  ASSERT_TRUE(web.ok()) << web.status();

  constexpr int kRounds = 8;
  constexpr int kRevisitsPerRound = 24;
  constexpr int kCheckpointEvery = 16;
  auto run = [&](int checkpoint_every,
                 std::vector<uint32_t>* log_pages) -> storage::WalStats {
    MemDiskManager data, log;
    auto wal = WalDiskManager::Open(&data, &log).TakeValue();
    storage::BufferPool pool(wal.get(), 512);
    sql::Catalog catalog(&pool);
    auto db = crawl::CrawlDb::Create(&catalog).TakeValue();
    db.BindWal(wal.get());
    ConstantEvaluator evaluator;
    crawl::CrawlerOptions copts;
    copts.max_fetches = 60;
    copts.checkpoint_every_batches = checkpoint_every;
    crawl::Crawler crawler(&web.value(), &evaluator, &db, &catalog, copts);
    EXPECT_TRUE(crawler.AddSeed(web.value().page(0).url).ok());
    EXPECT_TRUE(crawler.Crawl().ok());
    EXPECT_GT(crawler.visits().size(), 0u);
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(
          crawler.ScheduleRevisits(nullptr, kRevisitsPerRound).ok());
      EXPECT_TRUE(crawler.Crawl().ok());
      log_pages->push_back(wal->wal_stats().device_pages);
    }
    return wal->wal_stats();
  };

  std::vector<uint32_t> bounded_pages;
  storage::WalStats bounded = run(kCheckpointEvery, &bounded_pages);
  EXPECT_GT(bounded.checkpoints, static_cast<uint64_t>(kRounds));
  // Steady state: every round commits more batches, but the high-water
  // mark is flat across the last half of the rounds.
  for (int round = kRounds / 2; round < kRounds; ++round) {
    EXPECT_EQ(bounded_pages[round], bounded_pages[kRounds / 2 - 1])
        << "log still growing in round " << round;
  }

  // Control: checkpoint_every_batches = 0, so every round's commits
  // extend the log.
  std::vector<uint32_t> unbounded_pages;
  storage::WalStats unbounded = run(0, &unbounded_pages);
  EXPECT_EQ(unbounded.checkpoints, 0u);
  for (int round = 1; round < kRounds; ++round) {
    EXPECT_GT(unbounded_pages[round], unbounded_pages[round - 1])
        << "round " << round;
  }
  EXPECT_GT(unbounded_pages.back(), bounded_pages.back());
}

// Batch atomicity of a crawl store: RecordVisit and the page's LINK rows
// share one batch, so every visited CRAWL row carries all of its page's
// outlinks.
void ExpectVisitedRowsHaveAllLinks(crawl::CrawlDb* db,
                                   const webgraph::SimulatedWeb& web) {
  sql::Table* link = db->link_table();
  int by_src = link->IndexId("by_src");
  auto it = db->crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    crawl::CrawlRecord rec = crawl::CrawlDb::RecordFromTuple(row);
    if (!rec.visited) continue;
    uint32_t page = web.PageIndexByUrl(rec.url).value();
    std::vector<storage::Rid> rids;
    ASSERT_TRUE(link->IndexLookup(
                        by_src,
                        {sql::Value::Int64(static_cast<int64_t>(rec.oid))},
                        &rids)
                    .ok());
    EXPECT_EQ(rids.size(), web.page(page).outlinks.size()) << rec.url;
  }
  ASSERT_TRUE(it.status().ok()) << it.status();
}

// Buffer-pool device over the WAL whose page writes take `write_us`, so a
// batch's FlushAll into the overlay lasts long enough for a concurrent
// checkpoint to land inside it.
class SlowWriteDisk final : public storage::DiskManager {
 public:
  SlowWriteDisk(storage::DiskManager* inner, int write_us)
      : inner_(inner), write_us_(write_us) {}
  Status ReadPage(PageId id, char* out) override {
    return inner_->ReadPage(id, out);
  }
  Status ReadPages(PageId first, uint32_t n, char* out) override {
    return inner_->ReadPages(first, n, out);
  }
  Status WritePage(PageId id, const char* in) override {
    std::this_thread::sleep_for(std::chrono::microseconds(write_us_));
    return inner_->WritePage(id, in);
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override { return inner_->Sync(); }

 private:
  storage::DiskManager* inner_;
  int write_us_;
};

// Log device decorator: after every sync barrier it recovers a copy of
// both devices as they stand, i.e. a power cut right after that barrier,
// and checks batch atomicity on the recovered store. Only the syncing
// thread touches the devices then: a flush leader owns the log device,
// and checkpoints (the only data-device writers) wait out every flush.
class RecoverAfterEverySync final : public storage::DiskManager {
 public:
  RecoverAfterEverySync(MemDiskManager* data, MemDiskManager* log,
                        const webgraph::SimulatedWeb* web)
      : data_(data), log_(log), web_(web) {}
  Status ReadPage(PageId id, char* out) override {
    return log_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const char* in) override {
    return log_->WritePage(id, in);
  }
  Result<PageId> AllocatePage() override { return log_->AllocatePage(); }
  uint32_t NumPages() const override { return log_->NumPages(); }
  Status Sync() override {
    FOCUS_RETURN_IF_ERROR(log_->Sync());
    MemDiskManager data, log;
    CopyDevice(data_, &data);
    CopyDevice(log_, &log);
    FOCUS_ASSIGN_OR_RETURN(std::unique_ptr<WalDiskManager> wal,
                           WalDiskManager::Open(&data, &log));
    storage::BufferPool pool(wal.get(), 512);
    sql::Catalog catalog(&pool);
    FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                           crawl::CrawlDb::Open(&catalog, wal.get()));
    ExpectVisitedRowsHaveAllLinks(&db, *web_);
    checked_.fetch_add(1);
    return Status::OK();
  }
  int checked() const { return checked_.load(); }

 private:
  MemDiskManager* data_;
  MemDiskManager* log_;
  const webgraph::SimulatedWeb* web_;
  std::atomic<int> checked_{0};
};

TEST(CrawlerCheckpointTest, FourThreadCrawlCheckpointsOnlyWholeBatches) {
  // The crawler's periodic checkpoint folds the whole overlay into the
  // data device. Four workers stage their commits under the crawl-state
  // lock and await them outside it, so the checkpoint runs inline under
  // that lock: outside it, it could fold in another worker's half-written
  // batch. Every durable point of the crawl must recover to whole
  // batches, and the finished store must reopen and resume.
  taxonomy::Taxonomy tax;
  taxonomy::Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  ASSERT_TRUE(tax.AddTopic(rec, "cycling").ok());
  webgraph::WebConfig config;
  config.seed = 5;
  config.pages_per_topic = 150;
  config.background_pages = 400;
  auto generated = webgraph::SimulatedWeb::Generate(tax, config, {});
  ASSERT_TRUE(generated.ok()) << generated.status();
  webgraph::SimulatedWeb& web = generated.value();

  ConstantEvaluator evaluator;
  crawl::CrawlerOptions copts;
  copts.max_fetches = 400;
  copts.num_threads = 4;
  copts.classify_batch_size = 8;
  copts.checkpoint_every_batches = 4;

  MemDiskManager data, log;
  RecoverAfterEverySync checked_log(&data, &log, &web);
  {
    auto wal = WalDiskManager::Open(&data, &checked_log).TakeValue();
    SlowWriteDisk pool_disk(wal.get(), /*write_us=*/50);
    storage::BufferPool pool(&pool_disk, 512);
    sql::Catalog catalog(&pool);
    auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
    crawl::Crawler crawler(&web, &evaluator, &db, &catalog, copts);
    ASSERT_TRUE(crawler.AddSeed(web.page(0).url).ok());
    Status crawled = crawler.Crawl();
    ASSERT_TRUE(crawled.ok()) << crawled;
    EXPECT_EQ(crawler.visits().size(), 400u);
    // 400 pages in batches of at most 8 make at least 50 commits, every
    // fourth of them a checkpoint.
    EXPECT_GE(wal->wal_stats().checkpoints, 12u);
  }
  EXPECT_GT(checked_log.checked(), 10);

  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  storage::BufferPool pool(wal.get(), 512);
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  ExpectVisitedRowsHaveAllLinks(&db, web);
  crawl::Crawler resumed(&web, &evaluator, &db, &catalog, copts);
  ASSERT_TRUE(resumed.ResumeFromDb().ok());
  Status crawled = resumed.Crawl();
  ASSERT_TRUE(crawled.ok()) << crawled;
  EXPECT_GT(resumed.visits().size(), 0u);
  ExpectVisitedRowsHaveAllLinks(&db, web);
}

TEST(CrawlerCheckpointTest, RecoveryReplaysAtMostOneCheckpointInterval) {
  constexpr int kFetches = 40;
  constexpr int kInterval = 8;
  // With periodic checkpoints the log never accumulates more than one
  // interval of commits, no matter how long the crawl ran.
  storage::WalStats bounded = CrawlThenRecover(kFetches, kInterval);
  EXPECT_LE(bounded.recovered_commits, static_cast<uint64_t>(kInterval))
      << "log held more than one checkpoint interval of commits";

  // Control: checkpointing off — every commit of the whole crawl is
  // still in the log and must be replayed.
  storage::WalStats unbounded = CrawlThenRecover(kFetches, 0);
  EXPECT_GT(unbounded.recovered_commits,
            static_cast<uint64_t>(kInterval));
  EXPECT_GE(unbounded.recovered_commits, static_cast<uint64_t>(kFetches));
}

// ---------------------------------------------------------------------
// Page recycling under the WAL.

// Table::Clear hands the old pages to the pool's free list and the
// reinsert overwrites them in place. Those overwrites live only in the
// no-steal overlay until a commit, so a crash before the commit recovers
// the old committed rows intact.
TEST(WalRecyclingTest, ClearAndReinsertThenCrashRecoversOldContents) {
  MemDiskManager data, log;
  sql::Schema schema({{"oid", sql::TypeId::kInt64},
                      {"score", sql::TypeId::kDouble}});
  std::vector<sql::IndexSpec> indexes = {sql::IndexSpec{"by_oid", {0}, {}}};
  auto rows_of = [](const sql::Table* table) {
    std::vector<std::string> out;
    auto it = table->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) out.push_back(row.ToString());
    EXPECT_TRUE(it.status().ok()) << it.status();
    return out;
  };
  std::vector<std::string> committed;
  uint32_t committed_pages = 0;
  {
    auto wal = WalDiskManager::Open(&data, &log).TakeValue();
    storage::BufferPool pool(wal.get(), 16);  // small: overwrites evict
    sql::Catalog catalog(&pool);
    sql::Table* table =
        catalog.CreateTable("SCORES", schema, indexes).TakeValue();
    for (int64_t oid = 0; oid < 800; ++oid) {
      ASSERT_TRUE(table
                      ->Insert(sql::Tuple({sql::Value::Int64(oid * 7),
                                           sql::Value::Double(0.5)}))
                      .ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(wal->Commit(catalog.SerializeLayouts()).ok());
    committed = rows_of(table);
    committed_pages = wal->NumPages();

    // Clear + reinsert: new rows on the recycled pages, pushed all the way
    // to the WAL overlay, but never committed.
    ASSERT_TRUE(table->Clear().ok());
    for (int64_t oid = 0; oid < 800; ++oid) {
      ASSERT_TRUE(table
                      ->Insert(sql::Tuple({sql::Value::Int64(oid * 11 + 1),
                                           sql::Value::Double(0.25)}))
                      .ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    EXPECT_EQ(wal->NumPages(), committed_pages) << "pages were not recycled";
    EXPECT_NE(rows_of(table), committed);
    // Crash: the session ends without a commit.
  }
  auto wal = WalDiskManager::Open(&data, &log).TakeValue();
  storage::BufferPool pool(wal.get(), 16);
  sql::Catalog catalog(&pool);
  auto layouts = sql::Catalog::ParseLayouts(wal->recovered_metadata());
  ASSERT_TRUE(layouts.ok()) << layouts.status();
  sql::Table* table = catalog
                          .AttachTable("SCORES", schema, indexes,
                                       layouts.value().at("SCORES"))
                          .TakeValue();
  EXPECT_EQ(rows_of(table), committed);
  for (int64_t oid : {int64_t{0}, int64_t{7 * 399}, int64_t{7 * 799}}) {
    std::vector<storage::Rid> rids;
    ASSERT_TRUE(table->IndexLookup(0, {sql::Value::Int64(oid)}, &rids).ok());
    EXPECT_EQ(rids.size(), 1u) << oid;
  }
}

}  // namespace
}  // namespace focus
