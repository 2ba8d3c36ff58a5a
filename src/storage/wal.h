// Redo-only write-ahead logging for the storage layer.
//
// The paper treats Focus as "a database application": crawler, classifier
// and distiller are concurrent clients of a relational store whose substrate
// (DB2 in 1999) provided recovery for free. This file is our substrate's
// recovery: a minimal ARIES-flavoured redo log of full page images, plus a
// DiskManager decorator that gives CrawlDb atomic, durable batch commits on
// top of any raw device.
//
// Design
//   * `Wal` owns the log format: it appends `{page_id, page_image, lsn}`
//     records to a log device, group-commits them with an explicit Sync()
//     barrier, and on open parses the log back into the set of *committed*
//     page images. Records carry a checksum, computed when their flush
//     writes them; a torn log tail (crash mid append) fails the checksum
//     and the uncommitted batch is discarded.
//   * `WalDiskManager` wraps a data device + a log device. Writes never
//     touch the data device directly: they land in an in-memory overlay
//     (no-steal) and are logged on Commit(). Reads are served overlay-first.
//     Checkpoint() = flush the overlay to the data device, advance the
//     manifest, truncate the log. On Open() it replays committed records
//     past the last checkpoint before serving reads.
//   * The log is itself stored through a DiskManager, so a test can wrap
//     both devices in CrashFaultDiskManager with one shared CrashPlan and
//     sweep every crash point — data writes, log writes, sync barriers —
//     of a workload deterministically (see tests/wal_recovery_test.cc).
//
// Commit metadata. Table catalogs (heap head/tail pages, B+-tree roots) live
// in memory, so a raw page store cannot be reattached after a crash. Each
// commit record therefore carries an opaque metadata blob — in practice
// `sql::Catalog::SerializeLayouts()` — restored by recovery and readable via
// `recovered_metadata()`. Checkpoints persist the same blob in the manifest
// (ping-pong slots in physical pages 0 and 1 of the data device; client
// page v maps to physical page v + 2).
//
// Crash-ordering contract (who syncs when):
//   commit     = stage, then await. Stage appends the dirty images and a
//                commit record to the in-memory log tail; await writes the
//                staged bytes and issues the log Sync. Log order is stage
//                order, and flushes land one at a time in that order, so
//                recovery keeps a prefix of the staged commits. A commit
//                whose await returned OK is durable.
//   checkpoint = commit, then data pages + data Sync, then manifest + data
//                Sync, then log reset + log Sync. Every prefix of that
//                sequence recovers to a committed state.
// The buffer pool's dirty write-backs go to the overlay only, so eviction
// order never violates the log-before-data discipline.
#ifndef FOCUS_STORAGE_WAL_H_
#define FOCUS_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/status.h"

namespace focus::obs {
class EventLog;
}  // namespace focus::obs

namespace focus::storage {

// Counters and occupancy of the logging layer, exported through obs as
// focus_wal_appends_total / focus_wal_syncs_total /
// focus_wal_recovery_replayed_total (and friends).
struct WalStats {
  uint64_t appends = 0;            // page-image records appended
  uint64_t syncs = 0;              // log-device sync barriers issued
  uint64_t commits = 0;            // commit records made durable
  uint64_t checkpoints = 0;        // completed checkpoints
  uint64_t log_bytes = 0;          // record bytes appended (before padding)
  uint64_t recovery_replayed = 0;  // committed page images replayed on Open
  uint64_t recovered_commits = 0;  // committed batches found in the log
  uint64_t group_commit_flushes = 0;    // sync barriers covering >= 1 commit
  uint64_t group_commit_max_batch = 0;  // most commits one sync covered
  // Point-in-time occupancy: a checkpoint returns the tail to the start of
  // the device, so tests can pin log growth across checkpoint cycles.
  uint64_t epoch = 0;          // current log epoch
  uint64_t tail_bytes = 0;     // durable append tail (page-aligned)
  uint64_t pending_bytes = 0;  // staged, not yet flushed
  uint32_t device_pages = 0;   // log-device pages written (high-water)
};

// The append/parse engine for one log device. Not thread safe; callers
// (WalDiskManager) serialize access.
class Wal {
 public:
  // Committed state parsed out of a log device.
  struct Recovered {
    uint64_t epoch = 0;    // epoch of the log's records (0 if empty)
    bool empty = true;     // no valid records at all
    uint64_t commits = 0;  // committed batches (commit records seen)
    uint64_t replayed_records = 0;
    bool have_horizon = false;  // a commit/checkpoint record was found
    uint32_t num_pages = 0;     // committed page-allocation horizon
    std::string metadata;       // metadata blob of the last committed batch
    std::map<PageId, std::unique_ptr<Page>> pages;  // committed images
  };

  explicit Wal(DiskManager* log) : log_(log) {}

  // Parses the log from its first page: records are applied in order, a
  // batch becomes visible only when its commit record checks out, and the
  // first bad magic/checksum/epoch ends the scan (torn tail => the
  // in-flight batch never happened). Leaves the append tail positioned
  // after the last committed record.
  Result<Recovered> Recover();

  // Buffers a redo record for `image` (volatile until Commit).
  void Append(PageId id, const char* image);

  // Appends a commit record carrying the allocation horizon and metadata,
  // writes the buffered byte stream to the log device, and issues the
  // Sync() barrier. On OK the batch is durable.
  Status Commit(uint32_t num_pages, std::string_view metadata);

  // Group-commit building blocks (used by WalDiskManager's leader/follower
  // protocol; Commit() above is AppendCommit + one full flush).
  //
  // AppendCommit stages a commit record without flushing: several batches
  // may stage back to back and ride one sync barrier.
  void AppendCommit(uint32_t num_pages, std::string_view metadata);
  // A flush unit taken under the caller's lock. TakePending moves the
  // staged bytes out and *reserves* their log-device extent by advancing
  // the append tail, so later batches can stage (and even flush) while
  // this unit's device I/O is still in flight.
  struct PendingFlush {
    std::string bytes;
    uint64_t first_page = 0;
    uint64_t commits = 0;   // commit records inside `bytes`
    uint64_t new_tail = 0;  // page-aligned tail after this unit lands
    bool empty() const { return bytes.empty(); }
  };
  PendingFlush TakePending();
  // Computes the unit's record checksums, writes its pages (ascending,
  // commit record last) and issues the sync barrier. Touches only the unit
  // and the log device — safe to call without the owner's lock as long as
  // only one flush is in flight at a time.
  Status WriteFlush(PendingFlush* flush);
  // Folds a completed WriteFlush back into the stats (caller's lock held).
  void FinishFlush(const PendingFlush& flush);

  // Starts epoch `new_epoch`: rewrites the log from page 0 with a single
  // checkpoint record and syncs. Pages beyond the new tail keep stale bytes;
  // their old epoch makes Recover() ignore them. The caller must have made
  // the data device consistent first.
  Status Reset(uint64_t new_epoch, uint32_t num_pages,
               std::string_view metadata);

  // Counters plus the log's current occupancy.
  WalStats stats() const;

 private:
  DiskManager* log_;
  uint64_t epoch_ = 0;
  uint64_t next_lsn_ = 0;
  // Byte offset where the next record lands; page-aligned after every
  // flush so a new batch never rewrites synced bytes (a torn rewrite of a
  // shared tail page could otherwise destroy a *committed* record).
  uint64_t tail_ = 0;
  std::string pending_;
  uint64_t staged_commits_ = 0;  // commit records in pending_
  // Log-device pages written so far. Tracked here, under the owner's lock,
  // because a flush in flight grows the device without that lock.
  uint32_t device_pages_ = 0;
  WalStats stats_;
};

// A staged commit, handed from WalDiskManager::StageCommit to AwaitCommit.
struct CommitTicket {
  // The commit is durable once every commit up to `seq` is. A stage with
  // nothing to log names the newest staged commit, so its await still
  // covers every batch staged before it. 0 = nothing to wait for.
  uint64_t seq = 0;
  uint64_t pages = 0;   // page images the commit logged
  bool logged = false;  // AwaitCommit records the kWalCommit event
};

// DiskManager decorator: WAL + no-steal overlay + manifest, providing
// atomic durable commits over a (data, log) device pair.
class WalDiskManager final : public DiskManager {
 public:
  struct Options {
    // When Open() replayed anything (or found a stale log), immediately
    // checkpoint the recovered state — the ARIES end-of-recovery
    // checkpoint. Gives recovery itself crash points (double-crash tests)
    // and bounds log growth across repeated crashes.
    bool checkpoint_after_recovery = false;
    // Group commit: a committer that becomes flush leader waits this long
    // (with the store lock released) for concurrent committers to stage
    // their batches before issuing the shared sync barrier. 0 = sync
    // immediately; concurrent commits still coalesce opportunistically
    // whenever they stage while another flush's device I/O is in flight.
    double group_commit_wait_us = 0;
  };

  // Attaches to `data` + `log` (borrowed; must outlive the manager) and
  // runs recovery: reads the manifest, replays committed log records past
  // the last checkpoint, and reconstructs the committed overlay. Fresh
  // (empty) devices come up as an empty store at epoch 0.
  static Result<std::unique_ptr<WalDiskManager>> Open(
      DiskManager* data, DiskManager* log, Options options);
  static Result<std::unique_ptr<WalDiskManager>> Open(DiskManager* data,
                                                      DiskManager* log) {
    return Open(data, log, Options{});
  }
  ~WalDiskManager() override;

  WalDiskManager(const WalDiskManager&) = delete;
  WalDiskManager& operator=(const WalDiskManager&) = delete;

  // DiskManager interface, in *client* page ids (0-based; physical data
  // page = client page + 2, past the manifest slots).
  Status ReadPage(PageId id, char* out) override;
  // Serves the overlay page by page but forwards each contiguous
  // non-overlay run to the data device as one batched read, so pool
  // readahead keeps its single-seek cost through the WAL decorator.
  Status ReadPages(PageId first, uint32_t n, char* out) override;
  Status WritePage(PageId id, const char* in) override;
  Result<PageId> AllocatePage() override;
  uint32_t NumPages() const override;
  // Durability barrier == Commit with the previous metadata blob.
  Status Sync() override;

  // Commit = StageCommit + AwaitCommit: logs every page written since the
  // last commit plus a commit record carrying `metadata`, then syncs the
  // log. Atomic: after a crash the store recovers to exactly a commit
  // boundary.
  Status Commit(std::string_view metadata);

  // Stage half of a commit: appends the dirty page images and a commit
  // record carrying `metadata` to the log tail and returns without
  // waiting for the log device. A caller that stages under its own lock
  // fixes the log order of its batches to that lock's order and can await
  // after releasing it.
  Result<CommitTicket> StageCommit(std::string_view metadata);

  // Await half: returns once the ticket's commit is durable. Concurrent
  // awaits group-commit: one leader's sync barrier covers every commit
  // staged before it (followers block, bounded by the leader's I/O, and
  // return once their commit is durable). Options::group_commit_wait_us
  // lets the leader linger for late joiners.
  Status AwaitCommit(const CommitTicket& ticket);

  // Applies the committed overlay to the data device and truncates the
  // log. `metadata` must fit in a manifest page (~4 KiB); keep it a
  // compact catalog blob.
  Status Checkpoint(std::string_view metadata);

  // Metadata blob restored by recovery ("" for a fresh store).
  const std::string& recovered_metadata() const { return recovered_metadata_; }
  uint64_t epoch() const { return epoch_; }
  WalStats wal_stats() const;

  // Exports WAL counters through the metrics registry, labeled
  // {wal=<name>}. Follows the BufferPool::BindMetrics collector pattern.
  void BindMetrics(obs::MetricsRegistry* registry, std::string name);

  // Provenance hook: commits and checkpoints record kWalCommit /
  // kWalCheckpoint events (the durable batch boundaries that order the
  // crawl's event history). Binding after a recovery that replayed
  // records emits one retrospective kWalReplay event, since recovery runs
  // inside Open() before any log can be attached.
  void BindEventLog(obs::EventLog* log);

 private:
  WalDiskManager(DiskManager* data, DiskManager* log, Options options)
      : options_(options), data_(data), log_(log), wal_(log) {}

  Status RecoverLocked();
  // Stages the current dirty set + a commit record.
  Result<CommitTicket> StageLocked(std::string_view metadata);
  // Runs the leader/follower group-flush protocol until `ticket` is
  // durable (may release and reacquire `lock` around the device I/O).
  Status AwaitLocked(const CommitTicket& ticket,
                     std::unique_lock<std::mutex>& lock);
  Status CheckpointLocked(std::string_view metadata,
                          std::unique_lock<std::mutex>& lock);
  Status WriteManifestLocked(uint64_t epoch, std::string_view metadata);

  const Options options_;
  DiskManager* data_;
  DiskManager* log_;

  mutable std::mutex mutex_;
  Wal wal_;
  uint64_t epoch_ = 0;
  uint32_t num_pages_ = 0;  // client-page allocation horizon
  std::string metadata_;    // blob as of the last commit
  std::string recovered_metadata_;
  // No-steal overlay: every page written since the last checkpoint.
  // Ordered so commit/checkpoint scans are deterministic (stable log
  // content and crash-op numbering across runs).
  std::map<PageId, std::unique_ptr<Page>> overlay_;
  std::set<PageId> dirty_;  // written since the last commit
  uint64_t replayed_ = 0;
  uint64_t recovered_commits_ = 0;

  // Group-commit protocol state (all under mutex_). A committer stages its
  // batch and takes a sequence number; its await either becomes the flush
  // leader (when no flush is in flight) or waits on group_cv_ for a leader
  // whose sync barrier (or a checkpoint) covers its sequence number.
  std::condition_variable group_cv_;
  bool flush_in_progress_ = false;
  uint64_t staged_seq_ = 0;  // seq of the newest staged commit
  uint64_t synced_seq_ = 0;  // commits with seq <= this are durable
  // Sticky failure: once a group flush fails, the log tail state is
  // unknown, so every later commit fails with the same status until the
  // store is reopened (recovery re-establishes a consistent tail).
  Status log_failed_;

  obs::MetricsRegistry* metrics_registry_ = nullptr;
  uint64_t collector_id_ = 0;
  obs::Histogram* group_hist_ = nullptr;  // group-commit batch sizes
  obs::EventLog* event_log_ = nullptr;
};

}  // namespace focus::storage

#endif  // FOCUS_STORAGE_WAL_H_
