#include "storage/wal.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace focus::storage {

namespace {

// Log record wire format (host-endian; log and data files are per-machine):
//   u32 magic | u8 type | u64 epoch | u64 lsn | u32 payload_len
//   | payload | u64 checksum
// The checksum covers [type .. payload end], so a torn tail page fails
// verification and ends recovery at the previous committed record.
constexpr uint32_t kRecordMagic = 0x4C415746;  // "FWAL"
constexpr uint8_t kRecPageImage = 1;
constexpr uint8_t kRecCommit = 2;
constexpr uint8_t kRecCheckpoint = 3;
constexpr size_t kRecHeader = 4 + 1 + 8 + 8 + 4;
constexpr size_t kRecTrailer = 8;
// Commit metadata blobs are small catalog layouts; anything bigger than
// this is corruption, not data.
constexpr uint32_t kMaxMetadata = 1u << 20;

// Manifest page format (physical pages 0 and 1 of the data device):
//   u32 magic | u64 epoch | u32 num_pages | u32 metadata_len
//   | metadata | u64 checksum
constexpr uint32_t kManifestMagic = 0x4E414D46;  // "FMAN"
constexpr uint32_t kManifestHeader = 4 + 8 + 4 + 4;
constexpr uint32_t kManifestPages = 2;

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T ReadPod(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

uint64_t AlignUp(uint64_t off) {
  return (off + kPageSize - 1) / kPageSize * kPageSize;
}

// Serializes one record into `out`; its payload is `head` then `body`. The
// checksum slot stays zero until SealRecords fills it in at flush time, so
// appending (under the committer's locks) copies but never hashes.
void AppendRecord(std::string* out, uint8_t type, uint64_t epoch, uint64_t lsn,
                  std::string_view head, std::string_view body = {}) {
  AppendPod<uint32_t>(out, kRecordMagic);
  AppendPod<uint8_t>(out, type);
  AppendPod<uint64_t>(out, epoch);
  AppendPod<uint64_t>(out, lsn);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(head.size() + body.size()));
  out->append(head);
  out->append(body);
  AppendPod<uint64_t>(out, 0);
}

// Computes the checksum of every record in `bytes`, a run of whole records
// as AppendRecord laid them out.
void SealRecords(std::string* bytes) {
  size_t off = 0;
  while (off < bytes->size()) {
    char* p = bytes->data() + off;
    uint32_t len = ReadPod<uint32_t>(p + 21);
    uint64_t sum = Fnv1a64(std::string_view(p + 4, kRecHeader - 4 + len));
    std::memcpy(p + kRecHeader + len, &sum, sizeof(sum));
    off += kRecHeader + len + kRecTrailer;
  }
}

std::string CommitPayload(uint32_t num_pages, std::string_view metadata) {
  std::string payload;
  AppendPod<uint32_t>(&payload, num_pages);
  AppendPod<uint32_t>(&payload, static_cast<uint32_t>(metadata.size()));
  payload.append(metadata);
  return payload;
}

}  // namespace

void Wal::Append(PageId id, const char* image) {
  size_t before = pending_.size();
  AppendRecord(&pending_, kRecPageImage, epoch_, next_lsn_++,
               std::string_view(reinterpret_cast<const char*>(&id),
                                sizeof(id)),
               std::string_view(image, kPageSize));
  ++stats_.appends;
  stats_.log_bytes += pending_.size() - before;
}

void Wal::AppendCommit(uint32_t num_pages, std::string_view metadata) {
  size_t before = pending_.size();
  AppendRecord(&pending_, kRecCommit, epoch_, next_lsn_++,
               CommitPayload(num_pages, metadata));
  stats_.log_bytes += pending_.size() - before;
  ++staged_commits_;
}

Wal::PendingFlush Wal::TakePending() {
  PendingFlush f;
  f.bytes = std::move(pending_);
  pending_.clear();
  f.first_page = tail_ / kPageSize;
  f.commits = staged_commits_;
  staged_commits_ = 0;
  uint64_t npages = (f.bytes.size() + kPageSize - 1) / kPageSize;
  f.new_tail = (f.first_page + npages) * kPageSize;
  // Reserving the extent up front lets batches staged during this unit's
  // device I/O land past it; page alignment keeps concurrent units from
  // ever sharing a log page.
  tail_ = f.new_tail;
  return f;
}

Status Wal::WriteFlush(PendingFlush* pending) {
  SealRecords(&pending->bytes);
  const PendingFlush& flush = *pending;
  size_t npages = (flush.bytes.size() + kPageSize - 1) / kPageSize;
  Page pg;
  for (size_t i = 0; i < npages; ++i) {
    size_t p = static_cast<size_t>(flush.first_page) + i;
    while (log_->NumPages() <= p) {
      FOCUS_ASSIGN_OR_RETURN(PageId fresh, log_->AllocatePage());
      (void)fresh;
    }
    pg.Zero();
    size_t off = i * kPageSize;
    size_t n = std::min<size_t>(kPageSize, flush.bytes.size() - off);
    std::memcpy(pg.data, flush.bytes.data() + off, n);
    // Ascending order matters: the commit record sits in the final pages,
    // so a crash mid flush can only lose the batch, never half-commit it.
    FOCUS_RETURN_IF_ERROR(
        log_->WritePage(static_cast<PageId>(p), pg.data));
  }
  return log_->Sync();
}

void Wal::FinishFlush(const PendingFlush& flush) {
  device_pages_ = std::max(device_pages_,
                           static_cast<uint32_t>(flush.new_tail / kPageSize));
  ++stats_.syncs;
  stats_.commits += flush.commits;
  if (flush.commits > 0) {
    ++stats_.group_commit_flushes;
    stats_.group_commit_max_batch =
        std::max(stats_.group_commit_max_batch, flush.commits);
  }
}

WalStats Wal::stats() const {
  WalStats s = stats_;
  s.epoch = epoch_;
  s.tail_bytes = tail_;
  s.pending_bytes = pending_.size();
  s.device_pages = device_pages_;
  return s;
}

Status Wal::Commit(uint32_t num_pages, std::string_view metadata) {
  AppendCommit(num_pages, metadata);
  PendingFlush flush = TakePending();
  FOCUS_RETURN_IF_ERROR(WriteFlush(&flush));
  FinishFlush(flush);
  return Status::OK();
}

Status Wal::Reset(uint64_t new_epoch, uint32_t num_pages,
                  std::string_view metadata) {
  // The old tail's pages are reused by the new epoch (recovery ignores
  // stale-epoch records, so no erase is needed).
  epoch_ = new_epoch;
  tail_ = 0;
  pending_.clear();
  staged_commits_ = 0;
  size_t before = pending_.size();
  AppendRecord(&pending_, kRecCheckpoint, epoch_, next_lsn_++,
               CommitPayload(num_pages, metadata));
  stats_.log_bytes += pending_.size() - before;
  PendingFlush flush = TakePending();
  FOCUS_RETURN_IF_ERROR(WriteFlush(&flush));
  FinishFlush(flush);
  ++stats_.checkpoints;
  return Status::OK();
}

Result<Wal::Recovered> Wal::Recover() {
  uint32_t n = log_->NumPages();
  device_pages_ = n;
  std::string buf(static_cast<size_t>(n) * kPageSize, '\0');
  for (uint32_t i = 0; i < n; ++i) {
    FOCUS_RETURN_IF_ERROR(log_->ReadPage(i, buf.data() + i * kPageSize));
  }

  Recovered rec;
  std::map<PageId, std::unique_ptr<Page>> staged;
  uint64_t staged_records = 0;
  uint64_t max_lsn = 0;
  uint64_t committed_end = 0;  // byte offset just past the last commit
  size_t off = 0;

  // Parses one record at `at`; returns its end offset or 0 on failure.
  auto parse_at = [&](size_t at) -> size_t {
    if (at + kRecHeader + kRecTrailer > buf.size()) return 0;
    const char* p = buf.data() + at;
    if (ReadPod<uint32_t>(p) != kRecordMagic) return 0;
    uint8_t type = ReadPod<uint8_t>(p + 4);
    if (type < kRecPageImage || type > kRecCheckpoint) return 0;
    uint64_t epoch = ReadPod<uint64_t>(p + 5);
    if (!rec.empty && epoch != rec.epoch) return 0;
    uint64_t lsn = ReadPod<uint64_t>(p + 13);
    uint32_t len = ReadPod<uint32_t>(p + 21);
    if (type == kRecPageImage && len != 4 + kPageSize) return 0;
    if (type != kRecPageImage && (len < 8 || len > kMaxMetadata + 8)) return 0;
    size_t end = at + kRecHeader + len + kRecTrailer;
    if (end > buf.size()) return 0;
    uint64_t sum =
        Fnv1a64(std::string_view(p + 4, kRecHeader - 4 + len));
    if (ReadPod<uint64_t>(p + kRecHeader + len) != sum) return 0;

    const char* payload = p + kRecHeader;
    if (type == kRecPageImage) {
      PageId id = ReadPod<uint32_t>(payload);
      auto page = std::make_unique<Page>();
      std::memcpy(page->data, payload + 4, kPageSize);
      staged[id] = std::move(page);
      ++staged_records;
    } else {
      uint32_t num_pages = ReadPod<uint32_t>(payload);
      uint32_t meta_len = ReadPod<uint32_t>(payload + 4);
      if (meta_len + 8 != len) return 0;
      for (auto& [id, page] : staged) rec.pages[id] = std::move(page);
      rec.replayed_records += staged_records;
      staged.clear();
      staged_records = 0;
      rec.have_horizon = true;
      rec.num_pages = num_pages;
      rec.metadata.assign(payload + 8, meta_len);
      if (type == kRecCommit) ++rec.commits;
      committed_end = end;
    }
    if (rec.empty) {
      rec.empty = false;
      rec.epoch = epoch;
    }
    max_lsn = std::max(max_lsn, lsn);
    return end;
  };

  while (off < buf.size()) {
    size_t end = parse_at(off);
    if (end == 0 && off % kPageSize != 0) {
      // Batches start on page boundaries (the flush pads); skip the
      // zero padding after the previous batch and retry.
      end = parse_at(AlignUp(off));
      if (end != 0) off = AlignUp(off);
    }
    if (end == 0) break;
    off = end;
  }
  // `staged` now holds only images from a batch whose commit record never
  // made it durable: the crash interrupted the flush. Discard them.

  epoch_ = rec.epoch;
  next_lsn_ = rec.empty ? 0 : max_lsn + 1;
  tail_ = AlignUp(committed_end);
  pending_.clear();
  staged_commits_ = 0;
  return rec;
}

Result<std::unique_ptr<WalDiskManager>> WalDiskManager::Open(
    DiskManager* data, DiskManager* log, Options options) {
  auto m = std::unique_ptr<WalDiskManager>(
      new WalDiskManager(data, log, options));
  FOCUS_RETURN_IF_ERROR(m->RecoverLocked());
  return m;
}

WalDiskManager::~WalDiskManager() {
  if (collector_id_ != 0) metrics_registry_->RemoveCollector(collector_id_);
}

Status WalDiskManager::RecoverLocked() {
  std::unique_lock<std::mutex> lock(mutex_);
  // A fresh data device gets its two manifest slots; after a crash during
  // creation one slot may be missing — both cases converge here.
  while (data_->NumPages() < kManifestPages) {
    FOCUS_ASSIGN_OR_RETURN(PageId fresh, data_->AllocatePage());
    (void)fresh;
  }

  // The manifest slots ping-pong by epoch parity; take the newest one
  // whose checksum holds (a torn manifest write loses only its slot).
  uint64_t m_epoch = 0;
  uint32_t m_pages = 0;
  std::string m_meta;
  bool have_manifest = false;
  Page pg;
  for (PageId slot = 0; slot < kManifestPages; ++slot) {
    FOCUS_RETURN_IF_ERROR(data_->ReadPage(slot, pg.data));
    if (ReadPod<uint32_t>(pg.data) != kManifestMagic) continue;
    uint64_t epoch = ReadPod<uint64_t>(pg.data + 4);
    uint32_t num_pages = ReadPod<uint32_t>(pg.data + 12);
    uint32_t meta_len = ReadPod<uint32_t>(pg.data + 16);
    if (meta_len > kPageSize - kManifestHeader - 8) continue;
    uint64_t sum = Fnv1a64(
        std::string_view(pg.data, kManifestHeader + meta_len));
    if (ReadPod<uint64_t>(pg.data + kManifestHeader + meta_len) != sum) {
      continue;
    }
    if (!have_manifest || epoch > m_epoch) {
      have_manifest = true;
      m_epoch = epoch;
      m_pages = num_pages;
      m_meta.assign(pg.data + kManifestHeader, meta_len);
    }
  }

  FOCUS_ASSIGN_OR_RETURN(Wal::Recovered rec, wal_.Recover());
  bool stale_log = false;
  if (!rec.empty && rec.epoch == m_epoch) {
    // The log continues the manifest's epoch: its committed batches are
    // the tail of history. Replay them over the checkpointed base.
    // The replayed images are committed (still described by the log), so
    // they are NOT re-marked dirty; the overlay just serves reads until
    // the next checkpoint folds them into the data device.
    overlay_ = std::move(rec.pages);
    replayed_ = rec.replayed_records;
    recovered_commits_ = rec.commits;
    num_pages_ = rec.have_horizon ? std::max(rec.num_pages, m_pages) : m_pages;
    metadata_ = rec.have_horizon ? rec.metadata : m_meta;
  } else if (!rec.empty && rec.epoch < m_epoch) {
    // Checkpoint completed through the manifest write, but the log reset
    // never landed: the data device already holds everything the stale
    // log describes.
    stale_log = true;
    num_pages_ = m_pages;
    metadata_ = m_meta;
  } else if (!rec.empty && rec.epoch > m_epoch) {
    // The checkpoint protocol syncs the manifest before resetting the
    // log, so this cannot happen short of device corruption.
    return Status::Internal(
        StrCat("log epoch ", rec.epoch, " ahead of manifest ", m_epoch));
  } else {
    // Empty log. Either a fresh store, or a crash tore the log reset
    // after the manifest advanced; the manifest state stands alone.
    stale_log = m_epoch > 0;
    num_pages_ = m_pages;
    metadata_ = m_meta;
  }
  epoch_ = m_epoch;
  recovered_metadata_ = metadata_;

  if (stale_log) {
    // Re-seat the log at the manifest's epoch so new appends are not
    // mistaken for records of a dead epoch.
    FOCUS_RETURN_IF_ERROR(wal_.Reset(epoch_, num_pages_, metadata_));
  }
  if (options_.checkpoint_after_recovery && (replayed_ > 0 || stale_log)) {
    // Copy: CheckpointLocked's inline commit assigns metadata_ from the
    // view it is given, which must not alias metadata_'s own buffer.
    std::string metadata = metadata_;
    FOCUS_RETURN_IF_ERROR(CheckpointLocked(metadata, lock));
  }
  return Status::OK();
}

Status WalDiskManager::ReadPage(PageId id, char* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = overlay_.find(id); it != overlay_.end()) {
    std::memcpy(out, it->second->data, kPageSize);
    ++stats_.reads;
    return Status::OK();
  }
  if (id >= num_pages_) {
    return Status::OutOfRange(StrCat("read of unallocated page ", id));
  }
  PageId phys = id + kManifestPages;
  if (phys >= data_->NumPages()) {
    // Every committed page is either checkpointed or in the overlay.
    return Status::Internal(StrCat("page ", id, " lost by recovery"));
  }
  FOCUS_RETURN_IF_ERROR(data_->ReadPage(phys, out));
  ++stats_.reads;
  return Status::OK();
}

Status WalDiskManager::ReadPages(PageId first, uint32_t n, char* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t i = 0;
  while (i < n) {
    PageId id = first + i;
    if (id >= num_pages_) {
      return Status::OutOfRange(StrCat("read of unallocated page ", id));
    }
    if (auto it = overlay_.find(id); it != overlay_.end()) {
      std::memcpy(out + static_cast<size_t>(i) * kPageSize, it->second->data,
                  kPageSize);
      ++stats_.reads;
      ++i;
      continue;
    }
    // Extend the contiguous run of non-overlay committed pages and forward
    // it to the data device as one batched read, so pool readahead keeps
    // its single-seek cost through the decorator.
    uint32_t run = 1;
    while (i + run < n) {
      PageId next = first + i + run;
      if (next >= num_pages_ || overlay_.count(next) != 0) break;
      ++run;
    }
    PageId phys = id + kManifestPages;
    if (static_cast<uint64_t>(phys) + run > data_->NumPages()) {
      return Status::Internal(StrCat("page ", id, " lost by recovery"));
    }
    FOCUS_RETURN_IF_ERROR(data_->ReadPages(
        phys, run, out + static_cast<size_t>(i) * kPageSize));
    stats_.reads += run;
    ++stats_.batch_reads;
    i += run;
  }
  return Status::OK();
}

Status WalDiskManager::WritePage(PageId id, const char* in) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= num_pages_) {
    return Status::OutOfRange(StrCat("write of unallocated page ", id));
  }
  auto& page = overlay_[id];
  if (page == nullptr) page = std::make_unique<Page>();
  std::memcpy(page->data, in, kPageSize);
  dirty_.insert(id);
  ++stats_.writes;
  return Status::OK();
}

Result<PageId> WalDiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  PageId id = num_pages_++;
  auto page = std::make_unique<Page>();
  page->Zero();
  overlay_[id] = std::move(page);
  dirty_.insert(id);
  ++stats_.allocations;
  return id;
}

uint32_t WalDiskManager::NumPages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_pages_;
}

Status WalDiskManager::Sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.syncs;
  std::string metadata = metadata_;  // StageLocked reassigns metadata_
  FOCUS_ASSIGN_OR_RETURN(CommitTicket ticket, StageLocked(metadata));
  return AwaitLocked(ticket, lock);
}

Status WalDiskManager::Commit(std::string_view metadata) {
  std::unique_lock<std::mutex> lock(mutex_);
  FOCUS_ASSIGN_OR_RETURN(CommitTicket ticket, StageLocked(metadata));
  return AwaitLocked(ticket, lock);
}

Result<CommitTicket> WalDiskManager::StageCommit(std::string_view metadata) {
  std::lock_guard<std::mutex> lock(mutex_);
  return StageLocked(metadata);
}

Status WalDiskManager::AwaitCommit(const CommitTicket& ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  return AwaitLocked(ticket, lock);
}

Status WalDiskManager::Checkpoint(std::string_view metadata) {
  std::unique_lock<std::mutex> lock(mutex_);
  return CheckpointLocked(metadata, lock);
}

Result<CommitTicket> WalDiskManager::StageLocked(std::string_view metadata) {
  FOCUS_RETURN_IF_ERROR(log_failed_);
  CommitTicket ticket;
  ticket.seq = staged_seq_;
  if (dirty_.empty() && metadata == metadata_) return ticket;
  ticket.pages = dirty_.size();
  for (PageId id : dirty_) {
    wal_.Append(id, overlay_[id]->data);
  }
  wal_.AppendCommit(num_pages_, metadata);
  dirty_.clear();
  metadata_.assign(metadata.data(), metadata.size());
  ticket.seq = ++staged_seq_;
  ticket.logged = true;
  return ticket;
}

Status WalDiskManager::AwaitLocked(const CommitTicket& ticket,
                                   std::unique_lock<std::mutex>& lock) {
  // If another committer's flush is in flight, our commit is staged behind
  // its reserved extent: wait for a barrier that covers us, or for the
  // flight to end so we can lead the next one. The wait is bounded by one
  // log flush (plus the leader's optional linger).
  while (flush_in_progress_ && synced_seq_ < ticket.seq) {
    group_cv_.wait(lock);
  }
  if (synced_seq_ < ticket.seq) {
    FOCUS_RETURN_IF_ERROR(log_failed_);
    // Become the flush leader for everything staged so far.
    flush_in_progress_ = true;
    if (options_.group_commit_wait_us > 0) {
      // Bounded linger: let concurrent committers stage into our batch.
      // They see flush_in_progress_ and park above, so one barrier will
      // cover them all.
      group_cv_.wait_for(
          lock, std::chrono::duration<double, std::micro>(
                    options_.group_commit_wait_us));
    }
    Wal::PendingFlush flush = wal_.TakePending();
    uint64_t covered = staged_seq_;
    Status st;
    if (!flush.empty()) {
      // The log device is touched by exactly one flusher at a time
      // (flush_in_progress_), so the store lock can drop during the I/O
      // and other committers keep staging.
      lock.unlock();
      st = wal_.WriteFlush(&flush);
      lock.lock();
      if (st.ok()) {
        wal_.FinishFlush(flush);
        if (group_hist_ != nullptr && flush.commits > 0) {
          group_hist_->Observe(flush.commits);
        }
      } else {
        // The log tail state is now unknown; poison every later commit
        // until recovery re-establishes a consistent tail.
        log_failed_ = st;
      }
    }
    // An empty take means a checkpoint's log reset dropped the staged
    // bytes after its manifest had made them durable.
    if (st.ok()) synced_seq_ = covered;
    flush_in_progress_ = false;
    group_cv_.notify_all();
    FOCUS_RETURN_IF_ERROR(st);
  }
  if (ticket.logged && event_log_ != nullptr) {
    event_log_->Record(obs::CrawlEventType::kWalCommit, /*oid=*/-1,
                       /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                       /*value=*/static_cast<double>(ticket.pages),
                       /*aux=*/static_cast<int64_t>(wal_.stats().commits));
  }
  return Status::OK();
}

Status WalDiskManager::CheckpointLocked(std::string_view metadata,
                                        std::unique_lock<std::mutex>& lock) {
  // Wait out any in-flight group flush: between the commit below and the
  // log reset, no other thread may touch the log device.
  while (flush_in_progress_) {
    group_cv_.wait(lock);
  }
  FOCUS_RETURN_IF_ERROR(log_failed_);
  // Commit inline with the lock held throughout (no group coalescing): a
  // page written by another thread between this commit and the overlay
  // fold below would otherwise be clobbered. This also flushes any batch a
  // parked committer staged before we got the lock — its pages are in the
  // overlay we are about to fold, so it stays durable across the reset.
  if (!dirty_.empty() || metadata != metadata_) {
    uint64_t logged = dirty_.size();
    for (PageId id : dirty_) {
      wal_.Append(id, overlay_[id]->data);
    }
    Status committed = wal_.Commit(num_pages_, metadata);
    if (!committed.ok()) {
      // The flush carried every staged commit, whose awaits would
      // otherwise find nothing pending and report them durable.
      log_failed_ = committed;
      return committed;
    }
    dirty_.clear();
    metadata_.assign(metadata.data(), metadata.size());
    if (event_log_ != nullptr) {
      event_log_->Record(obs::CrawlEventType::kWalCommit, /*oid=*/-1,
                         /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                         /*value=*/static_cast<double>(logged),
                         /*aux=*/static_cast<int64_t>(wal_.stats().commits));
    }
  }
  if (overlay_.empty() && epoch_ > 0) return Status::OK();
  for (const auto& [id, page] : overlay_) {
    PageId phys = id + kManifestPages;
    while (data_->NumPages() <= phys) {
      FOCUS_ASSIGN_OR_RETURN(PageId fresh, data_->AllocatePage());
      (void)fresh;
    }
    FOCUS_RETURN_IF_ERROR(data_->WritePage(phys, page->data));
  }
  FOCUS_RETURN_IF_ERROR(data_->Sync());
  FOCUS_RETURN_IF_ERROR(WriteManifestLocked(epoch_ + 1, metadata_));
  FOCUS_RETURN_IF_ERROR(data_->Sync());
  if (Status reset = wal_.Reset(epoch_ + 1, num_pages_, metadata_);
      !reset.ok()) {
    // The manifest already names the new epoch, but its log head may never
    // have been written: a later commit appended behind it would be lost
    // by recovery, so poison the log as a failed flush does.
    log_failed_ = reset;
    return reset;
  }
  ++epoch_;
  overlay_.clear();
  dirty_.clear();
  // The data device now holds every staged commit, including any the
  // reset dropped from the log tail before its await ran.
  synced_seq_ = staged_seq_;
  group_cv_.notify_all();
  if (event_log_ != nullptr) {
    event_log_->Record(obs::CrawlEventType::kWalCheckpoint, /*oid=*/-1,
                       /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                       /*value=*/0.0, /*aux=*/static_cast<int64_t>(epoch_));
  }
  return Status::OK();
}

Status WalDiskManager::WriteManifestLocked(uint64_t epoch,
                                           std::string_view metadata) {
  if (metadata.size() > kPageSize - kManifestHeader - 8) {
    return Status::InvalidArgument(
        StrCat("manifest metadata too large: ", metadata.size(), " bytes"));
  }
  std::string bytes;
  bytes.reserve(kPageSize);
  AppendPod<uint32_t>(&bytes, kManifestMagic);
  AppendPod<uint64_t>(&bytes, epoch);
  AppendPod<uint32_t>(&bytes, num_pages_);
  AppendPod<uint32_t>(&bytes, static_cast<uint32_t>(metadata.size()));
  bytes.append(metadata);
  AppendPod<uint64_t>(&bytes, Fnv1a64(bytes));
  Page pg;
  pg.Zero();
  std::memcpy(pg.data, bytes.data(), bytes.size());
  PageId slot = static_cast<PageId>(epoch % kManifestPages);
  return data_->WritePage(slot, pg.data);
}

WalStats WalDiskManager::wal_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WalStats s = wal_.stats();
  s.recovery_replayed = replayed_;
  s.recovered_commits = recovered_commits_;
  return s;
}

void WalDiskManager::BindMetrics(obs::MetricsRegistry* registry,
                                 std::string name) {
  if (collector_id_ != 0) metrics_registry_->RemoveCollector(collector_id_);
  metrics_registry_ = obs::MetricsRegistry::OrGlobal(registry);
  obs::Labels labels = {{"wal", std::move(name)}};
  // Look the histogram up before taking mutex_: collectors run under the
  // registry's lock and take mutex_, so the reverse order could deadlock.
  obs::Histogram* group_hist = metrics_registry_->GetHistogram(
      "focus_wal_group_commit_batch_size", labels);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    group_hist_ = group_hist;
  }
  collector_id_ = metrics_registry_->AddCollector(
      [this, labels](std::vector<obs::GaugeSample>* out) {
        WalStats s = wal_stats();
        size_t overlay_pages;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          overlay_pages = overlay_.size();
        }
        auto emit = [&](const char* n, uint64_t v) {
          out->push_back({n, labels, static_cast<double>(v)});
        };
        emit("focus_wal_appends_total", s.appends);
        emit("focus_wal_syncs_total", s.syncs);
        emit("focus_wal_commits_total", s.commits);
        emit("focus_wal_checkpoints_total", s.checkpoints);
        emit("focus_wal_log_bytes_total", s.log_bytes);
        emit("focus_wal_recovery_replayed_total", s.recovery_replayed);
        emit("focus_wal_recovered_commits_total", s.recovered_commits);
        emit("focus_wal_overlay_pages", overlay_pages);
        emit("focus_wal_epoch", s.epoch);
        emit("focus_wal_group_commit_flushes_total", s.group_commit_flushes);
        emit("focus_wal_group_commit_max_batch", s.group_commit_max_batch);
        emit("focus_wal_log_tail_bytes", s.tail_bytes);
        emit("focus_wal_log_device_pages", s.device_pages);
      });
}

void WalDiskManager::BindEventLog(obs::EventLog* log) {
  std::lock_guard<std::mutex> lock(mutex_);
  event_log_ = log;
  if (event_log_ != nullptr && replayed_ > 0) {
    // Recovery ran inside Open(), before any log could be attached:
    // report it retrospectively so the event stream still shows the
    // replay boundary ahead of post-recovery events.
    event_log_->Record(obs::CrawlEventType::kWalReplay, /*oid=*/-1,
                       /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                       /*value=*/static_cast<double>(recovered_commits_),
                       /*aux=*/static_cast<int64_t>(replayed_));
  }
}

}  // namespace focus::storage
