// Heap file: unordered record storage over slotted pages.
//
// Records are addressed by RID (page id + slot). Inserts append to the last
// page, allocating a new page when full; scans walk the page chain in
// allocation order, which makes a full-table scan sequential on disk — the
// access pattern the paper's bulk (sort-merge) plans rely on.
#ifndef FOCUS_STORAGE_HEAP_FILE_H_
#define FOCUS_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace focus::storage {

// Record id: packs (page_id, slot).
struct Rid {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(page_id) << 16) | slot;
  }
  static Rid Unpack(uint64_t packed) {
    Rid r;
    r.page_id = static_cast<PageId>(packed >> 16);
    r.slot = static_cast<uint16_t>(packed & 0xFFFF);
    return r;
  }
  bool operator==(const Rid& other) const = default;
};

class HeapFile {
 public:
  // Creates an empty heap file, allocating its first page.
  static Result<HeapFile> Create(BufferPool* pool);

  // Reattaches to an existing heap file from its persisted layout (first /
  // last page of the chain plus the live-record count). Used by crash
  // recovery: the page chain itself lives in the pages, but the chain head
  // and tail are in-memory state that must be restored from the catalog
  // metadata a WAL commit carried (see wal.h).
  static HeapFile Attach(BufferPool* pool, PageId first_page_id,
                         PageId last_page_id, uint64_t num_records);

  // Inserts a record; fails if the record cannot fit in a fresh page.
  Result<Rid> Insert(std::string_view record);

  // Reads the record at `rid` into `out`.
  Status Get(const Rid& rid, std::string* out) const;

  // Overwrites the record at `rid` in place. The new record must have
  // exactly the original length (all mutated focus rows are fixed-width).
  Status Update(const Rid& rid, std::string_view record);

  // Point twins of Iterator::Visit and RewriteInPlace: pin the page of
  // `rid` once and hand its live record to `fn` as a view into the frame,
  // valid only during the call. A slot past the directory or a tombstone
  // is NotFound, a slot outside the page IOError, and `fn` is not called.
  // RewriteAt's `fn(bytes, &rewrote)` may overwrite the bytes (their
  // length is fixed) and sets `rewrote` when it did, also when it then
  // fails; only then is the page marked dirty.
  Status ViewAt(const Rid& rid,
                const std::function<Status(std::string_view)>& fn) const;
  Status RewriteAt(const Rid& rid,
                   const std::function<Status(std::span<char>, bool*)>& fn);

  // Tombstones the record at `rid`. Space within the page is not compacted.
  Status Delete(const Rid& rid);

  // Visits every live record in scan order through one cursor, so each
  // page is pinned once. `fn(bytes, &rewrote)` may overwrite the record's
  // bytes in place (its length is fixed) and sets `rewrote` when it did,
  // also when it then fails; only pages with a rewritten record are
  // marked dirty. The first error stops the pass.
  Status RewriteInPlace(
      const std::function<Status(std::span<char>, bool*)>& fn);

  // Appends the ids of every page of the file to `out`, for
  // BufferPool::FreePages. A file reattached from a layout never learned
  // its chain and appends nothing.
  void AppendPages(std::vector<PageId>* out) const {
    out->insert(out->end(), pages_.begin(), pages_.end());
  }

  uint64_t num_records() const { return num_records_; }
  PageId first_page_id() const { return first_page_id_; }
  PageId last_page_id() const { return last_page_id_; }

  // Forward cursor over live records in page order. The slot directory
  // is checked before any record is touched: a slot count whose directory
  // overruns the page, or a live slot outside the space after the
  // directory, is an IOError naming the page and the slot.
  class Iterator {
   public:
    using RecordFn = std::function<Status(const Rid&, std::string_view)>;

    // Calls `fn` on up to `max_records` live records from the cursor
    // position, pinning each page once per call. The record view points
    // into the pinned frame and is valid only during the call. A non-OK
    // Status from `fn` stops the cursor and becomes status(). Returns the
    // number of records visited; fewer than `max_records` means end of
    // file or an error (check status()).
    size_t Visit(size_t max_records, const RecordFn& fn);

    // Copies the next live record out. Returns false at end-of-file or on
    // error (check status()).
    bool Next(Rid* rid, std::string* record);
    const Status& status() const { return status_; }

   private:
    friend class HeapFile;
    Iterator(const HeapFile* file, PageId page_id)
        : file_(file), page_id_(page_id) {}
    // The one slot-directory walk behind Visit, Next and RewriteInPlace:
    // `fn(rid, bytes, &dirty)` returns Status and sets `dirty` when it
    // rewrote `bytes`.
    template <typename Fn>
    size_t Walk(size_t max_records, Fn&& fn);
    const HeapFile* file_;
    PageId page_id_;
    uint16_t slot_ = 0;
    Status status_;
  };

  Iterator Scan() const { return Iterator(this, first_page_id_); }

 private:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_;
  PageId first_page_id_ = kInvalidPageId;
  PageId last_page_id_ = kInvalidPageId;
  uint64_t num_records_ = 0;
  // Chain pages in order, for files created in this session (empty after
  // Attach).
  std::vector<PageId> pages_;
};

}  // namespace focus::storage

#endif  // FOCUS_STORAGE_HEAP_FILE_H_
