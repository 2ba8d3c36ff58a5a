#include "storage/heap_file.h"

#include <cstdint>
#include <cstring>

#include "util/string_util.h"

namespace focus::storage {

// Slotted page layout:
//   [0]  uint32 next_page_id
//   [4]  uint16 slot_count
//   [6]  uint16 free_end   (records occupy [free_end, kPageSize))
//   [8]  slot directory: per slot {uint16 offset, uint16 length}
// Tombstoned slots have offset == kTombstone.
namespace {
constexpr uint32_t kOffNext = 0;
constexpr uint32_t kOffSlotCount = 4;
constexpr uint32_t kOffFreeEnd = 6;
constexpr uint32_t kSlotDirStart = 8;
constexpr uint16_t kTombstone = 0xFFFF;

uint32_t SlotEntryOffset(uint16_t slot) { return kSlotDirStart + 4u * slot; }

void InitPage(Page* page) {
  page->Zero();
  page->Write<uint32_t>(kOffNext, kInvalidPageId);
  page->Write<uint16_t>(kOffSlotCount, 0);
  page->Write<uint16_t>(kOffFreeEnd, static_cast<uint16_t>(kPageSize));
}

// Every read of the slot directory goes through these two checks, so a
// corrupt page is an IOError and never a read or write outside the frame.
Status CheckedSlotCount(const Page& page, PageId id, uint16_t* count) {
  uint16_t n = page.Read<uint16_t>(kOffSlotCount);
  if (SlotEntryOffset(n) > kPageSize) {
    return Status::IOError(StrCat("heap page ", id, ": slot directory of ", n,
                                  " slots overruns the page"));
  }
  *count = n;
  return Status::OK();
}

// Locates slot `slot` (< `slot_count`). A tombstone sets `*live` false; a
// live record must lie after the slot directory and inside the page, else
// this returns false (SlotOutsidePage builds the error).
bool LocateSlot(Page* page, uint16_t slot_count, uint16_t slot, bool* live,
                std::span<char>* record) {
  uint16_t offset = page->Read<uint16_t>(SlotEntryOffset(slot));
  *live = offset != kTombstone;
  if (!*live) return true;
  uint16_t length = page->Read<uint16_t>(SlotEntryOffset(slot) + 2);
  if (offset < SlotEntryOffset(slot_count) ||
      uint32_t{offset} + length > kPageSize) {
    return false;
  }
  *record = std::span<char>(page->data + offset, length);
  return true;
}

Status SlotOutsidePage(const Page& page, PageId id, uint16_t slot) {
  return Status::IOError(StrCat(
      "heap page ", id, " slot ", slot, ": record of ",
      page.Read<uint16_t>(SlotEntryOffset(slot) + 2), " bytes at offset ",
      page.Read<uint16_t>(SlotEntryOffset(slot)), " lies outside the page"));
}

// Sets `record` to the bytes of live record `rid` on its pinned `page`:
// NotFound for a slot past the directory or a tombstone, IOError for a
// directory or slot that lies outside the page.
Status LiveRecord(Page* page, const Rid& rid, std::span<char>* record) {
  uint16_t slot_count = 0;
  FOCUS_RETURN_IF_ERROR(CheckedSlotCount(*page, rid.page_id, &slot_count));
  if (rid.slot >= slot_count) {
    return Status::NotFound(StrCat("slot ", rid.slot, " out of range"));
  }
  bool live = false;
  if (!LocateSlot(page, slot_count, rid.slot, &live, record)) {
    return SlotOutsidePage(*page, rid.page_id, rid.slot);
  }
  if (!live) return Status::NotFound(StrCat("slot ", rid.slot, " deleted"));
  return Status::OK();
}

uint32_t FreeSpace(const Page& page) {
  uint16_t slot_count = page.Read<uint16_t>(kOffSlotCount);
  uint16_t free_end = page.Read<uint16_t>(kOffFreeEnd);
  uint32_t dir_end = kSlotDirStart + 4u * slot_count;
  return free_end > dir_end ? free_end - dir_end : 0;
}
}  // namespace

Result<HeapFile> HeapFile::Create(BufferPool* pool) {
  HeapFile file(pool);
  PageId id;
  FOCUS_ASSIGN_OR_RETURN(Page * page, pool->NewPage(&id));
  InitPage(page);
  pool->UnpinPage(id, /*dirty=*/true);
  file.first_page_id_ = id;
  file.last_page_id_ = id;
  file.pages_.push_back(id);
  return file;
}

HeapFile HeapFile::Attach(BufferPool* pool, PageId first_page_id,
                          PageId last_page_id, uint64_t num_records) {
  HeapFile file(pool);
  file.first_page_id_ = first_page_id;
  file.last_page_id_ = last_page_id;
  file.num_records_ = num_records;
  return file;
}

Result<Rid> HeapFile::Insert(std::string_view record) {
  if (record.size() + 4 > kPageSize - kSlotDirStart) {
    return Status::InvalidArgument(
        StrCat("record of ", record.size(), " bytes exceeds page capacity"));
  }
  PageGuard guard(pool_, last_page_id_);
  if (!guard.ok()) return guard.status();
  Page* page = guard.page();
  uint16_t slot_count = 0;
  FOCUS_RETURN_IF_ERROR(CheckedSlotCount(*page, last_page_id_, &slot_count));
  if (page->Read<uint16_t>(kOffFreeEnd) > kPageSize) {
    return Status::IOError(
        StrCat("heap page ", last_page_id_, ": free space end past the page"));
  }
  if (FreeSpace(*page) < record.size() + 4) {
    // Chain a fresh page.
    PageId new_id;
    FOCUS_ASSIGN_OR_RETURN(Page * new_page, pool_->NewPage(&new_id));
    InitPage(new_page);
    page->Write<uint32_t>(kOffNext, new_id);
    guard.MarkDirty();
    guard.Release();
    pool_->UnpinPage(new_id, /*dirty=*/true);
    last_page_id_ = new_id;
    if (!pages_.empty()) pages_.push_back(new_id);
    return Insert(record);
  }
  uint16_t free_end = page->Read<uint16_t>(kOffFreeEnd);
  uint16_t offset = static_cast<uint16_t>(free_end - record.size());
  std::memcpy(page->data + offset, record.data(), record.size());
  page->Write<uint16_t>(SlotEntryOffset(slot_count), offset);
  page->Write<uint16_t>(SlotEntryOffset(slot_count) + 2,
                        static_cast<uint16_t>(record.size()));
  page->Write<uint16_t>(kOffSlotCount, static_cast<uint16_t>(slot_count + 1));
  page->Write<uint16_t>(kOffFreeEnd, offset);
  guard.MarkDirty();
  ++num_records_;
  return Rid{last_page_id_, slot_count};
}

Status HeapFile::Get(const Rid& rid, std::string* out) const {
  return ViewAt(rid, [out](std::string_view record) {
    out->assign(record);
    return Status::OK();
  });
}

Status HeapFile::Update(const Rid& rid, std::string_view record) {
  return RewriteAt(rid, [record](std::span<char> old, bool* rewrote) {
    if (record.size() != old.size()) {
      return Status::InvalidArgument(
          StrCat("in-place update size mismatch: ", record.size(), " vs ",
                 old.size()));
    }
    std::memcpy(old.data(), record.data(), record.size());
    *rewrote = true;
    return Status::OK();
  });
}

Status HeapFile::ViewAt(
    const Rid& rid, const std::function<Status(std::string_view)>& fn) const {
  PageGuard guard(pool_, rid.page_id);
  if (!guard.ok()) return guard.status();
  std::span<char> record;
  FOCUS_RETURN_IF_ERROR(LiveRecord(guard.page(), rid, &record));
  return fn(std::string_view(record.data(), record.size()));
}

Status HeapFile::RewriteAt(
    const Rid& rid, const std::function<Status(std::span<char>, bool*)>& fn) {
  PageGuard guard(pool_, rid.page_id);
  if (!guard.ok()) return guard.status();
  std::span<char> record;
  FOCUS_RETURN_IF_ERROR(LiveRecord(guard.page(), rid, &record));
  bool rewrote = false;
  Status status = fn(record, &rewrote);
  if (rewrote) guard.MarkDirty();
  return status;
}

Status HeapFile::Delete(const Rid& rid) {
  PageGuard guard(pool_, rid.page_id);
  if (!guard.ok()) return guard.status();
  Page* page = guard.page();
  std::span<char> old;
  FOCUS_RETURN_IF_ERROR(LiveRecord(page, rid, &old));
  page->Write<uint16_t>(SlotEntryOffset(rid.slot), kTombstone);
  guard.MarkDirty();
  --num_records_;
  return Status::OK();
}

template <typename Fn>
size_t HeapFile::Iterator::Walk(size_t max_records, Fn&& fn) {
  size_t visited = 0;
  while (status_.ok() && visited < max_records &&
         page_id_ != kInvalidPageId) {
    PageGuard guard(file_->pool_, page_id_);
    if (!guard.ok()) {
      status_ = guard.status();
      break;
    }
    Page* page = guard.page();
    uint16_t slot_count = 0;
    status_ = CheckedSlotCount(*page, page_id_, &slot_count);
    bool dirty = false;
    while (status_.ok() && visited < max_records && slot_ < slot_count) {
      uint16_t slot = slot_++;
      bool live = false;
      std::span<char> record;
      if (!LocateSlot(page, slot_count, slot, &live, &record)) {
        status_ = SlotOutsidePage(*page, page_id_, slot);
        break;
      }
      if (!live) continue;
      Status s = fn(Rid{page_id_, slot}, record, &dirty);
      if (!s.ok()) {
        status_ = std::move(s);
        break;
      }
      ++visited;
    }
    if (dirty) guard.MarkDirty();
    if (status_.ok() && slot_ == slot_count) {
      page_id_ = page->Read<uint32_t>(kOffNext);
      slot_ = 0;
      // Chained heap pages are allocated roughly in order: stream a window
      // ahead so a full scan pays one seek per batch, not one per page.
      file_->pool_->MaybePrefetchChain(page_id_);
    }
  }
  return visited;
}

size_t HeapFile::Iterator::Visit(size_t max_records, const RecordFn& fn) {
  return Walk(max_records,
              [&fn](const Rid& rid, std::span<char> bytes, bool*) {
                return fn(rid, std::string_view(bytes.data(), bytes.size()));
              });
}

bool HeapFile::Iterator::Next(Rid* rid, std::string* record) {
  return Walk(1, [&](const Rid& at, std::span<char> bytes, bool*) {
           *rid = at;
           record->assign(bytes.data(), bytes.size());
           return Status::OK();
         }) == 1;
}

Status HeapFile::RewriteInPlace(
    const std::function<Status(std::span<char>, bool*)>& fn) {
  Iterator it = Scan();
  it.Walk(SIZE_MAX, [&fn](const Rid&, std::span<char> bytes, bool* dirty) {
    return fn(bytes, dirty);
  });
  return it.status();
}

}  // namespace focus::storage
