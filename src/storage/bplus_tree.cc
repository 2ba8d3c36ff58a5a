#include "storage/bplus_tree.h"

#include <cstring>

#include "util/string_util.h"

namespace focus::storage {

// Node layout.
//   common:   [0] uint8 is_leaf, [2] uint16 count
//   leaf:     [4] uint32 next_leaf; entries at 8: {u64 key, u64 val} x count
//   internal: [4] uint32 child0;    entries at 8: {u64 key, u64 val,
//                                                  u32 child} x count
// Internal separators are composite (key, val); subtree child[i] holds
// composites in [sep_i, sep_{i+1}), with sep_0 = -inf.
namespace {
constexpr uint32_t kOffIsLeaf = 0;
constexpr uint32_t kOffCount = 2;
constexpr uint32_t kOffNextOrChild0 = 4;
constexpr uint32_t kEntriesStart = 8;
constexpr uint32_t kLeafStride = 16;
constexpr uint32_t kInternalStride = 20;
constexpr uint16_t kLeafCapacity = (kPageSize - kEntriesStart) / kLeafStride;
constexpr uint16_t kInternalCapacity =
    (kPageSize - kEntriesStart) / kInternalStride;

struct Entry {
  uint64_t key;
  uint64_t val;
};

inline bool LessEq(const Entry& a, uint64_t k, uint64_t v) {
  return a.key < k || (a.key == k && a.val <= v);
}
inline bool Less(const Entry& a, uint64_t k, uint64_t v) {
  return a.key < k || (a.key == k && a.val < v);
}

inline bool IsLeaf(const Page& p) { return p.Read<uint8_t>(kOffIsLeaf) != 0; }
inline uint16_t Count(const Page& p) { return p.Read<uint16_t>(kOffCount); }
inline void SetCount(Page* p, uint16_t c) { p->Write<uint16_t>(kOffCount, c); }

inline Entry LeafEntry(const Page& p, uint16_t i) {
  Entry e;
  e.key = p.Read<uint64_t>(kEntriesStart + kLeafStride * i);
  e.val = p.Read<uint64_t>(kEntriesStart + kLeafStride * i + 8);
  return e;
}
inline void SetLeafEntry(Page* p, uint16_t i, const Entry& e) {
  p->Write<uint64_t>(kEntriesStart + kLeafStride * i, e.key);
  p->Write<uint64_t>(kEntriesStart + kLeafStride * i + 8, e.val);
}

inline Entry InternalSep(const Page& p, uint16_t i) {
  Entry e;
  e.key = p.Read<uint64_t>(kEntriesStart + kInternalStride * i);
  e.val = p.Read<uint64_t>(kEntriesStart + kInternalStride * i + 8);
  return e;
}
inline PageId InternalChild(const Page& p, uint16_t i) {
  // child index i in [0, count]; child 0 lives in the header slot.
  if (i == 0) return p.Read<uint32_t>(kOffNextOrChild0);
  return p.Read<uint32_t>(kEntriesStart + kInternalStride * (i - 1) + 16);
}
inline void SetInternalEntry(Page* p, uint16_t i, const Entry& sep,
                             PageId child) {
  p->Write<uint64_t>(kEntriesStart + kInternalStride * i, sep.key);
  p->Write<uint64_t>(kEntriesStart + kInternalStride * i + 8, sep.val);
  p->Write<uint32_t>(kEntriesStart + kInternalStride * i + 16, child);
}

void InitLeaf(Page* p) {
  p->Zero();
  p->Write<uint8_t>(kOffIsLeaf, 1);
  p->Write<uint16_t>(kOffCount, 0);
  p->Write<uint32_t>(kOffNextOrChild0, kInvalidPageId);
}

void InitInternal(Page* p, PageId child0) {
  p->Zero();
  p->Write<uint8_t>(kOffIsLeaf, 0);
  p->Write<uint16_t>(kOffCount, 0);
  p->Write<uint32_t>(kOffNextOrChild0, child0);
}

// Number of separators <= (key, val): the child index to descend into.
uint16_t RouteChild(const Page& p, uint64_t key, uint64_t val) {
  uint16_t lo = 0, hi = Count(p);
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (LessEq(InternalSep(p, mid), key, val)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// First leaf position with entry >= (key, val).
uint16_t LeafLowerBound(const Page& p, uint64_t key, uint64_t val) {
  uint16_t lo = 0, hi = Count(p);
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (Less(LeafEntry(p, mid), key, val)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
}  // namespace

Result<BPlusTree> BPlusTree::Create(BufferPool* pool) {
  BPlusTree tree(pool);
  PageId id;
  FOCUS_ASSIGN_OR_RETURN(Page * page, pool->NewPage(&id));
  InitLeaf(page);
  pool->UnpinPage(id, /*dirty=*/true);
  tree.root_ = id;
  tree.pages_.push_back(id);
  return tree;
}

BPlusTree BPlusTree::Attach(BufferPool* pool, PageId root, int height,
                            uint64_t num_entries) {
  BPlusTree tree(pool);
  tree.root_ = root;
  tree.height_ = height;
  tree.num_entries_ = num_entries;
  return tree;
}

Result<PageId> BPlusTree::FindLeaf(uint64_t key, uint64_t value,
                                   std::vector<Descent>* path) const {
  PageId current = root_;
  for (;;) {
    PageGuard guard(pool_, current);
    if (!guard.ok()) return guard.status();
    const Page& page = *guard.page();
    if (IsLeaf(page)) return current;
    uint16_t child_index = RouteChild(page, key, value);
    if (path != nullptr) path->push_back({current, child_index});
    current = InternalChild(page, child_index);
  }
}

Status BPlusTree::Insert(uint64_t key, uint64_t value) {
  std::vector<Descent> path;
  FOCUS_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key, value, &path));
  {
    PageGuard guard(pool_, leaf_id);
    if (!guard.ok()) return guard.status();
    Page* page = guard.page();
    uint16_t count = Count(*page);
    if (count < kLeafCapacity) {
      uint16_t pos = LeafLowerBound(*page, key, value);
      std::memmove(page->data + kEntriesStart + kLeafStride * (pos + 1),
                   page->data + kEntriesStart + kLeafStride * pos,
                   kLeafStride * (count - pos));
      SetLeafEntry(page, pos, {key, value});
      SetCount(page, count + 1);
      guard.MarkDirty();
      ++num_entries_;
      return Status::OK();
    }
  }
  // Leaf is full: split, then insert into whichever half owns the key.
  FOCUS_RETURN_IF_ERROR(SplitLeaf(leaf_id, &path));
  return Insert(key, value);
}

Status BPlusTree::SplitLeaf(PageId leaf_id, std::vector<Descent>* path) {
  PageId right_id;
  FOCUS_ASSIGN_OR_RETURN(Page * right, pool_->NewPage(&right_id));
  InitLeaf(right);
  NotePage(right_id);

  PageGuard left_guard(pool_, leaf_id);
  if (!left_guard.ok()) {
    pool_->UnpinPage(right_id, true);
    return left_guard.status();
  }
  Page* left = left_guard.page();
  uint16_t count = Count(*left);
  uint16_t mid = count / 2;
  uint16_t moved = count - mid;
  std::memcpy(right->data + kEntriesStart,
              left->data + kEntriesStart + kLeafStride * mid,
              kLeafStride * moved);
  SetCount(right, moved);
  // Chain: right inherits left's successor.
  right->Write<uint32_t>(kOffNextOrChild0,
                         left->Read<uint32_t>(kOffNextOrChild0));
  left->Write<uint32_t>(kOffNextOrChild0, right_id);
  SetCount(left, mid);
  Entry sep = LeafEntry(*right, 0);
  left_guard.MarkDirty();
  left_guard.Release();
  pool_->UnpinPage(right_id, /*dirty=*/true);
  return InsertIntoParent(path, sep.key, sep.val, right_id);
}

Status BPlusTree::InsertIntoParent(std::vector<Descent>* path,
                                   uint64_t sep_key, uint64_t sep_value,
                                   PageId right_child) {
  if (path->empty()) {
    // The split node was the root: grow the tree by one level.
    PageId old_root = root_;
    PageId new_root_id;
    FOCUS_ASSIGN_OR_RETURN(Page * new_root, pool_->NewPage(&new_root_id));
    NotePage(new_root_id);
    InitInternal(new_root, old_root);
    SetInternalEntry(new_root, 0, {sep_key, sep_value}, right_child);
    SetCount(new_root, 1);
    pool_->UnpinPage(new_root_id, /*dirty=*/true);
    root_ = new_root_id;
    ++height_;
    return Status::OK();
  }

  Descent descent = path->back();
  path->pop_back();
  PageGuard guard(pool_, descent.page_id);
  if (!guard.ok()) return guard.status();
  Page* node = guard.page();
  uint16_t count = Count(*node);
  if (count < kInternalCapacity) {
    uint16_t pos = descent.child_index;  // separator goes after that child
    std::memmove(node->data + kEntriesStart + kInternalStride * (pos + 1),
                 node->data + kEntriesStart + kInternalStride * pos,
                 kInternalStride * (count - pos));
    SetInternalEntry(node, pos, {sep_key, sep_value}, right_child);
    SetCount(node, count + 1);
    guard.MarkDirty();
    return Status::OK();
  }

  // Split the internal node. The middle separator moves up.
  PageId right_id;
  FOCUS_ASSIGN_OR_RETURN(Page * right, pool_->NewPage(&right_id));
  NotePage(right_id);
  uint16_t mid = count / 2;
  Entry promoted = InternalSep(*node, mid);
  PageId right_child0 = InternalChild(*node, mid + 1);
  InitInternal(right, right_child0);
  uint16_t moved = count - mid - 1;
  std::memcpy(right->data + kEntriesStart,
              node->data + kEntriesStart + kInternalStride * (mid + 1),
              kInternalStride * moved);
  SetCount(right, moved);
  SetCount(node, mid);
  guard.MarkDirty();

  // Insert the pending (separator, right_child) into the correct half.
  Page* target;
  PageGuard* target_guard_ptr = nullptr;
  uint16_t target_count;
  bool goes_right = LessEq(promoted, sep_key, sep_value);
  if (goes_right) {
    target = right;
    target_count = Count(*right);
  } else {
    target = node;
    target_guard_ptr = &guard;
    target_count = Count(*node);
  }
  // Position: number of separators in the target <= pending separator.
  uint16_t pos = 0;
  while (pos < target_count &&
         LessEq(InternalSep(*target, pos), sep_key, sep_value)) {
    ++pos;
  }
  std::memmove(target->data + kEntriesStart + kInternalStride * (pos + 1),
               target->data + kEntriesStart + kInternalStride * pos,
               kInternalStride * (target_count - pos));
  SetInternalEntry(target, pos, {sep_key, sep_value}, right_child);
  SetCount(target, target_count + 1);
  if (target_guard_ptr != nullptr) target_guard_ptr->MarkDirty();

  guard.Release();
  pool_->UnpinPage(right_id, /*dirty=*/true);
  return InsertIntoParent(path, promoted.key, promoted.val, right_id);
}

Status BPlusTree::Remove(uint64_t key, uint64_t value) {
  FOCUS_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key, value, nullptr));
  PageGuard guard(pool_, leaf_id);
  if (!guard.ok()) return guard.status();
  Page* page = guard.page();
  uint16_t count = Count(*page);
  uint16_t pos = LeafLowerBound(*page, key, value);
  if (pos >= count) {
    return Status::NotFound(StrCat("key ", key, " value ", value));
  }
  Entry e = LeafEntry(*page, pos);
  if (e.key != key || e.val != value) {
    return Status::NotFound(StrCat("key ", key, " value ", value));
  }
  std::memmove(page->data + kEntriesStart + kLeafStride * pos,
               page->data + kEntriesStart + kLeafStride * (pos + 1),
               kLeafStride * (count - pos - 1));
  SetCount(page, count - 1);
  guard.MarkDirty();
  --num_entries_;
  return Status::OK();
}

Status BPlusTree::GetAll(uint64_t key, std::vector<uint64_t>* out) const {
  FOCUS_ASSIGN_OR_RETURN(Iterator it, Seek(key));
  uint64_t k, v;
  while (it.Next(&k, &v)) {
    if (k != key) break;
    out->push_back(v);
  }
  return it.status();
}

Result<BPlusTree::Iterator> BPlusTree::SeekPair(uint64_t key,
                                                uint64_t value) const {
  FOCUS_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key, value, nullptr));
  PageGuard guard(pool_, leaf_id);
  if (!guard.ok()) return guard.status();
  uint16_t pos = LeafLowerBound(*guard.page(), key, value);
  return Iterator(this, leaf_id, pos);
}

bool BPlusTree::Iterator::Next(uint64_t* key, uint64_t* value) {
  while (leaf_ != kInvalidPageId) {
    PageGuard guard(tree_->pool_, leaf_);
    if (!guard.ok()) {
      status_ = guard.status();
      return false;
    }
    const Page& page = *guard.page();
    if (index_ < Count(page)) {
      Entry e = LeafEntry(page, index_);
      *key = e.key;
      *value = e.val;
      ++index_;
      return true;
    }
    leaf_ = page.Read<uint32_t>(kOffNextOrChild0);
    index_ = 0;
    // Leaves split off each other in rough key order, so the sibling chain
    // is near-sequential on disk: stream a window ahead for range scans.
    tree_->pool_->MaybePrefetchChain(leaf_);
  }
  return false;
}

Status BPlusTree::CheckNode(PageId page_id, int depth, uint64_t lo_key,
                            uint64_t lo_val, bool has_lo, uint64_t hi_key,
                            uint64_t hi_val, bool has_hi,
                            int* leaf_depth) const {
  PageGuard guard(pool_, page_id);
  if (!guard.ok()) return guard.status();
  const Page& page = *guard.page();
  uint16_t count = Count(page);
  if (IsLeaf(page)) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal(StrCat("leaf depth mismatch at page ", page_id));
    }
    for (uint16_t i = 0; i < count; ++i) {
      Entry e = LeafEntry(page, i);
      if (i > 0) {
        Entry prev = LeafEntry(page, i - 1);
        if (!LessEq(prev, e.key, e.val)) {
          return Status::Internal(StrCat("unsorted leaf ", page_id));
        }
      }
      if (has_lo && Less(e, lo_key, lo_val)) {
        return Status::Internal(StrCat("leaf entry below bound in ", page_id));
      }
      if (has_hi && !Less(e, hi_key, hi_val)) {
        return Status::Internal(StrCat("leaf entry above bound in ", page_id));
      }
    }
    return Status::OK();
  }
  for (uint16_t i = 0; i + 1 < count; ++i) {
    Entry a = InternalSep(page, i);
    Entry b = InternalSep(page, i + 1);
    if (!Less(a, b.key, b.val)) {
      return Status::Internal(StrCat("unsorted separators in ", page_id));
    }
  }
  for (uint16_t i = 0; i <= count; ++i) {
    bool child_has_lo = has_lo || i > 0;
    Entry lo = i > 0 ? InternalSep(page, i - 1) : Entry{lo_key, lo_val};
    bool child_has_hi = has_hi || i < count;
    Entry hi = i < count ? InternalSep(page, i) : Entry{hi_key, hi_val};
    FOCUS_RETURN_IF_ERROR(CheckNode(InternalChild(page, i), depth + 1, lo.key,
                                    lo.val, child_has_lo, hi.key, hi.val,
                                    child_has_hi, leaf_depth));
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  int leaf_depth = -1;
  return CheckNode(root_, 0, 0, 0, false, 0, 0, false, &leaf_depth);
}

}  // namespace focus::storage
