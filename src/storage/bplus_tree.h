// B+-tree index over (uint64 key, uint64 value) entries.
//
// This is the probe structure behind the paper's BLOB / STAT index lookups
// and the HUBS/AUTH score lookups of the naive distiller. Duplicate keys are
// supported by ordering entries on the composite (key, value); separators in
// internal nodes are composite too, so routing and range scans are exact.
//
// Deletion removes entries without rebalancing (nodes may become underfull).
// That is sufficient for this workload — tables are bulk-built and mutated
// in place — and keeps invariants simple; the ordering invariant is
// validated in tests via CheckInvariants().
#ifndef FOCUS_STORAGE_BPLUS_TREE_H_
#define FOCUS_STORAGE_BPLUS_TREE_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace focus::storage {

class BPlusTree {
 public:
  // Creates an empty tree whose nodes are allocated from `pool`.
  static Result<BPlusTree> Create(BufferPool* pool);

  // Reattaches to an existing tree from its persisted layout (root page,
  // height, entry count). Node pages are self-describing; only this
  // in-memory header state needs the catalog metadata (see wal.h).
  static BPlusTree Attach(BufferPool* pool, PageId root, int height,
                          uint64_t num_entries);

  // Inserts (key, value). Duplicate (key, value) pairs are allowed and
  // stored multiple times.
  Status Insert(uint64_t key, uint64_t value);

  // Removes one occurrence of (key, value). NotFound if absent.
  Status Remove(uint64_t key, uint64_t value);

  // Appends every value stored under `key` to `out`.
  Status GetAll(uint64_t key, std::vector<uint64_t>* out) const;

  // Forward iterator over entries with composite >= (key, value), in
  // (key, value) order across the leaf chain. The tree must not be mutated
  // while an iterator is live.
  class Iterator {
   public:
    // Produces the next entry; false at end or on error (check status()).
    bool Next(uint64_t* key, uint64_t* value);
    const Status& status() const { return status_; }

   private:
    friend class BPlusTree;
    Iterator(const BPlusTree* tree, PageId leaf, uint16_t index)
        : tree_(tree), leaf_(leaf), index_(index) {}
    const BPlusTree* tree_;
    PageId leaf_;
    uint16_t index_;
    Status status_;
  };

  // Iterator positioned at the first entry >= (key, 0).
  Result<Iterator> Seek(uint64_t key) const { return SeekPair(key, 0); }
  // Iterator positioned at the first entry >= (key, value).
  Result<Iterator> SeekPair(uint64_t key, uint64_t value) const;
  // Iterator over the whole tree.
  Result<Iterator> Begin() const { return SeekPair(0, 0); }

  uint64_t num_entries() const { return num_entries_; }
  int height() const { return height_; }
  PageId root_page_id() const { return root_; }

  // Appends the ids of every node page to `out`, for
  // BufferPool::FreePages. A reattached tree never learned its nodes and
  // appends nothing.
  void AppendPages(std::vector<PageId>* out) const {
    out->insert(out->end(), pages_.begin(), pages_.end());
  }

  // Verifies ordering and structural invariants; used by tests.
  Status CheckInvariants() const;

 private:
  explicit BPlusTree(BufferPool* pool) : pool_(pool) {}

  // Records a node allocated by a split, unless the page set is unknown.
  void NotePage(PageId id) {
    if (!pages_.empty()) pages_.push_back(id);
  }

  struct Descent {
    PageId page_id;
    // Index of the child pointer taken within the internal node.
    uint16_t child_index;
  };

  // Walks from the root to the leaf that should contain (key, value),
  // recording internal nodes on `path` (may be null).
  Result<PageId> FindLeaf(uint64_t key, uint64_t value,
                          std::vector<Descent>* path) const;

  Status SplitLeaf(PageId leaf_id, std::vector<Descent>* path);
  Status InsertIntoParent(std::vector<Descent>* path, uint64_t sep_key,
                          uint64_t sep_value, PageId right_child);

  Status CheckNode(PageId page_id, int depth, uint64_t lo_key, uint64_t lo_val,
                   bool has_lo, uint64_t hi_key, uint64_t hi_val, bool has_hi,
                   int* leaf_depth) const;

  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  int height_ = 1;
  // Node pages, for trees created in this session (empty after Attach).
  std::vector<PageId> pages_;
};

}  // namespace focus::storage

#endif  // FOCUS_STORAGE_BPLUS_TREE_H_
