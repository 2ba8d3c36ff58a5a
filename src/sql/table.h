// Table: a heap file of serialized tuples plus secondary B+-tree indexes.
//
// Index keys are packed into a single uint64 by concatenating per-column
// bit fields (most significant first), so composite keys like the paper's
// (pcid, tid) probe key order lexicographically. Key columns must be
// non-negative integers (ids, hashes) or strings (hashed; equality-only).
#ifndef FOCUS_SQL_TABLE_H_
#define FOCUS_SQL_TABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/record.h"
#include "sql/schema.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace focus::sql {

struct IndexSpec {
  std::string name;
  std::vector<int> key_cols;
  // Bits per key column; empty means defaults (int32: 32, int64/string: 64).
  // Total must be <= 64.
  std::vector<int> key_bits;
};

// Persisted storage position of one B+-tree index.
struct IndexLayout {
  storage::PageId root = storage::kInvalidPageId;
  int height = 1;
  uint64_t num_entries = 0;
};

// Everything a table needs — beyond its schema and index specs, which the
// owning application re-declares — to reattach to its pages after a crash.
// Serialized into WAL commit metadata by Catalog::SerializeLayouts.
struct TableLayout {
  storage::PageId heap_first = storage::kInvalidPageId;
  storage::PageId heap_last = storage::kInvalidPageId;
  uint64_t num_records = 0;
  std::vector<IndexLayout> indexes;
};

class Table {
 public:
  static Result<std::unique_ptr<Table>> Create(storage::BufferPool* pool,
                                               std::string name,
                                               Schema schema,
                                               std::vector<IndexSpec> indexes);

  // Reattaches to existing storage: same declaration as Create, plus the
  // persisted layout recovered from WAL metadata. `layout.indexes` must
  // match `indexes` in length.
  static Result<std::unique_ptr<Table>> Attach(storage::BufferPool* pool,
                                               std::string name,
                                               Schema schema,
                                               std::vector<IndexSpec> indexes,
                                               const TableLayout& layout);

  // Snapshot of the current storage position (for persistence).
  TableLayout Layout() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return heap_->num_records(); }
  int num_indexes() const { return static_cast<int>(indexes_.size()); }
  storage::BufferPool* buffer_pool() const { return pool_; }

  Result<storage::Rid> Insert(const Tuple& tuple);
  Status Update(const storage::Rid& rid, const Tuple& tuple);
  Status Delete(const storage::Rid& rid);
  Status Get(const storage::Rid& rid, Tuple* out) const;

  // Drops every row (and index entry). The old heap and index pages go back
  // to the pool's free-page list first, so the rebuilt table reuses them and
  // repeated clears (the distiller's "delete from HUBS") do not grow the
  // file. A table reattached from a layout does not know its pages; its
  // first Clear abandons them.
  Status Clear();

  // Returns every page of the table to the pool's free-page list. The table
  // must not be used afterwards (Catalog::DropTable).
  void ReleaseStorage();

  // Rewrites rows in place in one scan-order pass, each heap page pinned
  // once: `fn` gets a view of each row in its frame and may Set its
  // fixed-width columns that no index keys (others: InvalidArgument). A
  // row whose bytes do not change is not written back, so a pass that
  // changes nothing dirties no page.
  Status UpdateInPlace(const std::function<Status(MutableRecordView*)>& fn);

  // Point twins of UpdateInPlace and Iterator::Visit: the row at `rid` is
  // viewed in its pinned frame, with no tuple decode and no copy. The
  // same Set rules apply, and an unchanged row dirties no page. A
  // tombstoned or out-of-range rid is NotFound and `fn` is not called.
  Status UpdateInPlaceAt(const storage::Rid& rid,
                         const std::function<Status(MutableRecordView*)>& fn);
  Status VisitAt(const storage::Rid& rid,
                 const std::function<Status(const RecordView&)>& fn) const;

  // Equality lookup on index `index_idx`; appends matching RIDs to `out`.
  Status IndexLookup(int index_idx, const std::vector<Value>& key,
                     std::vector<storage::Rid>* out) const;

  // Index id by name, or -1.
  int IndexId(std::string_view index_name) const;

  // Packs `key` values per the index spec.
  Result<uint64_t> PackKey(int index_idx, const std::vector<Value>& key) const;

  // Forward scan over rows, a heap page at a time.
  class Iterator {
   public:
    using RowFn =
        std::function<Status(const storage::Rid&, const RecordView&)>;

    // Calls `fn` on up to `max_rows` rows, each validated and viewed in
    // place in its pinned page (HeapFile::Iterator::Visit). Returns the
    // number of rows visited; fewer than `max_rows` means end of table or
    // an error (check status()).
    size_t Visit(size_t max_rows, const RowFn& fn);

    // Decodes the next row into `tuple`. Returns false at end of table or
    // on error (check status()).
    bool Next(storage::Rid* rid, Tuple* tuple);
    const Status& status() const { return it_.status(); }

   private:
    friend class Table;
    Iterator(const Table* table, storage::HeapFile::Iterator it)
        : it_(std::move(it)), view_(&table->schema_) {}
    storage::HeapFile::Iterator it_;
    RecordView view_;
  };

  Iterator Scan() const { return Iterator(this, heap_->Scan()); }

 private:
  struct Index {
    IndexSpec spec;
    storage::BPlusTree tree;
  };

  Table(storage::BufferPool* pool, std::string name, Schema schema)
      : pool_(pool), name_(std::move(name)), schema_(std::move(schema)) {}

  Result<uint64_t> PackKeyFromTuple(const Index& index,
                                    const Tuple& tuple) const;
  // A view whose Set refuses this table's index-key columns.
  MutableRecordView KeyFrozenView() const;

  storage::BufferPool* pool_;
  std::string name_;
  Schema schema_;
  std::optional<storage::HeapFile> heap_;
  std::vector<Index> indexes_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_TABLE_H_
