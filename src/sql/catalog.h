// Catalog: owns all tables of one database instance.
//
// Table metadata (heap chain heads, index roots) lives in memory; for
// crash recovery the catalog serializes each table's TableLayout into an
// opaque blob that WAL commits carry (wal.h). On reopen the application
// re-declares its schemas and calls AttachTable with the recovered layout.
#ifndef FOCUS_SQL_CATALOG_H_
#define FOCUS_SQL_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sql/table.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace focus::sql {

class Catalog {
 public:
  // `pool` must outlive the catalog.
  explicit Catalog(storage::BufferPool* pool) : pool_(pool) {}

  Result<Table*> CreateTable(std::string name, Schema schema,
                             std::vector<IndexSpec> indexes = {});

  // Reattaches a table to existing pages from a recovered layout.
  Result<Table*> AttachTable(std::string name, Schema schema,
                             std::vector<IndexSpec> indexes,
                             const TableLayout& layout);

  // Serializes every table's layout (sorted by name, so the blob — and
  // anything layered on it, like WAL commit bytes — is deterministic).
  std::string SerializeLayouts() const;

  // Parses a SerializeLayouts blob back into name -> layout.
  static Result<std::map<std::string, TableLayout>> ParseLayouts(
      std::string_view blob);

  // Returns the table or nullptr.
  Table* GetTable(std::string_view name) const;

  // Removes the table and returns its pages to the pool's free-page list
  // (Table::ReleaseStorage), so tables created later reuse them.
  Status DropTable(std::string_view name);

  storage::BufferPool* buffer_pool() const { return pool_; }

  std::vector<std::string> TableNames() const;

 private:
  storage::BufferPool* pool_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_CATALOG_H_
