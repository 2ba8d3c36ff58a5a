// The stored row format and its one reader.
//
// A record is its columns in schema order, with no header and no null
// bitmap (NULLs are never stored): int32 as 4 bytes, int64 and double as
// 8 bytes, string as a u16 length prefix and its bytes, all in host byte
// order. AppendColumn is the one encoder and RecordView the one decoder.
// The view validates a record once (every value inside the record, no
// bytes after the last column) and then reads typed columns at their
// offsets without copying, so a scan decodes in place from a pinned heap
// page.
#ifndef FOCUS_SQL_RECORD_H_
#define FOCUS_SQL_RECORD_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sql/schema.h"
#include "sql/value.h"
#include "util/logging.h"
#include "util/status.h"

namespace focus::sql {

// Appends the encoding of non-NULL `v` to `out`.
void AppendColumn(const Value& v, std::string* out);

class RecordView {
 public:
  // `schema` must outlive the view.
  explicit RecordView(const Schema* schema);

  // Points the view at `record` and locates its columns. A value or string
  // prefix that runs past the end is OutOfRange; bytes after the last
  // column are InvalidArgument. After an error the view must not be read.
  Status Reset(std::string_view record);

  int32_t GetInt32(int col) const { return Load<int32_t>(col, TypeId::kInt32); }
  int64_t GetInt64(int col) const { return Load<int64_t>(col, TypeId::kInt64); }
  double GetDouble(int col) const { return Load<double>(col, TypeId::kDouble); }
  std::string_view GetString(int col) const {
    uint16_t len = Load<uint16_t>(col, TypeId::kString);
    return std::string_view(data_ + offsets_[col] + 2, len);
  }

  // Copying reads for the scalar engine.
  Value Get(int col) const;
  Tuple ToTuple() const;

 protected:
  template <typename T>
  T Load(int col, TypeId type) const {
    FOCUS_DCHECK(schema_->column(col).type == type);
    (void)type;
    T v;
    std::memcpy(&v, data_ + offsets_[col], sizeof(T));
    return v;
  }

  const Schema* schema_;
  const char* data_ = nullptr;
  // Per column: its encoded width, 0 for a string.
  std::vector<uint8_t> widths_;
  // Column offsets in the current record; fixed for the columns before
  // the first string.
  std::vector<uint32_t> offsets_;
  // Index of the first string column (num_columns() if none) and the
  // size of the fixed-width prefix before it.
  int first_string_ = 0;
  uint32_t fixed_prefix_ = 0;
};

// A view that can also overwrite fixed-width columns of the record in
// place (Table::UpdateInPlace hands one to its callback per row).
class MutableRecordView : public RecordView {
 public:
  // Set refuses the columns marked in `frozen` (a table's index keys).
  MutableRecordView(const Schema* schema, std::vector<bool> frozen)
      : RecordView(schema), frozen_(std::move(frozen)) {}

  Status Reset(std::span<char> record);

  // Overwrites column `col` with `v`, touching the record only when its
  // bytes differ. InvalidArgument for a frozen column, a variable-width
  // column, a NULL, or a type other than the column's.
  Status Set(int col, const Value& v);

  // Whether a Set since the last Reset changed the record's bytes.
  bool changed() const { return changed_; }

 private:
  char* mutable_data_ = nullptr;
  std::vector<bool> frozen_;
  bool changed_ = false;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_RECORD_H_
