// Table schemas and tuples.
#ifndef FOCUS_SQL_SCHEMA_H_
#define FOCUS_SQL_SCHEMA_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "sql/value.h"
#include "util/status.h"

namespace focus::sql {

struct Column {
  std::string name;
  TypeId type;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Column> cols) : columns_(cols) {}
  explicit Schema(std::vector<Column> cols) : columns_(std::move(cols)) {}

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  // Index of `name`, or -1.
  int ColumnIndex(std::string_view name) const;

  // Concatenation (for join outputs). Duplicate names are allowed; lookups
  // find the first.
  static Schema Concat(const Schema& a, const Schema& b);

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

// A row: one Value per schema column.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  int size() const { return static_cast<int>(values_.size()); }
  const Value& Get(int i) const { return values_[i]; }
  Value& Mutable(int i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  // Join-output assembly that reuses this tuple's storage: resizing and
  // copy-assigning element-wise keeps each Value's string capacity, so a
  // join emitting millions of rows into one output tuple stops allocating
  // after the first row.
  void AssignConcat(const Tuple& left, const Tuple& right) {
    values_.resize(left.size() + right.size());
    size_t i = 0;
    for (const Value& v : left.values()) values_[i++] = v;
    for (const Value& v : right.values()) values_[i++] = v;
  }
  // Left-outer padding variant: right side becomes NULLs of the schema's
  // column types.
  void AssignConcatNulls(const Tuple& left, const Schema& right_schema) {
    values_.resize(left.size() + right_schema.num_columns());
    size_t i = 0;
    for (const Value& v : left.values()) values_[i++] = v;
    for (int c = 0; c < right_schema.num_columns(); ++c) {
      values_[i++] = Value::Null(right_schema.column(c).type);
    }
  }

  // Serializes per `schema` column order into `out` (format: record.h).
  void SerializeTo(const Schema& schema, std::string* out) const;
  std::string Serialize(const Schema& schema) const {
    std::string out;
    SerializeTo(schema, &out);
    return out;
  }

  // Decodes a whole record through RecordView.
  static Result<Tuple> Deserialize(const Schema& schema,
                                   std::string_view data);

  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_SCHEMA_H_
