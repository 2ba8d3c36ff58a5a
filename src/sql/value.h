// Typed values for the mini relational engine.
//
// Four storage types cover every table in the paper's schema (Figure 1):
// 16/32-bit ids and counters (kInt32), 64-bit oids and timestamps (kInt64),
// scores and log-probabilities (kDouble), URLs and names (kString).
// A transient NULL state exists for outer-join padding; NULLs are never
// stored in tables.
#ifndef FOCUS_SQL_VALUE_H_
#define FOCUS_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "util/status.h"

namespace focus::sql {

enum class TypeId : uint8_t { kInt32 = 0, kInt64 = 1, kDouble = 2,
                              kString = 3 };

const char* TypeName(TypeId t);

class Value {
 public:
  // Default-constructed value is a NULL int32 (placeholder).
  Value() : type_(TypeId::kInt32), null_(true) {}

  static Value Int32(int32_t v) { return Value(TypeId::kInt32, v); }
  static Value Int64(int64_t v) { return Value(TypeId::kInt64, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value Str(std::string v) {
    Value out(TypeId::kString, int64_t{0});
    out.repr_ = std::move(v);
    return out;
  }
  static Value Null(TypeId type) {
    Value out;
    out.type_ = type;
    out.null_ = true;
    return out;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return null_; }

  int32_t AsInt32() const { return std::get<int32_t>(repr_); }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  // Numeric read as double (int32/int64/double).
  double AsNumeric() const;

  // Three-way comparison. Types must match; NULL sorts before everything.
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  uint64_t Hash() const;

  // Appends the stored encoding to `out` (AppendColumn, record.h). NULLs
  // cannot be serialized.
  void SerializeTo(std::string* out) const;

  std::string ToString() const;

 private:
  template <typename T>
  Value(TypeId type, T v) : type_(type), null_(false), repr_(v) {}

  TypeId type_;
  bool null_;
  std::variant<int32_t, int64_t, double, std::string> repr_;
};

}  // namespace focus::sql

#endif  // FOCUS_SQL_VALUE_H_
