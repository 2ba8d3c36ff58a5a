#include "sql/value.h"

#include <cassert>
#include <cstring>

#include "sql/record.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace focus::sql {

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kInt32:
      return "int32";
    case TypeId::kInt64:
      return "int64";
    case TypeId::kDouble:
      return "double";
    case TypeId::kString:
      return "string";
  }
  return "unknown";
}

double Value::AsNumeric() const {
  switch (type_) {
    case TypeId::kInt32:
      return AsInt32();
    case TypeId::kInt64:
      return static_cast<double>(AsInt64());
    case TypeId::kDouble:
      return AsDouble();
    case TypeId::kString:
      break;
  }
  assert(false && "AsNumeric on string value");
  return 0.0;
}

int Value::Compare(const Value& other) const {
  assert(type_ == other.type_ && "comparing values of different types");
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  auto cmp3 = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
  switch (type_) {
    case TypeId::kInt32:
      return cmp3(AsInt32(), other.AsInt32());
    case TypeId::kInt64:
      return cmp3(AsInt64(), other.AsInt64());
    case TypeId::kDouble:
      return cmp3(AsDouble(), other.AsDouble());
    case TypeId::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
  }
  return 0;
}

uint64_t Value::Hash() const {
  if (null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case TypeId::kInt32:
      return Mix64(static_cast<uint64_t>(static_cast<uint32_t>(AsInt32())));
    case TypeId::kInt64:
      return Mix64(static_cast<uint64_t>(AsInt64()));
    case TypeId::kDouble: {
      double d = AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case TypeId::kString:
      return Fnv1a64(AsString());
  }
  return 0;
}

void Value::SerializeTo(std::string* out) const { AppendColumn(*this, out); }

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case TypeId::kInt32:
      return StrCat(AsInt32());
    case TypeId::kInt64:
      return StrCat(AsInt64());
    case TypeId::kDouble:
      return StrCat(AsDouble());
    case TypeId::kString:
      return AsString();
  }
  return "?";
}

}  // namespace focus::sql
