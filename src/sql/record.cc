#include "sql/record.h"

#include "util/string_util.h"

namespace focus::sql {

namespace {
// Encoded width of a fixed-width type; 0 for strings.
size_t FixedWidth(TypeId type) {
  switch (type) {
    case TypeId::kInt32:
      return 4;
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 8;
    case TypeId::kString:
      break;
  }
  return 0;
}

// Writes the bytes of fixed-width `v` to `out`; returns their count.
size_t EncodeFixed(const Value& v, char* out) {
  switch (v.type()) {
    case TypeId::kInt32: {
      int32_t x = v.AsInt32();
      std::memcpy(out, &x, sizeof(x));
      return sizeof(x);
    }
    case TypeId::kInt64: {
      int64_t x = v.AsInt64();
      std::memcpy(out, &x, sizeof(x));
      return sizeof(x);
    }
    case TypeId::kDouble: {
      double x = v.AsDouble();
      std::memcpy(out, &x, sizeof(x));
      return sizeof(x);
    }
    case TypeId::kString:
      break;
  }
  return 0;
}
}  // namespace

void AppendColumn(const Value& v, std::string* out) {
  FOCUS_DCHECK(!v.is_null(), "cannot serialize NULL");
  if (v.type() == TypeId::kString) {
    const std::string& s = v.AsString();
    FOCUS_DCHECK(s.size() <= 0xFFFF);
    uint16_t len = static_cast<uint16_t>(s.size());
    out->append(reinterpret_cast<const char*>(&len), sizeof(len));
    out->append(s);
    return;
  }
  char bytes[8];
  out->append(bytes, EncodeFixed(v, bytes));
}

RecordView::RecordView(const Schema* schema)
    : schema_(schema),
      widths_(schema->num_columns()),
      offsets_(schema->num_columns()),
      first_string_(schema->num_columns()) {
  for (int col = 0; col < schema->num_columns(); ++col) {
    widths_[col] = static_cast<uint8_t>(FixedWidth(schema->column(col).type));
    if (widths_[col] == 0 && first_string_ == schema->num_columns()) {
      first_string_ = col;
    }
    if (col < first_string_) {
      offsets_[col] = fixed_prefix_;
      fixed_prefix_ += widths_[col];
    }
  }
}

Status RecordView::Reset(std::string_view record) {
  data_ = record.data();
  const size_t size = record.size();
  // The fixed-width prefix has fixed offsets: one bound check covers it.
  size_t offset = fixed_prefix_;
  if (offset > size) {
    return Status::OutOfRange(StrCat("fixed-width columns need ", offset,
                                     " bytes; the record has ", size));
  }
  const int num_columns = static_cast<int>(widths_.size());
  for (int col = first_string_; col < num_columns; ++col) {
    offsets_[col] = static_cast<uint32_t>(offset);
    size_t width = widths_[col];
    if (width == 0) {
      if (offset + 2 > size) {
        return Status::OutOfRange(
            StrCat("string length of column ", col, " at offset ", offset,
                   " runs past the ", size, "-byte record"));
      }
      uint16_t len;
      std::memcpy(&len, data_ + offset, 2);
      width = 2 + size_t{len};
    }
    if (offset + width > size) {
      return Status::OutOfRange(StrCat("column ", col, " at offset ", offset,
                                       " runs past the ", size,
                                       "-byte record"));
    }
    offset += width;
  }
  if (offset != size) {
    return Status::InvalidArgument(
        StrCat("trailing bytes in record: ", size - offset));
  }
  return Status::OK();
}

Value RecordView::Get(int col) const {
  switch (schema_->column(col).type) {
    case TypeId::kInt32:
      return Value::Int32(GetInt32(col));
    case TypeId::kInt64:
      return Value::Int64(GetInt64(col));
    case TypeId::kDouble:
      return Value::Double(GetDouble(col));
    case TypeId::kString:
      return Value::Str(std::string(GetString(col)));
  }
  return Value();
}

Tuple RecordView::ToTuple() const {
  std::vector<Value> values;
  values.reserve(offsets_.size());
  for (int col = 0; col < schema_->num_columns(); ++col) {
    values.push_back(Get(col));
  }
  return Tuple(std::move(values));
}

Status MutableRecordView::Reset(std::span<char> record) {
  mutable_data_ = record.data();
  changed_ = false;
  return RecordView::Reset(std::string_view(record.data(), record.size()));
}

Status MutableRecordView::Set(int col, const Value& v) {
  if (col < 0 || col >= schema_->num_columns()) {
    return Status::InvalidArgument(StrCat("no column ", col));
  }
  const Column& column = schema_->column(col);
  if (frozen_[col]) {
    return Status::InvalidArgument(
        StrCat("column ", column.name, " is an index key"));
  }
  size_t width = widths_[col];
  if (width == 0) {
    return Status::InvalidArgument(
        StrCat("column ", column.name, " is variable-width"));
  }
  if (v.is_null() || v.type() != column.type) {
    return Status::InvalidArgument(StrCat("column ", column.name, " takes ",
                                          TypeName(column.type), ", not ",
                                          v.ToString()));
  }
  char bytes[8];
  EncodeFixed(v, bytes);
  char* at = mutable_data_ + offsets_[col];
  if (std::memcmp(at, bytes, width) != 0) {
    std::memcpy(at, bytes, width);
    changed_ = true;
  }
  return Status::OK();
}

}  // namespace focus::sql
