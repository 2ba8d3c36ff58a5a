#include "sql/schema.h"

#include "sql/record.h"
#include "util/string_util.h"

namespace focus::sql {

int Schema::ColumnIndex(std::string_view name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return -1;
}

Schema Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.columns();
  cols.insert(cols.end(), b.columns().begin(), b.columns().end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const auto& c : columns_) {
    parts.push_back(StrCat(c.name, ":", TypeName(c.type)));
  }
  return StrCat("(", StrJoin(parts, ", "), ")");
}

void Tuple::SerializeTo(const Schema& schema, std::string* out) const {
  (void)schema;
  for (const auto& v : values_) v.SerializeTo(out);
}

Result<Tuple> Tuple::Deserialize(const Schema& schema,
                                 std::string_view data) {
  RecordView view(&schema);
  FOCUS_RETURN_IF_ERROR(view.Reset(data));
  return view.ToTuple();
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const auto& v : values_) parts.push_back(v.ToString());
  return StrCat("[", StrJoin(parts, ", "), "]");
}

}  // namespace focus::sql
