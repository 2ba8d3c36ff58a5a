#include "sql/catalog.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace focus::sql {

namespace {
// Layout blob wire helpers (host-endian; the blob never leaves the
// machine that wrote it — it travels via the WAL / manifest).
template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::string_view blob, size_t* off, T* v) {
  if (*off + sizeof(T) > blob.size()) return false;
  std::memcpy(v, blob.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}
}  // namespace

Result<Table*> Catalog::CreateTable(std::string name, Schema schema,
                                    std::vector<IndexSpec> indexes) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists(StrCat("table ", name));
  }
  FOCUS_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> table,
      Table::Create(pool_, name, std::move(schema), std::move(indexes)));
  Table* raw = table.get();
  tables_.emplace(std::move(name), std::move(table));
  return raw;
}

Result<Table*> Catalog::AttachTable(std::string name, Schema schema,
                                    std::vector<IndexSpec> indexes,
                                    const TableLayout& layout) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists(StrCat("table ", name));
  }
  FOCUS_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> table,
      Table::Attach(pool_, name, std::move(schema), std::move(indexes),
                    layout));
  Table* raw = table.get();
  tables_.emplace(std::move(name), std::move(table));
  return raw;
}

std::string Catalog::SerializeLayouts() const {
  std::vector<std::string> names = TableNames();
  std::sort(names.begin(), names.end());
  std::string blob;
  AppendPod<uint32_t>(&blob, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    TableLayout layout = GetTable(name)->Layout();
    AppendPod<uint32_t>(&blob, static_cast<uint32_t>(name.size()));
    blob.append(name);
    AppendPod<uint32_t>(&blob, layout.heap_first);
    AppendPod<uint32_t>(&blob, layout.heap_last);
    AppendPod<uint64_t>(&blob, layout.num_records);
    AppendPod<uint32_t>(&blob, static_cast<uint32_t>(layout.indexes.size()));
    for (const IndexLayout& il : layout.indexes) {
      AppendPod<uint32_t>(&blob, il.root);
      AppendPod<int32_t>(&blob, static_cast<int32_t>(il.height));
      AppendPod<uint64_t>(&blob, il.num_entries);
    }
  }
  return blob;
}

Result<std::map<std::string, TableLayout>> Catalog::ParseLayouts(
    std::string_view blob) {
  std::map<std::string, TableLayout> layouts;
  size_t off = 0;
  uint32_t num_tables = 0;
  if (!ReadPod(blob, &off, &num_tables)) {
    return Status::IOError("corrupt layout blob: truncated table count");
  }
  for (uint32_t t = 0; t < num_tables; ++t) {
    uint32_t name_len = 0;
    if (!ReadPod(blob, &off, &name_len) || off + name_len > blob.size()) {
      return Status::IOError("corrupt layout blob: truncated table name");
    }
    std::string name(blob.substr(off, name_len));
    off += name_len;
    TableLayout layout;
    uint32_t num_indexes = 0;
    if (!ReadPod(blob, &off, &layout.heap_first) ||
        !ReadPod(blob, &off, &layout.heap_last) ||
        !ReadPod(blob, &off, &layout.num_records) ||
        !ReadPod(blob, &off, &num_indexes)) {
      return Status::IOError(StrCat("corrupt layout blob: truncated ", name));
    }
    layout.indexes.resize(num_indexes);
    for (uint32_t i = 0; i < num_indexes; ++i) {
      int32_t height = 0;
      if (!ReadPod(blob, &off, &layout.indexes[i].root) ||
          !ReadPod(blob, &off, &height) ||
          !ReadPod(blob, &off, &layout.indexes[i].num_entries)) {
        return Status::IOError(
            StrCat("corrupt layout blob: truncated ", name, " index ", i));
      }
      layout.indexes[i].height = height;
    }
    layouts.emplace(std::move(name), std::move(layout));
  }
  return layouts;
}

Table* Catalog::GetTable(std::string_view name) const {
  auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Catalog::DropTable(std::string_view name) {
  auto it = tables_.find(std::string(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("table ", name));
  }
  it->second->ReleaseStorage();
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace focus::sql
