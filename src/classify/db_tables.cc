#include "classify/db_tables.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace focus::classify {

using sql::IndexSpec;
using sql::Schema;
using sql::Tuple;
using sql::TypeId;
using sql::Value;

std::string EncodeBlobPayload(const std::vector<ChildStat>& stats) {
  std::string out;
  out.reserve(stats.size() * 10);
  for (const auto& cs : stats) {
    uint16_t kcid = cs.kcid;
    out.append(reinterpret_cast<const char*>(&kcid), sizeof(kcid));
    out.append(reinterpret_cast<const char*>(&cs.logtheta),
               sizeof(cs.logtheta));
  }
  return out;
}

Result<std::vector<ChildStat>> DecodeBlobPayload(std::string_view payload) {
  if (payload.size() % 10 != 0) {
    return Status::InvalidArgument(
        StrCat("blob payload size ", payload.size(), " not a multiple of 10"));
  }
  std::vector<ChildStat> stats;
  stats.reserve(payload.size() / 10);
  for (size_t off = 0; off < payload.size(); off += 10) {
    uint16_t kcid;
    double logtheta;
    std::memcpy(&kcid, payload.data() + off, sizeof(kcid));
    std::memcpy(&logtheta, payload.data() + off + 2, sizeof(logtheta));
    stats.push_back(ChildStat{kcid, logtheta});
  }
  return stats;
}

Result<ClassifierTables> BuildClassifierTables(sql::Catalog* catalog,
                                               const taxonomy::Taxonomy& tax,
                                               const ClassifierModel& model) {
  ClassifierTables tables;

  // TAXONOMY: one row per non-root topic, keyed by its parent.
  FOCUS_ASSIGN_OR_RETURN(
      tables.taxonomy,
      catalog->CreateTable("TAXONOMY",
                           Schema({{"pcid", TypeId::kInt32},
                                   {"kcid", TypeId::kInt32},
                                   {"logprior", TypeId::kDouble},
                                   {"logdenom", TypeId::kDouble},
                                   {"type", TypeId::kInt32},
                                   {"name", TypeId::kString}}),
                           {IndexSpec{"by_pcid", {0}, {}},
                            IndexSpec{"by_kcid", {1}, {}}}));
  for (taxonomy::Cid cid = 1; cid < tax.num_topics(); ++cid) {
    FOCUS_RETURN_IF_ERROR(
        tables.taxonomy
            ->Insert(Tuple({Value::Int32(tax.Parent(cid)), Value::Int32(cid),
                            Value::Double(model.logprior[cid]),
                            Value::Double(model.logdenom[cid]),
                            Value::Int32(static_cast<int>(tax.mark(cid))),
                            Value::Str(tax.Name(cid))}))
            .status());
  }

  // BLOB: one row per (internal node, feature term).
  FOCUS_ASSIGN_OR_RETURN(
      tables.blob,
      catalog->CreateTable("BLOB",
                           Schema({{"pcid", TypeId::kInt32},
                                   {"tid", TypeId::kInt64},
                                   {"payload", TypeId::kString}}),
                           {IndexSpec{"by_pcid_tid", {0, 1}, {16, 32}}}));

  // STAT_<c0>: rows in (tid, kcid) order so a heap scan is merge-ready.
  for (taxonomy::Cid c0 : tax.InternalPreorder()) {
    const NodeModel* node = model.NodeFor(c0);
    if (node == nullptr) {
      return Status::InvalidArgument(
          StrCat("model missing internal node ", c0));
    }
    FOCUS_ASSIGN_OR_RETURN(
        sql::Table * stat,
        catalog->CreateTable(StrCat("STAT_", c0),
                             Schema({{"kcid", TypeId::kInt32},
                                     {"tid", TypeId::kInt64},
                                     {"logtheta", TypeId::kDouble}}),
                             {IndexSpec{"by_tid", {1}, {32}}}));
    std::vector<uint32_t> tids;
    tids.reserve(node->stats.size());
    for (const auto& [tid, _] : node->stats) tids.push_back(tid);
    std::sort(tids.begin(), tids.end());
    for (uint32_t tid : tids) {
      const auto& stats = node->stats.at(tid);
      for (const auto& cs : stats) {
        FOCUS_RETURN_IF_ERROR(
            stat->Insert(Tuple({Value::Int32(cs.kcid),
                                Value::Int64(static_cast<int64_t>(tid)),
                                Value::Double(cs.logtheta)}))
                .status());
      }
      FOCUS_RETURN_IF_ERROR(
          tables.blob
              ->Insert(Tuple({Value::Int32(c0),
                              Value::Int64(static_cast<int64_t>(tid)),
                              Value::Str(EncodeBlobPayload(stats))}))
              .status());
    }
    tables.stat.emplace(c0, stat);
  }
  return tables;
}

namespace {
Schema DocumentSchema() {
  return Schema({{"did", TypeId::kInt64},
                 {"tid", TypeId::kInt64},
                 {"freq", TypeId::kInt32}});
}
std::vector<IndexSpec> DocumentIndexes() {
  return {IndexSpec{"by_did", {0}, {}}};
}
}  // namespace

Result<sql::Table*> CreateDocumentTable(sql::Catalog* catalog,
                                        const std::string& name) {
  return catalog->CreateTable(name, DocumentSchema(), DocumentIndexes());
}

Result<std::unique_ptr<sql::Table>> NewDocumentTable(
    storage::BufferPool* pool) {
  // BulkProbe reads DOCUMENT only by scans, so this one has no by_did.
  return sql::Table::Create(pool, "DOCUMENT", DocumentSchema(), {});
}

Status InsertDocument(sql::Table* document, uint64_t did,
                      const text::TermVector& terms) {
  for (const auto& tf : terms) {
    FOCUS_RETURN_IF_ERROR(
        document
            ->Insert(Tuple({Value::Int64(static_cast<int64_t>(did)),
                            Value::Int64(static_cast<int64_t>(tf.tid)),
                            Value::Int32(tf.freq)}))
            .status());
  }
  return Status::OK();
}

Result<text::TermVector> FetchDocument(const sql::Table* document,
                                       uint64_t did) {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(document->IndexLookup(
      0, {Value::Int64(static_cast<int64_t>(did))}, &rids));
  text::TermVector terms;
  terms.reserve(rids.size());
  Tuple row;
  for (const auto& rid : rids) {
    FOCUS_RETURN_IF_ERROR(document->Get(rid, &row));
    terms.push_back(
        {static_cast<uint32_t>(row.Get(1).AsInt64()), row.Get(2).AsInt32()});
  }
  std::sort(terms.begin(), terms.end(),
            [](const text::TermFreq& a, const text::TermFreq& b) {
              return a.tid < b.tid;
            });
  return terms;
}

}  // namespace focus::classify
