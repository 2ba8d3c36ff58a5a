#include "crawl/crawl_db.h"

#include <algorithm>

#include "sql/exec/batch_ops.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace focus::crawl {

using sql::IndexSpec;
using sql::Schema;
using sql::Tuple;
using sql::TypeId;
using sql::Value;

int32_t ServerIdOf(std::string_view url) {
  size_t start = 0;
  if (auto pos = url.find("://"); pos != std::string_view::npos) {
    start = pos + 3;
  }
  size_t end = url.find('/', start);
  std::string_view host = url.substr(
      start, end == std::string_view::npos ? url.size() - start
                                           : end - start);
  // Keep it non-negative so it packs into index keys if ever needed.
  return static_cast<int32_t>(Fnv1a32(host) & 0x7FFFFFFF);
}

std::string TruncateToHostRoot(std::string_view url) {
  size_t start = 0;
  if (auto pos = url.find("://"); pos != std::string_view::npos) {
    start = pos + 3;
  }
  size_t slash = url.find('/', start);
  if (slash == std::string_view::npos) return std::string(url) + "/";
  return std::string(url.substr(0, slash + 1));
}

namespace {
// CRAWL's columns, for the in-place point writes.
enum CrawlCol : int {
  kNumtries = 3,
  kRelevance = 4,
  kLastvisited = 6,
  kKcid = 7,
  kVisited = 8,
  kNextretry = 9,
};

// Schema declarations shared by Create (fresh tables) and Open (reattach
// after recovery): the layout blob persists storage positions only, the
// application re-declares shapes.
Schema CrawlSchema() {
  return Schema({{"oid", TypeId::kInt64},
                 {"url", TypeId::kString},
                 {"sid", TypeId::kInt32},
                 {"numtries", TypeId::kInt32},
                 {"relevance", TypeId::kDouble},
                 {"serverload", TypeId::kInt32},
                 {"lastvisited", TypeId::kInt64},
                 {"kcid", TypeId::kInt32},
                 {"visited", TypeId::kInt32},
                 {"nextretry", TypeId::kInt64}});
}
std::vector<IndexSpec> CrawlIndexes() {
  return {IndexSpec{"by_oid", {0}, {}}};
}
Schema LinkSchema() {
  return Schema({{"oid_src", TypeId::kInt64},
                 {"sid_src", TypeId::kInt32},
                 {"oid_dst", TypeId::kInt64},
                 {"sid_dst", TypeId::kInt32},
                 {"wgt_fwd", TypeId::kDouble},
                 {"wgt_rev", TypeId::kDouble}});
}
std::vector<IndexSpec> LinkIndexes() {
  return {IndexSpec{"by_src", {0}, {}}};
}
Schema BreakerSchema() {
  return Schema({{"sid", TypeId::kInt32},
                 {"state", TypeId::kInt32},
                 {"failures", TypeId::kInt32},
                 {"open_until", TypeId::kInt64},
                 {"cooldown", TypeId::kDouble}});
}
std::vector<IndexSpec> BreakerIndexes() {
  return {IndexSpec{"by_sid", {0}, {}}};
}
Schema OutboxSchema() {
  return Schema({{"seq", TypeId::kInt64},
                 {"dst_shard", TypeId::kInt32},
                 {"src_oid", TypeId::kInt64},
                 {"dst_url", TypeId::kString},
                 {"relevance", TypeId::kDouble},
                 {"raise", TypeId::kInt32}});
}
std::vector<IndexSpec> OutboxIndexes() {
  return {IndexSpec{"by_seq", {0}, {}}};
}
Schema XwmarkSchema() {
  return Schema(
      {{"src_shard", TypeId::kInt32}, {"applied_seq", TypeId::kInt64}});
}
std::vector<IndexSpec> XwmarkIndexes() {
  return {IndexSpec{"by_src", {0}, {}}};
}
}  // namespace

Result<CrawlDb> CrawlDb::Create(sql::Catalog* catalog) {
  CrawlDb db;
  db.catalog_ = catalog;
  FOCUS_ASSIGN_OR_RETURN(
      db.crawl_,
      catalog->CreateTable("CRAWL", CrawlSchema(), CrawlIndexes()));
  FOCUS_ASSIGN_OR_RETURN(
      db.link_, catalog->CreateTable("LINK", LinkSchema(), LinkIndexes()));
  FOCUS_ASSIGN_OR_RETURN(
      db.breaker_,
      catalog->CreateTable("BREAKER", BreakerSchema(), BreakerIndexes()));
  return db;
}

Result<CrawlDb> CrawlDb::Open(sql::Catalog* catalog,
                              storage::WalDiskManager* wal) {
  const std::string& meta = wal->recovered_metadata();
  std::map<std::string, sql::TableLayout> layouts;
  if (!meta.empty()) {
    FOCUS_ASSIGN_OR_RETURN(layouts, sql::Catalog::ParseLayouts(meta));
  }
  bool have_tables = layouts.contains("CRAWL") && layouts.contains("LINK") &&
                     layouts.contains("BREAKER");
  if (!have_tables) {
    if (!layouts.empty()) {
      return Status::IOError(
          "recovered metadata is missing crawl tables (partial catalog)");
    }
    // Fresh store: nothing was ever committed.
    FOCUS_ASSIGN_OR_RETURN(CrawlDb db, Create(catalog));
    db.wal_ = wal;
    return db;
  }
  CrawlDb db;
  db.catalog_ = catalog;
  db.wal_ = wal;
  FOCUS_ASSIGN_OR_RETURN(
      db.crawl_, catalog->AttachTable("CRAWL", CrawlSchema(), CrawlIndexes(),
                                      layouts.at("CRAWL")));
  FOCUS_ASSIGN_OR_RETURN(
      db.link_, catalog->AttachTable("LINK", LinkSchema(), LinkIndexes(),
                                     layouts.at("LINK")));
  FOCUS_ASSIGN_OR_RETURN(
      db.breaker_,
      catalog->AttachTable("BREAKER", BreakerSchema(), BreakerIndexes(),
                           layouts.at("BREAKER")));
  if (layouts.contains("OUTBOX") && layouts.contains("XWMARK")) {
    FOCUS_ASSIGN_OR_RETURN(
        db.outbox_, catalog->AttachTable("OUTBOX", OutboxSchema(),
                                         OutboxIndexes(),
                                         layouts.at("OUTBOX")));
    FOCUS_ASSIGN_OR_RETURN(
        db.xwmark_, catalog->AttachTable("XWMARK", XwmarkSchema(),
                                         XwmarkIndexes(),
                                         layouts.at("XWMARK")));
    // The next seq resumes past the highest durable one, so replayed
    // crawls keep the sequence monotone.
    auto it = db.outbox_->Scan();
    storage::Rid rid;
    Tuple row;
    int64_t max_seq = 0;
    while (it.Next(&rid, &row)) {
      max_seq = std::max(max_seq, row.Get(0).AsInt64());
    }
    FOCUS_RETURN_IF_ERROR(it.status());
    db.next_outbox_seq_ = max_seq + 1;
  }
  return db;
}

Status CrawlDb::EnableExchange() {
  if (outbox_ != nullptr) return Status::OK();
  FOCUS_ASSIGN_OR_RETURN(
      outbox_,
      catalog_->CreateTable("OUTBOX", OutboxSchema(), OutboxIndexes()));
  FOCUS_ASSIGN_OR_RETURN(
      xwmark_,
      catalog_->CreateTable("XWMARK", XwmarkSchema(), XwmarkIndexes()));
  return Status::OK();
}

Status CrawlDb::AppendOutbox(int32_t dst_shard, uint64_t src_oid,
                             std::string_view dst_url, double relevance,
                             bool raise_if_known) {
  if (outbox_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  int64_t seq = next_outbox_seq_;
  FOCUS_RETURN_IF_ERROR(
      outbox_
          ->Insert(Tuple({Value::Int64(seq), Value::Int32(dst_shard),
                          Value::Int64(static_cast<int64_t>(src_oid)),
                          Value::Str(std::string(dst_url)),
                          Value::Double(relevance),
                          Value::Int32(raise_if_known ? 1 : 0)}))
          .status());
  next_outbox_seq_ = seq + 1;
  return Status::OK();
}

Result<std::vector<ExchangeLink>> CrawlDb::ReadOutboxAfter(
    int32_t dst_shard, int64_t after_seq) const {
  if (outbox_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  std::vector<ExchangeLink> out;
  auto it = outbox_->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    if (row.Get(1).AsInt32() != dst_shard) continue;
    if (row.Get(0).AsInt64() <= after_seq) continue;
    ExchangeLink msg;
    msg.seq = row.Get(0).AsInt64();
    msg.dst_shard = dst_shard;
    msg.src_oid = static_cast<uint64_t>(row.Get(2).AsInt64());
    msg.dst_url = row.Get(3).AsString();
    msg.relevance = row.Get(4).AsDouble();
    msg.raise_if_known = row.Get(5).AsInt32() != 0;
    out.push_back(std::move(msg));
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  std::sort(out.begin(), out.end(),
            [](const ExchangeLink& a, const ExchangeLink& b) {
              return a.seq < b.seq;
            });
  return out;
}

Result<int64_t> CrawlDb::ExchangeWatermark(int32_t src_shard) const {
  if (xwmark_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      xwmark_->IndexLookup(0, {Value::Int32(src_shard)}, &rids));
  if (rids.empty()) return int64_t{0};
  Tuple row;
  FOCUS_RETURN_IF_ERROR(xwmark_->Get(rids[0], &row));
  return row.Get(1).AsInt64();
}

Status CrawlDb::SetExchangeWatermark(int32_t src_shard, int64_t seq) {
  if (xwmark_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      xwmark_->IndexLookup(0, {Value::Int32(src_shard)}, &rids));
  Tuple row({Value::Int32(src_shard), Value::Int64(seq)});
  if (rids.empty()) return xwmark_->Insert(row).status();
  return xwmark_->Update(rids[0], row);
}

Status CrawlDb::Commit() {
  FOCUS_ASSIGN_OR_RETURN(storage::CommitTicket ticket, StageCommit());
  return AwaitCommit(ticket);
}

Result<storage::CommitTicket> CrawlDb::StageCommit() {
  if (wal_ == nullptr) return storage::CommitTicket{};
  // Flush-order discipline: dirty pages land in the WAL overlay first,
  // then the staged commit logs them with the catalog layouts.
  FOCUS_RETURN_IF_ERROR(catalog_->buffer_pool()->FlushAll());
  return wal_->StageCommit(catalog_->SerializeLayouts());
}

Status CrawlDb::AwaitCommit(const storage::CommitTicket& ticket) {
  if (wal_ == nullptr) return Status::OK();
  return wal_->AwaitCommit(ticket);
}

Status CrawlDb::Checkpoint() {
  if (wal_ == nullptr) return Status::OK();
  FOCUS_RETURN_IF_ERROR(catalog_->buffer_pool()->FlushAll());
  return wal_->Checkpoint(catalog_->SerializeLayouts());
}

Result<storage::Rid> CrawlDb::RidOf(uint64_t oid) const {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(crawl_->IndexLookup(
      0, {Value::Int64(static_cast<int64_t>(oid))}, &rids));
  if (rids.empty()) {
    return Status::NotFound(StrCat("oid ", oid, " not in CRAWL"));
  }
  return rids[0];
}

Status CrawlDb::AddUrl(std::string_view url, double relevance_estimate,
                       int32_t serverload) {
  uint64_t oid = UrlOid(url);
  FOCUS_ASSIGN_OR_RETURN(std::optional<UrlProbe> known, Probe(oid));
  if (known.has_value()) {
    return Status::AlreadyExists(StrCat("url ", url));
  }
  return InsertUrl(oid, url, relevance_estimate, serverload);
}

Status CrawlDb::InsertUrl(uint64_t oid, std::string_view url,
                          double relevance_estimate, int32_t serverload) {
  return crawl_
      ->Insert(Tuple({Value::Int64(static_cast<int64_t>(oid)),
                      Value::Str(std::string(url)),
                      Value::Int32(ServerIdOf(url)), Value::Int32(0),
                      Value::Double(relevance_estimate),
                      Value::Int32(serverload), Value::Int64(0),
                      Value::Int32(-1), Value::Int32(0), Value::Int64(0)}))
      .status();
}

Result<std::optional<UrlProbe>> CrawlDb::Probe(uint64_t oid) const {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(crawl_->IndexLookup(
      0, {Value::Int64(static_cast<int64_t>(oid))}, &rids));
  if (rids.empty()) return std::optional<UrlProbe>{};
  UrlProbe probe;
  probe.rid = rids[0];
  FOCUS_RETURN_IF_ERROR(
      crawl_->VisitAt(probe.rid, [&probe](const sql::RecordView& row) {
        probe.visited = row.GetInt32(kVisited) != 0;
        probe.relevance = row.GetDouble(kRelevance);
        return Status::OK();
      }));
  return std::optional<UrlProbe>(probe);
}

Status CrawlDb::RecordAttempt(uint64_t oid) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  return crawl_->UpdateInPlaceAt(rid, [](sql::MutableRecordView* row) {
    return row->Set(kNumtries,
                    Value::Int32(row->GetInt32(kNumtries) + 1));
  });
}

Status CrawlDb::RecordFailure(uint64_t oid, int32_t cost,
                              int64_t next_retry_us) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  return crawl_->UpdateInPlaceAt(rid, [&](sql::MutableRecordView* row) {
    FOCUS_RETURN_IF_ERROR(row->Set(
        kNumtries, Value::Int32(row->GetInt32(kNumtries) + cost)));
    return row->Set(kNextretry, Value::Int64(next_retry_us));
  });
}

Status CrawlDb::RecordVisit(uint64_t oid, double relevance, int32_t kcid,
                            int64_t lastvisited) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  return crawl_->UpdateInPlaceAt(rid, [&](sql::MutableRecordView* row) {
    FOCUS_RETURN_IF_ERROR(row->Set(kRelevance, Value::Double(relevance)));
    FOCUS_RETURN_IF_ERROR(
        row->Set(kLastvisited, Value::Int64(lastvisited)));
    FOCUS_RETURN_IF_ERROR(row->Set(kKcid, Value::Int32(kcid)));
    FOCUS_RETURN_IF_ERROR(row->Set(kVisited, Value::Int32(1)));
    // A visit clears any pending retry.
    return row->Set(kNextretry, Value::Int64(0));
  });
}

Status CrawlDb::RaiseRelevance(uint64_t oid, double relevance) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  return RaiseRelevance(rid, relevance);
}

Status CrawlDb::RaiseRelevance(const storage::Rid& rid, double relevance) {
  return crawl_->UpdateInPlaceAt(rid, [relevance](sql::MutableRecordView* row) {
    if (row->GetInt32(kVisited) != 0) return Status::OK();
    if (row->GetDouble(kRelevance) >= relevance) return Status::OK();
    return row->Set(kRelevance, Value::Double(relevance));
  });
}

Status CrawlDb::AddLink(std::string_view src_url, std::string_view dst_url) {
  return link_
      ->Insert(Tuple({Value::Int64(static_cast<int64_t>(UrlOid(src_url))),
                      Value::Int32(ServerIdOf(src_url)),
                      Value::Int64(static_cast<int64_t>(UrlOid(dst_url))),
                      Value::Int32(ServerIdOf(dst_url)), Value::Double(0),
                      Value::Double(0)}))
      .status();
}

Status CrawlDb::RefreshEdgeWeights() {
  // One projected CRAWL scan, sorted by oid: each LINK row then finds its
  // endpoints' relevances by binary search, with no index probe and no
  // decode of a URL-carrying CRAWL row.
  sql::BatchTableScan scan(crawl_, {0, 4});
  sql::ColumnSet crawl_rel;
  FOCUS_RETURN_IF_ERROR(sql::CollectInto(&scan, &crawl_rel));
  const std::vector<int64_t>& oids = crawl_rel.col(0).i64;
  const std::vector<double>& rels = crawl_rel.col(1).f64;
  std::vector<std::pair<int64_t, double>> relevance(oids.size());
  for (size_t i = 0; i < oids.size(); ++i) relevance[i] = {oids[i], rels[i]};
  // Stable: with duplicate oids the first in heap order wins.
  std::stable_sort(
      relevance.begin(), relevance.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  auto relevance_of = [&relevance](int64_t oid) {
    auto it = std::lower_bound(
        relevance.begin(), relevance.end(), oid,
        [](const auto& entry, int64_t key) { return entry.first < key; });
    // An endpoint without a CRAWL row weighs 0.
    return it != relevance.end() && it->first == oid ? it->second : 0.0;
  };
  // One LINK pass; rows whose weights are already current stay clean.
  return link_->UpdateInPlace([&](sql::MutableRecordView* row) {
    FOCUS_RETURN_IF_ERROR(
        row->Set(4, Value::Double(relevance_of(row->GetInt64(2)))));
    return row->Set(5, Value::Double(relevance_of(row->GetInt64(0))));
  });
}

CrawlRecord CrawlDb::RecordFromTuple(const Tuple& t) {
  CrawlRecord r;
  r.oid = static_cast<uint64_t>(t.Get(0).AsInt64());
  r.url = t.Get(1).AsString();
  r.sid = t.Get(2).AsInt32();
  r.numtries = t.Get(3).AsInt32();
  r.relevance = t.Get(4).AsDouble();
  r.serverload = t.Get(5).AsInt32();
  r.lastvisited = t.Get(6).AsInt64();
  r.kcid = t.Get(7).AsInt32();
  r.visited = t.Get(8).AsInt32() != 0;
  r.next_retry_us = t.Get(9).AsInt64();
  return r;
}

Result<std::optional<CrawlRecord>> CrawlDb::Lookup(uint64_t oid) const {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(crawl_->IndexLookup(
      0, {Value::Int64(static_cast<int64_t>(oid))}, &rids));
  if (rids.empty()) return std::optional<CrawlRecord>{};
  Tuple row;
  FOCUS_RETURN_IF_ERROR(crawl_->Get(rids[0], &row));
  return std::optional<CrawlRecord>(RecordFromTuple(row));
}

Result<CrawlRecord> CrawlDb::LookupByUrl(std::string_view url) const {
  FOCUS_ASSIGN_OR_RETURN(std::optional<CrawlRecord> rec,
                         Lookup(UrlOid(url)));
  if (!rec.has_value()) {
    return Status::NotFound(StrCat("url ", url, " not in CRAWL"));
  }
  return *rec;
}

Status CrawlDb::UpsertBreaker(const BreakerRecord& rec) {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      breaker_->IndexLookup(0, {Value::Int32(rec.sid)}, &rids));
  Tuple row({Value::Int32(rec.sid),
             Value::Int32(static_cast<int32_t>(rec.state)),
             Value::Int32(rec.consecutive_failures),
             Value::Int64(rec.open_until_us), Value::Double(rec.cooldown_s)});
  if (rids.empty()) return breaker_->Insert(row).status();
  return breaker_->Update(rids[0], row);
}

Result<std::vector<BreakerRecord>> CrawlDb::LoadBreakers() const {
  std::vector<BreakerRecord> out;
  auto it = breaker_->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    BreakerRecord rec;
    rec.sid = row.Get(0).AsInt32();
    rec.state = static_cast<BreakerState>(row.Get(1).AsInt32());
    rec.consecutive_failures = row.Get(2).AsInt32();
    rec.open_until_us = row.Get(3).AsInt64();
    rec.cooldown_s = row.Get(4).AsDouble();
    out.push_back(rec);
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  return out;
}

}  // namespace focus::crawl
