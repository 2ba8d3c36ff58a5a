// The crawler's relational state: the CRAWL and LINK tables of Figure 1.
//
//   CRAWL(oid:int64, url:string, sid:int32, numtries:int32,
//         relevance:double, serverload:int32, lastvisited:int64,
//         kcid:int32, visited:int32,
//         nextretry:int64)                  index by_oid
//   LINK(oid_src:int64, sid_src:int32, oid_dst:int64, sid_dst:int32,
//        wgt_fwd:double, wgt_rev:double)    index by_src
//   BREAKER(sid:int32, state:int32, failures:int32, open_until:int64,
//           cooldown:double)                index by_sid
//
// Distributed crawls additionally opt in (EnableExchange) to:
//   OUTBOX(seq:int64, dst_shard:int32, src_oid:int64, dst_url:string,
//          relevance:double, raise:int32)   index by_seq
//   XWMARK(src_shard:int32, applied_seq:int64)  index by_src
// OUTBOX journals cross-shard link admissions this shard produced (seq is
// a per-shard monotone sequence, appended in the same commit as the LINK
// row); XWMARK records, per source shard, the highest OUTBOX seq this
// shard has durably applied — the exactly-once watermark of the link
// exchange. Both ride the ordinary Commit/Checkpoint path, so a crash on
// either side of an exchange replays rather than drops or duplicates.
//
// nextretry is the not-before virtual time (us) of a failed entry's next
// attempt; BREAKER persists per-server circuit-breaker state so a resumed
// crawl keeps its quarantines and retry schedule.
//
// oid is the 64-bit URL hash; sid identifies the server (hash of the URL's
// host — standing in for the paper's resolved IP). For unvisited pages,
// `relevance` holds the inherited priority estimate (best citing page's
// R); after a visit it holds the page's own R(d).
//
// LINK is indexed only by its source, the one lookup the crawler makes
// (a boost's top hubs). Its destination index was write-only and is gone;
// a store written while LINK still had it does not reopen (Open returns
// InvalidArgument from Table::Attach) and is not migrated.
#ifndef FOCUS_CRAWL_CRAWL_DB_H_
#define FOCUS_CRAWL_CRAWL_DB_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crawl/circuit_breaker.h"
#include "sql/catalog.h"
#include "sql/table.h"
#include "storage/wal.h"
#include "util/status.h"

namespace focus::crawl {

// Server id for a URL: hash of its host component.
int32_t ServerIdOf(std::string_view url);

// "http://host/path" -> "http://host/" (the §3.2 URL-truncation device).
// Returns the input unchanged when there is no path to strip.
std::string TruncateToHostRoot(std::string_view url);

// One cross-shard link admission queued in a source shard's OUTBOX.
struct ExchangeLink {
  int64_t seq = 0;        // per-source-shard monotone sequence
  int32_t dst_shard = 0;  // owning shard of dst_url
  uint64_t src_oid = 0;   // citing page (provenance parent)
  std::string dst_url;    // cited URL, owned by dst_shard
  double relevance = 0;   // citer's relevance estimate for dst_url
  // Admission semantics at the owner, mirroring the local expansion paths:
  // true = admit-or-raise (ordinary outlink: AddUrl, or RaiseRelevance on
  // a known unvisited row), false = admit-if-unknown (truncated host
  // roots and backlink citers never raise existing rows).
  bool raise_if_known = true;
};

// What link admission reads of a known URL: one by_oid probe, its
// fixed-width columns viewed in place (no tuple decode, no URL copy).
struct UrlProbe {
  storage::Rid rid;  // for RaiseRelevance(rid, ...)
  bool visited = false;
  double relevance = 0;
};

struct CrawlRecord {
  uint64_t oid = 0;
  std::string url;
  int32_t sid = 0;
  int32_t numtries = 0;
  double relevance = 0;
  int32_t serverload = 0;
  int64_t lastvisited = 0;
  int32_t kcid = -1;
  bool visited = false;
  int64_t next_retry_us = 0;  // not-before time of the next fetch attempt
};

class CrawlDb {
 public:
  // Creates CRAWL and LINK in `catalog`.
  static Result<CrawlDb> Create(sql::Catalog* catalog);

  // Opens a WAL-backed database: reattaches CRAWL/LINK/BREAKER from the
  // layout metadata `wal` recovered (falling back to Create on a fresh
  // store) and binds `wal` so Commit/Checkpoint are durable. `catalog`'s
  // buffer pool must sit on top of `wal`.
  static Result<CrawlDb> Open(sql::Catalog* catalog,
                              storage::WalDiskManager* wal);

  // Binds a WAL to a freshly Created database (Open does this itself).
  // Without a bound WAL, Commit and Checkpoint are no-ops, preserving the
  // in-memory (MemDiskManager) fast path.
  void BindWal(storage::WalDiskManager* wal) { wal_ = wal; }
  bool has_wal() const { return wal_ != nullptr; }

  // Batch commit = StageCommit + AwaitCommit. On OK the batch is durable
  // and atomic: after a crash, recovery lands exactly on a commit
  // boundary, never between.
  Status Commit();

  // Stage half: flushes dirty pages (into the WAL overlay) and stages them
  // with the serialized catalog layouts as the next log commit, without
  // waiting for the log device. Callers stage under the lock that orders
  // their batches; without a bound WAL the ticket is empty.
  Result<storage::CommitTicket> StageCommit();
  // Await half: returns once the staged commit, and every commit staged
  // before it, is durable. Group-commits with concurrent awaits.
  Status AwaitCommit(const storage::CommitTicket& ticket);

  // Commit, then fold the log into the data device and truncate it
  // (BufferPool::FlushAll + manifest advance + log reset).
  Status Checkpoint();

  // Inserts a new URL row (visited = 0). AlreadyExists if the oid is known.
  Status AddUrl(std::string_view url, double relevance_estimate,
                int32_t serverload);
  // AddUrl for an oid (UrlOid(url)) whose Probe just missed: inserts
  // without probing again.
  Status InsertUrl(uint64_t oid, std::string_view url,
                   double relevance_estimate, int32_t serverload);

  // One by_oid probe; nullopt when the oid has no CRAWL row.
  Result<std::optional<UrlProbe>> Probe(uint64_t oid) const;

  // Fetch-attempt bookkeeping: numtries += 1.
  Status RecordAttempt(uint64_t oid);

  // Failed-fetch bookkeeping: numtries += cost, nextretry = next_retry_us
  // (0 when the entry is dropped — numtries then carries the exhausted
  // budget).
  Status RecordFailure(uint64_t oid, int32_t cost, int64_t next_retry_us);

  // Marks `oid` visited with its judged relevance, class and visit time.
  Status RecordVisit(uint64_t oid, double relevance, int32_t kcid,
                     int64_t lastvisited);

  // Raises the stored relevance estimate of an *unvisited* row to
  // `relevance` if higher (used for hub boosts and better citations).
  // Writes the row in place; the rid form skips the by_oid probe.
  Status RaiseRelevance(uint64_t oid, double relevance);
  Status RaiseRelevance(const storage::Rid& rid, double relevance);

  // Appends a LINK row; edge weights start at 0 (assigned by
  // RefreshEdgeWeights once endpoint relevances are known).
  Status AddLink(std::string_view src_url, std::string_view dst_url);

  // Sets wgt_fwd = R(dst), wgt_rev = R(src) for every LINK row, reading
  // relevances from CRAWL (§2.2.2). Unvisited endpoints weigh their
  // current estimate; an endpoint with no CRAWL row weighs 0. Set-oriented:
  // one projected CRAWL scan, then one in-place LINK pass that writes only
  // rows whose weights changed (a repeat refresh dirties no page).
  Status RefreshEdgeWeights();

  Result<std::optional<CrawlRecord>> Lookup(uint64_t oid) const;
  Result<CrawlRecord> LookupByUrl(std::string_view url) const;

  // Persists one server's circuit-breaker state (insert or overwrite).
  Status UpsertBreaker(const BreakerRecord& rec);
  Result<std::vector<BreakerRecord>> LoadBreakers() const;

  // --- Cross-shard link exchange (distributed crawl) ---

  // Creates the OUTBOX/XWMARK tables. Idempotent; Open() reattaches them
  // automatically when the recovered catalog has them, so single-shard
  // stores never grow the extra tables.
  Status EnableExchange();
  bool has_exchange() const { return outbox_ != nullptr; }

  // Journals one cross-shard admission, assigning the next seq. Durable
  // with (and only with) the surrounding Commit, i.e. atomically with the
  // LINK row recorded in the same batch.
  Status AppendOutbox(int32_t dst_shard, uint64_t src_oid,
                      std::string_view dst_url, double relevance,
                      bool raise_if_known);

  // All OUTBOX messages for `dst_shard` with seq > after_seq, ascending.
  Result<std::vector<ExchangeLink>> ReadOutboxAfter(int32_t dst_shard,
                                                    int64_t after_seq) const;

  // Highest seq from `src_shard` this shard has durably applied (0 =
  // nothing yet).
  Result<int64_t> ExchangeWatermark(int32_t src_shard) const;
  // Upserts the watermark. Callers commit it in the same batch as the
  // admissions it covers — that atomicity is the exactly-once guarantee.
  Status SetExchangeWatermark(int32_t src_shard, int64_t seq);

  sql::Table* crawl_table() const { return crawl_; }
  sql::Table* link_table() const { return link_; }
  sql::Table* breaker_table() const { return breaker_; }

  uint64_t num_urls() const { return crawl_->num_rows(); }
  uint64_t num_links() const { return link_->num_rows(); }

  static CrawlRecord RecordFromTuple(const sql::Tuple& t);

 private:
  CrawlDb() = default;

  Result<storage::Rid> RidOf(uint64_t oid) const;

  sql::Catalog* catalog_ = nullptr;
  storage::WalDiskManager* wal_ = nullptr;
  sql::Table* crawl_ = nullptr;
  sql::Table* link_ = nullptr;
  sql::Table* breaker_ = nullptr;
  sql::Table* outbox_ = nullptr;  // null until EnableExchange/reattach
  sql::Table* xwmark_ = nullptr;
  int64_t next_outbox_seq_ = 1;   // restored from max(OUTBOX.seq) on Open
};

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_CRAWL_DB_H_
