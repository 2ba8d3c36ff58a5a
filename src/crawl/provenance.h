// Crawl provenance: the event log as a relation, plus discovery-path
// reconstruction.
//
// The paper's thesis is that a crawler should be "a database application";
// this file extends that to the crawler's *history*. MaterializeEvents
// turns the in-memory event ring into an EVENTS table
//
//   EVENTS(seq:int64, type:int32, oid:int64, parent_oid:int64, sid:int32,
//          virtual_us:int64, value:double, aux:int64)
//
// queryable by both executor engines, and DiscoveryEdges is the
// canned §3.7-style monitoring query over it: join frontier-admit events
// with LINK to recover, for every URL, the edge that discovered it and
// the priority it entered at. DiscoveryPath composes those facts into the
// full seed → ... → URL story (attempts, fault classes, retries, breaker
// denials per hop) — including for crawls resumed after a crash, where
// admits are reconciled from the WAL-recovered tables.
#ifndef FOCUS_CRAWL_PROVENANCE_H_
#define FOCUS_CRAWL_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crawl/crawl_db.h"
#include "obs/event_log.h"
#include "sql/catalog.h"
#include "sql/exec/operator.h"
#include "util/status.h"

namespace focus::obs {
class AdminServer;
}  // namespace focus::obs

namespace focus::crawl {

class Crawler;

// The EVENTS relation's schema (column order above).
sql::Schema EventsSchema();

// Materializes a snapshot of `log` into table `name` in `catalog`,
// dropping any previous materialization. Rows are inserted in sequence
// order, so a heap scan replays the crawl's history.
Result<sql::Table*> MaterializeEvents(const obs::EventLog& log,
                                      sql::Catalog* catalog,
                                      const std::string& name = "EVENTS",
                                      const obs::EventFilter& filter = {});

// The canned provenance query, runnable on either engine (results are
// bit-identical across kScalar / kVectorized):
//
//   select E.seq, E.oid, E.parent_oid, E.value, L.wgt_fwd
//   from EVENTS E, LINK L
//   where E.type = 0 /* frontier_admit */ and E.parent_oid <> -1
//     and L.oid_src = E.parent_oid and L.oid_dst = E.oid
//   order by E.seq
//
// (oids are full-range 64-bit hashes stored as int64, so "no parent" is
// the exact sentinel -1, never a sign test.)
//
// Each row certifies one discovery: the admit event's claimed parent is
// backed by a LINK edge.
Result<std::vector<sql::Tuple>> DiscoveryEdges(const sql::Table* events,
                                               const sql::Table* link,
                                               sql::ExecEngine engine);

// One hop of a discovery path, root (seed) first.
struct DiscoveryHop {
  int64_t oid = -1;
  int64_t parent_oid = -1;  // -1: this hop is a seed
  std::string url;
  uint64_t admit_seq = 0;   // the admit event's global sequence number
  double priority = 0.0;    // frontier priority at admit time
  // Admit device: 0 = outlink, 1 = §3.2 URL truncation, 2 = §3.2
  // backward crawling.
  int64_t device = 0;
  bool reconciled = false;  // admit synthesized from recovered tables
  // Lifecycle facts accumulated over the hop's whole history.
  int attempts = 0;
  int failures = 0;   // with fault classes in `failure_classes`
  int retries = 0;
  int breaker_denials = 0;
  std::vector<int64_t> failure_classes;  // FailureClass per failure event
  bool visited = false;
  double relevance = 0.0;  // classify verdict (or stored estimate)
};

// Walks `target_oid` back to its seed through first-admit parent edges
// and annotates every hop from the event history. NotFound when the log
// holds no admit event for the target.
Result<std::vector<DiscoveryHop>> DiscoveryPath(const obs::EventLog& log,
                                                const CrawlDb& db,
                                                uint64_t target_oid);

// Human-readable rendering, one line per hop.
std::string FormatDiscoveryPath(const std::vector<DiscoveryHop>& path);

// Registers the crawl-layer admin routes on `server`:
//   /frontier  the frontier's {live, parked, next_ready_us} plus every
//              breaker's state, as JSON.
// `crawler` must outlive the server's accept thread.
void RegisterCrawlAdminEndpoints(obs::AdminServer* server, Crawler* crawler);

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_PROVENANCE_H_
