// Crawl provenance: discovery-path reconstruction from the event log.
//
// DiscoveryPath composes the crawler's event history into the full
// seed → ... → URL story (attempts, fault classes, retries, breaker
// denials per hop) — including for crawls resumed after a crash, where
// admits are reconciled from the WAL-recovered tables.
#ifndef FOCUS_CRAWL_PROVENANCE_H_
#define FOCUS_CRAWL_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crawl/crawl_db.h"
#include "obs/event_log.h"
#include "util/status.h"

namespace focus::obs {
class AdminServer;
}  // namespace focus::obs

namespace focus::crawl {

class Crawler;

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
