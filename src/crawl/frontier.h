// Crawl frontier with reconfigurable lexicographic priorities (§3.2).
//
// "New work is checked out from the CRAWL table in the order
//  (numtries ascending, relevance descending, serverload ascending)."
// The frontier is an in-memory priority index over the unvisited rows of
// the CRAWL table; the table remains the source of truth. serverload is
// the paper's "crude and lazily updated" estimate: entries are re-ranked
// only when re-pushed. The policy can be switched mid-crawl (the heap is
// lazily rebuilt via entry versioning).
//
// A Frontier has no lock of its own. The crawler owns one and touches it
// only under its crawl-state lock, so every pop sees one global order.
#ifndef FOCUS_CRAWL_FRONTIER_H_
#define FOCUS_CRAWL_FRONTIER_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace focus::obs {
class EventLog;
}  // namespace focus::obs

namespace focus::crawl {

struct FrontierEntry {
  uint64_t oid = 0;
  std::string url;
  int32_t numtries = 0;
  double relevance = 0;
  int32_t serverload = 0;
  int64_t lastvisited = 0;  // 0 = never
  double hub_score = 0;     // distiller boost / PageRank ordering signal
  int32_t backlinks = 0;    // known citations (Cho et al. ordering)
  uint64_t seq = 0;         // insertion sequence (BFS/FIFO orderings)
  // Not-before time (virtual us): 0 = ready now. Entries with a future
  // ready_at_us are parked — invisible to time-gated pops until a pop's
  // `now_us` reaches it (retry backoff and breaker quarantine land here).
  int64_t ready_at_us = 0;
};

enum class PriorityPolicy {
  // (numtries asc, relevance desc, serverload asc) — §3.2's aggressive
  // resource discovery order. The soft-focus crawler's default.
  kAggressiveDiscovery,
  // FIFO — the "standard crawler" baseline of Figure 5(a).
  kBreadthFirst,
  // (lastvisited asc, hub_score desc) — crawl maintenance ordering;
  // never-visited entries (lastvisited = 0) sort last.
  kRevisitHubs,
  // (numtries desc, relevance desc) — picking off timeouts/dead links.
  kRetryDeadLinks,
  // Content-blind prestige orderings from Cho, Garcia-Molina & Page
  // (§1.4's contrast: "PageRank has no notion of page content"):
  // (backlinks desc) — most-cited-first.
  kBacklinkCount,
  // (hub_score desc) where hub_score carries the latest PageRank of the
  // known crawl graph (refreshed periodically by the crawler).
  kPageRankOrder,
};

const char* PolicyName(PriorityPolicy policy);

struct FrontierCensus {
  size_t live = 0;    // entries in the frontier (ready + parked)
  size_t parked = 0;  // entries gated behind a not-before time
  // Earliest parked ready_at_us; -1 when nothing is parked.
  int64_t next_ready_us = -1;
};

// Pops with this deadline see every entry, parked or not (the default, so
// fault-free crawls behave exactly as before the not-before queue).
inline constexpr int64_t kNoTimeGate =
    std::numeric_limits<int64_t>::max();

class Frontier {
 public:
  explicit Frontier(PriorityPolicy policy = PriorityPolicy::
                        kAggressiveDiscovery)
      : policy_(policy) {}

  // Inserts or re-ranks `entry` (keyed by oid). Entries with a future
  // ready_at_us go to the parked queue.
  void AddOrUpdate(const FrontierEntry& entry);

  // Re-ranks the live entry `oid` in place: `edit(FrontierEntry*)` changes
  // its ranking fields (never oid or seq), and the entry is pushed again
  // under a new version, exactly as AddOrUpdate with the edited copy
  // would, without copying its URL. Returns false, and does not call
  // `edit`, when `oid` is not live.
  template <typename Edit>
  bool Rerank(uint64_t oid, Edit&& edit) {
    auto it = live_.find(oid);
    if (it == live_.end()) return false;
    edit(&it->second.second);
    Push(&it->second);
    return true;
  }

  // Removes and returns the best entry whose ready_at_us <= now_us, or
  // nullopt when none qualifies.
  std::optional<FrontierEntry> PopBest(int64_t now_us = kNoTimeGate);

  // Earliest ready_at_us among parked (not yet promoted) entries; nullopt
  // when nothing is parked. Lets an idle crawler fast-forward its virtual
  // clock instead of spinning.
  std::optional<int64_t> NextReadyMicros();

  // Removes `oid` from the frontier (e.g. once visited).
  void Erase(uint64_t oid);

  const FrontierEntry* Peek(uint64_t oid) const;

  // Copies of every live entry (used to refresh ordering signals in bulk).
  std::vector<FrontierEntry> Snapshot() const;

  // Switches the ordering; existing entries are re-ranked.
  void SetPolicy(PriorityPolicy policy);
  PriorityPolicy policy() const { return policy_; }

  size_t size() const { return live_.size(); }
  bool empty() const { return live_.empty(); }

  // Provenance hook: parked→ready promotions record kFrontierPromote
  // events. nullptr (the default) disables.
  void SetEventLog(obs::EventLog* log) { event_log_ = log; }

  // One exact pass over the live entries (unlike NextReadyMicros, which
  // reads the lazily-cleaned parked heap): for the admin /frontier endpoint.
  FrontierCensus Census() const;

 private:
  // A heap item carries only the fields HeapLess ranks by; the URL and
  // the rest of the entry stay in live_.
  struct HeapItem {
    uint64_t oid;
    uint64_t version;
    uint64_t seq;
    double relevance;
    double hub_score;
    int64_t lastvisited;
    int32_t numtries;
    int32_t serverload;
    int32_t backlinks;
  };
  static HeapItem ItemOf(uint64_t oid, uint64_t version,
                         const FrontierEntry& e) {
    return HeapItem{oid,          version,     e.seq,
                    e.relevance,  e.hub_score, e.lastvisited,
                    e.numtries,   e.serverload, e.backlinks};
  }
  struct HeapLess {
    PriorityPolicy policy;
    bool operator()(const HeapItem& a, const HeapItem& b) const;
  };

  struct ParkedItem {
    uint64_t oid;
    uint64_t version;
    int64_t ready_at_us;
  };
  struct ParkedLater {  // min-heap on ready_at_us (oid tie-break)
    bool operator()(const ParkedItem& a, const ParkedItem& b) const {
      if (a.ready_at_us != b.ready_at_us) {
        return a.ready_at_us > b.ready_at_us;
      }
      return a.oid > b.oid;
    }
  };

  // Gives a live (version, entry) a new version and queues it: parked
  // while its ready_at_us lies ahead, else in the main heap.
  void Push(std::pair<uint64_t, FrontierEntry>* versioned);
  void RebuildHeap();
  // Moves parked entries whose ready time has arrived into the main heap.
  void Promote(int64_t now_us);
  // Discards stale items from the parked-heap top.
  void CleanParkedTop();

  PriorityPolicy policy_;
  obs::EventLog* event_log_ = nullptr;
  // oid -> (current version, entry). Heap items with stale versions are
  // discarded on pop.
  std::unordered_map<uint64_t, std::pair<uint64_t, FrontierEntry>> live_;
  std::vector<HeapItem> heap_;
  // Min-heap of not-yet-ready entries, by ready_at_us.
  std::vector<ParkedItem> parked_;
  uint64_t next_version_ = 1;
  uint64_t next_seq_ = 1;
};

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_FRONTIER_H_
