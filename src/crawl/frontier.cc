#include "crawl/frontier.h"

#include <algorithm>
#include <limits>

#include "obs/event_log.h"

namespace focus::crawl {

const char* PolicyName(PriorityPolicy policy) {
  switch (policy) {
    case PriorityPolicy::kAggressiveDiscovery:
      return "aggressive_discovery";
    case PriorityPolicy::kBreadthFirst:
      return "breadth_first";
    case PriorityPolicy::kRevisitHubs:
      return "revisit_hubs";
    case PriorityPolicy::kRetryDeadLinks:
      return "retry_dead_links";
    case PriorityPolicy::kBacklinkCount:
      return "backlink_count";
    case PriorityPolicy::kPageRankOrder:
      return "pagerank_order";
  }
  return "?";
}

// Returns true when `a` has *lower* priority than `b` (max-heap on
// priority). Ties always break on seq then oid for determinism.
bool Frontier::HeapLess::operator()(const HeapItem& a,
                                    const HeapItem& b) const {
  const HeapItem& x = a;
  const HeapItem& y = b;
  auto tie = [&] {
    if (x.seq != y.seq) return x.seq > y.seq;
    return x.oid > y.oid;
  };
  switch (policy) {
    case PriorityPolicy::kAggressiveDiscovery: {
      if (x.numtries != y.numtries) return x.numtries > y.numtries;
      if (x.relevance != y.relevance) return x.relevance < y.relevance;
      // serverload is a politeness signal ("crude and lazily updated"),
      // not a fine ranking: compare in coarse buckets so lightly-loaded
      // servers tie and FIFO order decides among them.
      int32_t xload = x.serverload / 8, yload = y.serverload / 8;
      if (xload != yload) return xload > yload;
      return tie();
    }
    case PriorityPolicy::kBreadthFirst:
      return tie();
    case PriorityPolicy::kRevisitHubs: {
      // Maintenance ordering: stalest visited pages first; never-visited
      // entries (lastvisited = 0) are not maintenance targets and sort
      // last.
      int64_t lx = x.lastvisited == 0
                       ? std::numeric_limits<int64_t>::max()
                       : x.lastvisited;
      int64_t ly = y.lastvisited == 0
                       ? std::numeric_limits<int64_t>::max()
                       : y.lastvisited;
      if (lx != ly) return lx > ly;
      if (x.hub_score != y.hub_score) return x.hub_score < y.hub_score;
      return tie();
    }
    case PriorityPolicy::kRetryDeadLinks:
      if (x.numtries != y.numtries) return x.numtries < y.numtries;
      if (x.relevance != y.relevance) return x.relevance < y.relevance;
      return tie();
    case PriorityPolicy::kBacklinkCount:
      if (x.backlinks != y.backlinks) return x.backlinks < y.backlinks;
      return tie();
    case PriorityPolicy::kPageRankOrder:
      if (x.hub_score != y.hub_score) return x.hub_score < y.hub_score;
      return tie();
  }
  return tie();
}

void Frontier::AddOrUpdate(const FrontierEntry& entry) {
  auto [it, inserted] = live_.try_emplace(entry.oid);
  uint64_t seq = entry.seq;
  if (!inserted) {
    seq = it->second.second.seq;  // preserve insertion order
  } else if (seq == 0) {
    seq = next_seq_++;
  } else {
    next_seq_ = std::max(next_seq_, seq + 1);
  }
  it->second.second = entry;
  it->second.second.seq = seq;
  Push(&it->second);
}

void Frontier::Push(std::pair<uint64_t, FrontierEntry>* versioned) {
  const uint64_t version = next_version_++;
  versioned->first = version;
  const FrontierEntry& e = versioned->second;
  if (e.ready_at_us > 0) {
    parked_.push_back(ParkedItem{e.oid, version, e.ready_at_us});
    std::push_heap(parked_.begin(), parked_.end(), ParkedLater{});
  } else {
    heap_.push_back(ItemOf(e.oid, version, e));
    std::push_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
  }
}

std::optional<FrontierEntry> Frontier::PopBest(int64_t now_us) {
  Promote(now_us);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
    const HeapItem item = heap_.back();
    heap_.pop_back();
    auto it = live_.find(item.oid);
    if (it == live_.end() || it->second.first != item.version) {
      continue;  // stale
    }
    FrontierEntry entry = std::move(it->second.second);
    live_.erase(it);
    return entry;
  }
  return std::nullopt;
}

void Frontier::CleanParkedTop() {
  while (!parked_.empty()) {
    const ParkedItem& top = parked_.front();
    auto it = live_.find(top.oid);
    if (it != live_.end() && it->second.first == top.version) return;
    std::pop_heap(parked_.begin(), parked_.end(), ParkedLater{});
    parked_.pop_back();
  }
}

void Frontier::Promote(int64_t now_us) {
  while (true) {
    CleanParkedTop();
    if (parked_.empty() || parked_.front().ready_at_us > now_us) return;
    std::pop_heap(parked_.begin(), parked_.end(), ParkedLater{});
    ParkedItem item = parked_.back();
    parked_.pop_back();
    auto it = live_.find(item.oid);
    if (it == live_.end() || it->second.first != item.version) continue;
    // The entry is ready now; clear the gate so later re-ranks (which copy
    // the live entry) don't re-park it.
    it->second.second.ready_at_us = 0;
    heap_.push_back(ItemOf(item.oid, item.version, it->second.second));
    std::push_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
    if (event_log_ != nullptr) {
      // now_us = the pop deadline that surfaced the entry; aux = the
      // not-before time it had been parked behind.
      event_log_->Record(obs::CrawlEventType::kFrontierPromote,
                         static_cast<int64_t>(item.oid), /*parent_oid=*/-1,
                         /*sid=*/-1,
                         /*virtual_us=*/now_us == kNoTimeGate ? -1 : now_us,
                         /*value=*/0.0, /*aux=*/item.ready_at_us);
    }
  }
}

FrontierCensus Frontier::Census() const {
  FrontierCensus c;
  c.live = live_.size();
  for (const auto& [oid, versioned] : live_) {
    int64_t at = versioned.second.ready_at_us;
    if (at <= 0) continue;
    ++c.parked;
    if (c.next_ready_us < 0 || at < c.next_ready_us) c.next_ready_us = at;
  }
  return c;
}

std::optional<int64_t> Frontier::NextReadyMicros() {
  CleanParkedTop();
  if (parked_.empty()) return std::nullopt;
  return parked_.front().ready_at_us;
}

void Frontier::Erase(uint64_t oid) { live_.erase(oid); }

std::vector<FrontierEntry> Frontier::Snapshot() const {
  std::vector<FrontierEntry> out;
  out.reserve(live_.size());
  for (const auto& [oid, versioned] : live_) {
    out.push_back(versioned.second);
  }
  return out;
}

const FrontierEntry* Frontier::Peek(uint64_t oid) const {
  auto it = live_.find(oid);
  return it == live_.end() ? nullptr : &it->second.second;
}

void Frontier::SetPolicy(PriorityPolicy policy) {
  policy_ = policy;
  RebuildHeap();
}

void Frontier::RebuildHeap() {
  heap_.clear();
  heap_.reserve(live_.size());
  parked_.clear();
  for (const auto& [oid, versioned] : live_) {
    if (versioned.second.ready_at_us > 0) {
      parked_.push_back(
          ParkedItem{oid, versioned.first, versioned.second.ready_at_us});
    } else {
      heap_.push_back(ItemOf(oid, versioned.first, versioned.second));
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
  std::make_heap(parked_.begin(), parked_.end(), ParkedLater{});
}

}  // namespace focus::crawl
