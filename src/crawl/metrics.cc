#include "crawl/metrics.h"

#include <cmath>
#include <deque>
#include <unordered_map>

#include "crawl/crawl_db.h"

namespace focus::crawl {

StageMetrics::StageMetrics(obs::MetricsRegistry* registry) {
  obs::MetricsRegistry* r = obs::MetricsRegistry::OrGlobal(registry);
  auto stage = [&](const char* name) {
    return r->GetCounter("focus_crawl_stage_micros_total",
                         {{"stage", name}});
  };
  fetch_micros_ = stage("fetch");
  classify_micros_ = stage("classify");
  expand_micros_ = stage("expand");
  lock_wait_micros_ = stage("lock_wait");
  lock_held_micros_ = stage("lock_held");
  batches_ = r->GetCounter("focus_crawl_classify_batches_total");
  batched_pages_ = r->GetCounter("focus_crawl_classify_pages_total");
  frontier_pops_ = r->GetCounter("focus_crawl_frontier_pops_total");
  frontier_depth_ = r->GetGauge("focus_crawl_frontier_depth");
  boost_wait_seconds_ = r->GetGauge("focus_crawl_boost_wait_seconds_total");
  distill_iterations_ = r->GetCounter("focus_distill_iterations_total");
  distill_residual_ = r->GetGauge("focus_distill_last_residual");
  batch_pages_hist_ = r->GetHistogram("focus_crawl_classify_batch_pages");
  batch_micros_hist_ = r->GetHistogram("focus_crawl_classify_batch_micros");
  for (int c = 0; c < 4; ++c) {
    const char* cls = FailureClassName(static_cast<FailureClass>(c));
    fetch_failures_[c] = r->GetCounter("focus_crawl_fetch_failures_total",
                                       {{"class", cls}});
    retries_[c] = r->GetCounter("focus_crawl_retries_total", {{"class", cls}});
  }
  dropped_permanent_ = r->GetCounter("focus_crawl_dropped_urls_total",
                                     {{"reason", "permanent"}});
  dropped_exhausted_ = r->GetCounter("focus_crawl_dropped_urls_total",
                                     {{"reason", "budget_exhausted"}});
  for (int s = 0; s < 3; ++s) {
    breaker_transitions_[s] =
        r->GetCounter("focus_crawl_breaker_transitions_total",
                      {{"to", BreakerStateName(static_cast<BreakerState>(s))}});
  }
  breaker_skips_ = r->GetCounter("focus_crawl_breaker_skips_total");
  open_breakers_ = r->GetGauge("focus_crawl_open_breakers");
  backoff_ms_hist_ = r->GetHistogram("focus_crawl_backoff_delay_ms");
  harvest_rate_ = r->GetGauge("focus_crawl_harvest_rate");
  harvest_ring_.assign(kHarvestWindow, 0.0);
  r->SetHelp("focus_crawl_harvest_rate",
             "Mean relevance over the last 256 visited pages (the paper's "
             "sliding-window harvest-rate signal).");
  r->SetHelp("focus_crawl_stage_micros_total",
             "Wall microseconds spent inside each crawl pipeline stage.");
  r->SetHelp("focus_crawl_fetch_failures_total",
             "Failed fetch attempts by fault class.");
  r->SetHelp("focus_crawl_retries_total",
             "Failures rescheduled with backoff, by fault class.");
  r->SetHelp("focus_crawl_breaker_transitions_total",
             "Circuit-breaker state transitions by target state.");
  Reset();
}

void StageMetrics::RecordVisitRelevance(double r) {
  std::lock_guard<std::mutex> lock(harvest_mu_);
  if (harvest_count_ < kHarvestWindow) {
    ++harvest_count_;
  } else {
    harvest_sum_ -= harvest_ring_[harvest_next_];
  }
  harvest_ring_[harvest_next_] = r;
  harvest_next_ = (harvest_next_ + 1) % kHarvestWindow;
  harvest_sum_ += r;
  harvest_rate_->Set(harvest_sum_ / static_cast<double>(harvest_count_));
}

StageMetricsSnapshot StageMetrics::Raw() const {
  StageMetricsSnapshot s;
  s.fetch_micros = fetch_micros_->Value();
  s.classify_micros = classify_micros_->Value();
  s.expand_micros = expand_micros_->Value();
  s.lock_wait_micros = lock_wait_micros_->Value();
  s.lock_held_micros = lock_held_micros_->Value();
  s.batches = batches_->Value();
  s.batched_pages = batched_pages_->Value();
  s.frontier_pops = frontier_pops_->Value();
  for (int c = 0; c < 4; ++c) {
    s.fetch_failures += fetch_failures_[c]->Value();
    s.retries += retries_[c]->Value();
  }
  s.dropped_urls = dropped_permanent_->Value() + dropped_exhausted_->Value();
  s.breaker_skips = breaker_skips_->Value();
  s.breaker_opens =
      breaker_transitions_[static_cast<int>(BreakerState::kOpen)]->Value();
  return s;
}

StageMetricsSnapshot StageMetrics::Snapshot() const {
  StageMetricsSnapshot s = Raw();
  s.fetch_micros -= baseline_.fetch_micros;
  s.classify_micros -= baseline_.classify_micros;
  s.expand_micros -= baseline_.expand_micros;
  s.lock_wait_micros -= baseline_.lock_wait_micros;
  s.lock_held_micros -= baseline_.lock_held_micros;
  s.batches -= baseline_.batches;
  s.batched_pages -= baseline_.batched_pages;
  s.frontier_pops -= baseline_.frontier_pops;
  s.fetch_failures -= baseline_.fetch_failures;
  s.retries -= baseline_.retries;
  s.dropped_urls -= baseline_.dropped_urls;
  s.breaker_skips -= baseline_.breaker_skips;
  s.breaker_opens -= baseline_.breaker_opens;
  return s;
}

void StageMetrics::Reset() { baseline_ = Raw(); }

std::vector<double> MovingAverageRelevance(const std::vector<Visit>& visits,
                                           int window) {
  std::vector<double> out;
  out.reserve(visits.size());
  double sum = 0;
  for (size_t i = 0; i < visits.size(); ++i) {
    sum += visits[i].relevance;
    if (i >= static_cast<size_t>(window)) {
      sum -= visits[i - window].relevance;
      out.push_back(sum / window);
    } else {
      out.push_back(sum / static_cast<double>(i + 1));
    }
  }
  return out;
}

CoverageSeries Coverage(const std::vector<Visit>& test_visits,
                        const std::unordered_set<uint64_t>& ref_oids,
                        const std::unordered_set<int32_t>& ref_servers) {
  CoverageSeries series;
  series.url_fraction.reserve(test_visits.size());
  series.server_fraction.reserve(test_visits.size());
  std::unordered_set<uint64_t> seen_oids;
  std::unordered_set<int32_t> seen_servers;
  size_t url_hits = 0, server_hits = 0;
  for (const Visit& v : test_visits) {
    if (ref_oids.contains(v.oid) && seen_oids.insert(v.oid).second) {
      ++url_hits;
    }
    int32_t sid = ServerIdOf(v.url);
    if (ref_servers.contains(sid) && seen_servers.insert(sid).second) {
      ++server_hits;
    }
    series.url_fraction.push_back(
        ref_oids.empty() ? 0.0
                         : static_cast<double>(url_hits) / ref_oids.size());
    series.server_fraction.push_back(
        ref_servers.empty()
            ? 0.0
            : static_cast<double>(server_hits) / ref_servers.size());
  }
  return series;
}

ReferenceSets RelevantReferenceSets(const std::vector<Visit>& visits,
                                    double log_threshold) {
  ReferenceSets sets;
  double threshold = std::exp(log_threshold);
  for (const Visit& v : visits) {
    if (v.relevance > threshold) {
      sets.oids.insert(v.oid);
      sets.servers.insert(ServerIdOf(v.url));
    }
  }
  return sets;
}

Result<std::vector<int>> CrawledGraphDistances(
    const CrawlDb& db, const std::vector<uint64_t>& sources,
    const std::vector<uint64_t>& targets) {
  // Adjacency from the LINK table.
  std::unordered_map<uint64_t, std::vector<uint64_t>> adj;
  {
    auto it = db.link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      adj[static_cast<uint64_t>(row.Get(0).AsInt64())].push_back(
          static_cast<uint64_t>(row.Get(2).AsInt64()));
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  std::unordered_map<uint64_t, int> dist;
  std::deque<uint64_t> queue;
  for (uint64_t s : sources) {
    if (dist.emplace(s, 0).second) queue.push_back(s);
  }
  while (!queue.empty()) {
    uint64_t u = queue.front();
    queue.pop_front();
    auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (uint64_t v : it->second) {
      if (dist.emplace(v, dist[u] + 1).second) queue.push_back(v);
    }
  }
  std::vector<int> out;
  out.reserve(targets.size());
  for (uint64_t t : targets) {
    auto it = dist.find(t);
    out.push_back(it == dist.end() ? -1 : it->second);
  }
  return out;
}

std::vector<int> DistanceHistogram(const std::vector<int>& distances,
                                   int max_distance) {
  std::vector<int> hist(max_distance + 1, 0);
  for (int d : distances) {
    if (d < 0) continue;
    ++hist[std::min(d, max_distance)];
  }
  return hist;
}

}  // namespace focus::crawl
