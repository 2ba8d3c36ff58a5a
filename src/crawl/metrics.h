// Measurement helpers behind the paper's evaluation figures.
#ifndef FOCUS_CRAWL_METRICS_H_
#define FOCUS_CRAWL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "crawl/circuit_breaker.h"
#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "crawl/retry_policy.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace focus::crawl {

// A plain-value copy of the pipeline stage counters, safe to read after
// (or during) a crawl.
struct StageMetricsSnapshot {
  uint64_t fetch_micros = 0;      // wall time inside the fetch stage
  uint64_t classify_micros = 0;   // wall time inside the classify stage
  uint64_t expand_micros = 0;     // wall time recording visits + expanding
  uint64_t lock_wait_micros = 0;  // time blocked on the crawl-state lock
  // Time the crawl-state lock was held by the gather, record and
  // fetch-failure sections: the crawl's serial section.
  uint64_t lock_held_micros = 0;
  uint64_t batches = 0;           // classify batches submitted
  uint64_t batched_pages = 0;     // pages across those batches
  uint64_t frontier_pops = 0;     // successful frontier pops
  uint64_t fetch_failures = 0;    // failed fetch attempts (all classes)
  uint64_t retries = 0;           // failures rescheduled with backoff
  uint64_t dropped_urls = 0;      // entries abandoned (404 / budget)
  uint64_t breaker_skips = 0;     // pops re-parked by an open breaker
  uint64_t breaker_opens = 0;     // transitions into the open state

  // Mean pages per classify batch (the batch-occupancy signal: low values
  // mean the fetch stage starves the classifier).
  double AvgBatchOccupancy() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_pages) / batches;
  }
};

// Per-stage counters for the concurrent crawl pipeline (fetch → classify →
// expand), backed by registry counters (focus_crawl_stage_micros_total
// {stage=...} and friends) so the same numbers appear in Prometheus/JSON
// snapshots. Updates are single relaxed fetch_adds — fetch workers never
// serialize on the crawl-state lock (or on each other) to record time.
//
// Registry counters are process-cumulative across crawlers sharing a
// registry; each StageMetrics captures a baseline at construction (and on
// Reset()) and Snapshot() reports deltas since then, preserving the
// per-crawler view the monitor/bench code expects.
class StageMetrics {
 public:
  // nullptr registry means the process-global registry.
  explicit StageMetrics(obs::MetricsRegistry* registry = nullptr);

  void AddFetchMicros(uint64_t us) { fetch_micros_->Add(us); }
  void AddClassifyMicros(uint64_t us) { classify_micros_->Add(us); }
  void AddExpandMicros(uint64_t us) { expand_micros_->Add(us); }
  void AddLockWaitMicros(uint64_t us) { lock_wait_micros_->Add(us); }
  void AddLockHeldMicros(uint64_t us) { lock_held_micros_->Add(us); }
  void RecordBatch(uint64_t pages) {
    batches_->Inc();
    batched_pages_->Add(pages);
    batch_pages_hist_->Observe(pages);
  }
  // Latency of one classifier batch (also kept as a histogram so snapshots
  // report tail behaviour, not just the mean).
  void ObserveClassifyBatchMicros(uint64_t us) {
    batch_micros_hist_->Observe(us);
  }
  void RecordPop() { frontier_pops_->Inc(); }
  void RecordFetchFailure(FailureClass cls) {
    fetch_failures_[static_cast<int>(cls)]->Inc();
  }
  // A failure rescheduled with `backoff_s` seconds of (virtual) delay.
  void RecordRetry(FailureClass cls, double backoff_s) {
    retries_[static_cast<int>(cls)]->Inc();
    backoff_ms_hist_->Observe(backoff_s * 1e3);
  }
  void RecordDrop(bool permanent) {
    (permanent ? dropped_permanent_ : dropped_exhausted_)->Inc();
  }
  void RecordBreakerTransition(BreakerState to) {
    breaker_transitions_[static_cast<int>(to)]->Inc();
  }
  void RecordBreakerSkip() { breaker_skips_->Inc(); }
  // Servers currently quarantined (open or half-open breakers).
  void SetOpenBreakers(double n) { open_breakers_->Set(n); }
  // Instantaneous frontier size (sampled by the record stage).
  void SetFrontierDepth(double depth) { frontier_depth_->Set(depth); }
  // Wall time a batch boundary blocked on a distillation boost whose
  // iterations had not finished by its apply point.
  void AddBoostWaitSeconds(double s) { boost_wait_seconds_->Add(s); }
  // One distillation round's per-iteration L1 residuals: counts the
  // iterations and keeps the final residual as a convergence gauge.
  void RecordDistillResiduals(const std::vector<double>& residuals) {
    distill_iterations_->Add(residuals.size());
    if (!residuals.empty()) distill_residual_->Set(residuals.back());
  }
  // One visited page's relevance. Maintains the paper's harvest-rate signal
  // (§3.4) live: the mean R(p) over the last `kHarvestWindow` visits,
  // exported as the focus_crawl_harvest_rate gauge. Called from the record
  // stage (already serialized on the crawl-state lock), so a small mutex
  // here is off the fetch workers' hot path.
  void RecordVisitRelevance(double r);

  // Deltas since construction (or the last Reset).
  StageMetricsSnapshot Snapshot() const;
  // Re-baselines so the next Snapshot() starts from zero.
  void Reset();

 private:
  StageMetricsSnapshot Raw() const;

  obs::Counter* fetch_micros_;
  obs::Counter* classify_micros_;
  obs::Counter* expand_micros_;
  obs::Counter* lock_wait_micros_;
  obs::Counter* lock_held_micros_;
  obs::Counter* batches_;
  obs::Counter* batched_pages_;
  obs::Counter* frontier_pops_;
  obs::Gauge* frontier_depth_;
  // A monotonic sum of fractional seconds; the registry's counters hold
  // integers, so it is a gauge that only ever grows.
  obs::Gauge* boost_wait_seconds_;
  obs::Counter* distill_iterations_;
  obs::Gauge* distill_residual_;
  obs::Histogram* batch_pages_hist_;
  obs::Histogram* batch_micros_hist_;
  // Fault-model counters, indexed by FailureClass / BreakerState.
  obs::Counter* fetch_failures_[4];
  obs::Counter* retries_[4];
  obs::Counter* dropped_permanent_;
  obs::Counter* dropped_exhausted_;
  obs::Counter* breaker_transitions_[3];
  obs::Counter* breaker_skips_;
  obs::Gauge* open_breakers_;
  obs::Histogram* backoff_ms_hist_;
  // Sliding window behind the harvest-rate gauge.
  static constexpr size_t kHarvestWindow = 256;
  obs::Gauge* harvest_rate_;
  std::mutex harvest_mu_;
  std::vector<double> harvest_ring_;
  size_t harvest_next_ = 0;
  size_t harvest_count_ = 0;
  double harvest_sum_ = 0.0;
  StageMetricsSnapshot baseline_;
};

// Harvest rate (§3.4): moving average of R(p) over a window of fetches.
// Point i covers visits [max(0, i-window+1), i].
std::vector<double> MovingAverageRelevance(const std::vector<Visit>& visits,
                                           int window);

// Coverage (§3.5): after each test-crawl fetch, the fraction of the
// reference sets already visited.
struct CoverageSeries {
  std::vector<double> url_fraction;     // of ref_urls
  std::vector<double> server_fraction;  // of ref_servers
};
CoverageSeries Coverage(const std::vector<Visit>& test_visits,
                        const std::unordered_set<uint64_t>& ref_oids,
                        const std::unordered_set<int32_t>& ref_servers);

// Relevant reference sets from a finished crawl: visited pages with
// log R(u) > log_threshold (the paper uses -1), plus their servers.
struct ReferenceSets {
  std::unordered_set<uint64_t> oids;
  std::unordered_set<int32_t> servers;
};
ReferenceSets RelevantReferenceSets(const std::vector<Visit>& visits,
                                    double log_threshold = -1.0);

// Shortest link distances within the *crawled* graph (LINK table) from
// `sources` to each of `targets`; -1 when unreachable (§3.6).
Result<std::vector<int>> CrawledGraphDistances(
    const CrawlDb& db, const std::vector<uint64_t>& sources,
    const std::vector<uint64_t>& targets);

// Bucket counts of non-negative distances: hist[d] = #targets at distance
// d (distances beyond max_distance are clamped into the last bucket).
std::vector<int> DistanceHistogram(const std::vector<int>& distances,
                                   int max_distance);

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_METRICS_H_
