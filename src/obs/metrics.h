// Process-wide metrics: labeled counters, gauges, and log-scale histograms.
//
// The paper's §3.7 sells Focus on watchability — the admin monitors the
// harvest rate and tweaks the crawl mid-flight. This registry is the
// substrate: every layer (crawler stages, classifier batches, distiller
// iterations, buffer pool, disk) registers metrics here, and one snapshot
// call renders them as a Prometheus-style text page or a JSON document.
//
// Hot-path design: registration (name + label lookup) takes a mutex once;
// the returned Counter/Gauge/Histogram pointer is stable for the registry's
// lifetime and its update methods are single relaxed atomic operations —
// fetch workers never serialize on the registry. Snapshots read the same
// atomics with relaxed loads; a snapshot taken during a storm of updates is
// a consistent-enough sample (each individual value is atomic, the set is
// not), which is the standard Prometheus contract.
#ifndef FOCUS_OBS_METRICS_H_
#define FOCUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json_writer.h"

namespace focus::obs {

// Sorted (key, value) label pairs; part of a metric's identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing counter.
class Counter {
 public:
  void Inc() { Add(1); }
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  // counts[i] = observations with bit_width(value) == i, i.e. in
  // [2^(i-1), 2^i - 1]; counts[0] holds zeros. Upper bound of bucket i is
  // 2^i - 1.
  std::vector<uint64_t> counts;

  // Estimated q-quantile (q in [0, 1]): finds the bucket holding the
  // target rank and interpolates linearly inside it.
  double Quantile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

// Log-scale (power-of-two buckets) histogram of non-negative integer
// observations — microsecond latencies, batch sizes, row counts. Fixed 64
// buckets cover the whole uint64 range, so Observe never allocates and is
// two relaxed fetch_adds plus one for the bucket.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Observe(uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  // Bucket index for `value`: 0 for 0, else floor(log2(value)) + 1,
  // clamped to the last bucket (which absorbs values >= 2^62).
  static int BucketOf(uint64_t value);
  // Inclusive upper bound of bucket `i` (2^i - 1; the last bucket
  // saturates to the uint64 maximum).
  static uint64_t BucketUpperBound(int i);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// One sample emitted by a snapshot-time collector callback.
struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide default registry. Components take a MetricsRegistry*
  // and fall back to this when given nullptr.
  static MetricsRegistry& Global();
  // Resolves the conventional "nullptr means global" parameter.
  static MetricsRegistry* OrGlobal(MetricsRegistry* registry) {
    return registry != nullptr ? registry : &Global();
  }

  // Finds or creates the metric (name, labels). The returned pointer is
  // valid for the registry's lifetime. Registering the same (name, labels)
  // under a different type is a programming error and aborts.
  Counter* GetCounter(std::string_view name, Labels labels = {});
  Gauge* GetGauge(std::string_view name, Labels labels = {});
  Histogram* GetHistogram(std::string_view name, Labels labels = {});

  // Registers help text for a metric family, emitted as a "# HELP" line
  // ahead of the family's samples in ToPrometheusText. One string per
  // name (all label sets of a family share it); unregistered families
  // fall back to the name itself so the exposition stays conformant.
  void SetHelp(std::string_view name, std::string_view help);

  // Registers a callback evaluated at snapshot time — the bridge for
  // components that already keep their own stats structs (buffer pool,
  // disk manager). Returns an id for RemoveCollector; collectors must be
  // removed before the objects they capture die.
  uint64_t AddCollector(std::function<void(std::vector<GaugeSample>*)> fn);
  void RemoveCollector(uint64_t id);

  // Prometheus-style text exposition (# TYPE comments, name{labels} value;
  // histograms as cumulative _bucket{le=...}/_sum/_count series).
  std::string ToPrometheusText() const;
  // JSON snapshot: {"schema": 2, "counters": [...], "gauges": [...],
  // "histograms": [...]} with p50/p90/p99 estimates per histogram.
  std::string ToJson() const;

  // Counter values keyed by "name{labels}".
  std::map<std::string, uint64_t> CounterValues() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    // Exactly one is non-null, owned by the deques below.
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  Entry* FindOrCreate(std::string_view name, Labels* labels, Kind kind);
  // Entries sorted by (name, labels), then collector samples, under mu_.
  std::vector<const Entry*> SortedEntries() const;

  mutable std::mutex mu_;
  std::map<std::string, std::string, std::less<>> help_;
  // deques: stable addresses across growth.
  std::deque<Entry> entries_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<std::pair<uint64_t,
                        std::function<void(std::vector<GaugeSample>*)>>>
      collectors_;
  uint64_t next_collector_id_ = 1;
};

// Renders labels as {k="v",...} (empty string for no labels), with label
// values escaped per the Prometheus text exposition format.
std::string FormatLabels(const Labels& labels);

// Prometheus text-format escaping for label values: exactly backslash,
// double-quote and newline are escaped (the format's spec — unlike JSON,
// control characters and non-ASCII pass through verbatim).
std::string PrometheusEscapeLabelValue(std::string_view raw);
// Same for # HELP text, where only backslash and newline are escaped.
std::string PrometheusEscapeHelp(std::string_view raw);

}  // namespace focus::obs

#endif  // FOCUS_OBS_METRICS_H_
