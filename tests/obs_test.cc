#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace focus::obs {
namespace {

// ---- a minimal JSON validity checker (the tests assert the exporters
// emit parseable documents without pulling in a JSON library) ----

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  // True iff `text` is exactly one valid JSON value (with whitespace).
  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool IsValidJson(std::string_view text) {
  return JsonChecker(text).Valid();
}

TEST(JsonCheckerTest, SanityOnKnownDocuments) {
  EXPECT_TRUE(IsValidJson(R"({"a": [1, 2.5, -3e2, "x\n", true, null]})"));
  EXPECT_FALSE(IsValidJson(R"({"a": )"));
  EXPECT_FALSE(IsValidJson(R"({"a": 1} trailing)"));
  EXPECT_FALSE(IsValidJson("{'a': 1}"));
  EXPECT_FALSE(IsValidJson(R"(["unterminated)"));
}

// ---- JsonWriter ----

TEST(JsonWriterTest, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject()
      .Field("quote", "a\"b")
      .Field("backslash", "a\\b")
      .Field("control", std::string_view("a\nb\tc\x01", 7))
      .Field("num", 42)
      .Field("neg", int64_t{-7})
      .Field("flag", true);
  w.Key("arr").BeginArray().Int(1).Double(2.5).Null().EndArray();
  w.EndObject();
  const std::string& out = w.str();
  EXPECT_TRUE(IsValidJson(out)) << out;
  EXPECT_NE(out.find("\"quote\":\"a\\\"b\""), std::string::npos) << out;
  EXPECT_NE(out.find("a\\\\b"), std::string::npos);
  EXPECT_NE(out.find("a\\nb\\tc\\u0001"), std::string::npos) << out;
  // The const char* overload must not decay to the bool overload.
  EXPECT_EQ(out.find("\"quote\":true"), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray()
      .Double(std::numeric_limits<double>::quiet_NaN())
      .Double(std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ---- histogram math ----

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(7), 3);
  EXPECT_EQ(Histogram::BucketOf(8), 4);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  // Values whose bit_width exceeds the bucket count clamp into the last
  // bucket instead of indexing out of bounds.
  EXPECT_EQ(Histogram::BucketOf(uint64_t{1} << 63), 63);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 63);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(63), ~uint64_t{0});
  // Every value lands inside its bucket's (lower, upper] range.
  for (uint64_t v : {0ull, 1ull, 2ull, 5ull, 100ull, 4096ull, 123456789ull}) {
    int b = Histogram::BucketOf(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, SnapshotCountsAndMean) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  h.Observe(1000);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1011u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1011.0 / 5);
  EXPECT_EQ(snap.counts[0], 1u);                          // the zero
  EXPECT_EQ(snap.counts[1], 1u);                          // 1
  EXPECT_EQ(snap.counts[Histogram::BucketOf(5)], 2u);     // both fives
  EXPECT_EQ(snap.counts[Histogram::BucketOf(1000)], 1u);  // 1000
}

TEST(HistogramTest, QuantilesLandInTheRightBucket) {
  Histogram h;
  // 90 small values (bucket of 3: (1, 3]) and 10 large (bucket of 1000).
  for (int i = 0; i < 90; ++i) h.Observe(3);
  for (int i = 0; i < 10; ++i) h.Observe(1000);
  HistogramSnapshot snap = h.Snapshot();
  double p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 3.0);
  // p95 falls among the large observations: inside (512, 1023].
  double p95 = snap.Quantile(0.95);
  EXPECT_GT(p95, 512.0);
  EXPECT_LE(p95, 1023.0);
  // Degenerate cases.
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
  EXPECT_LE(snap.Quantile(0.0), snap.Quantile(1.0));
}

// ---- registry ----

TEST(MetricsRegistryTest, SameNameAndLabelsSharePointer) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("reqs_total", {{"stage", "fetch"}});
  Counter* b = reg.GetCounter("reqs_total", {{"stage", "fetch"}});
  Counter* c = reg.GetCounter("reqs_total", {{"stage", "classify"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_EQ(c->Value(), 0u);
}

TEST(MetricsRegistryTest, PrometheusTextShape) {
  MetricsRegistry reg;
  reg.GetCounter("focus_pages_total", {{"stage", "fetch"}})->Add(7);
  reg.GetGauge("focus_depth")->Set(2.5);
  Histogram* h = reg.GetHistogram("focus_batch_us");
  h->Observe(3);
  h->Observe(100);
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE focus_pages_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("focus_pages_total{stage=\"fetch\"} 7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE focus_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("focus_batch_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("focus_batch_us_sum 103"), std::string::npos);
  // Cumulative buckets end with an +Inf bucket equal to the count.
  EXPECT_NE(text.find("focus_batch_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, JsonSnapshotIsValid) {
  MetricsRegistry reg;
  reg.GetCounter("c_total", {{"k", "quote\"and\\slash"}})->Inc();
  reg.GetGauge("g")->Set(1.5);
  reg.GetHistogram("h_us")->Observe(42);
  std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, CollectorsAppearAndUnregister) {
  MetricsRegistry reg;
  uint64_t id = reg.AddCollector([](std::vector<GaugeSample>* out) {
    out->push_back(GaugeSample{"pool_frames", {{"pool", "p1"}}, 64});
  });
  EXPECT_NE(reg.ToPrometheusText().find("pool_frames{pool=\"p1\"} 64"),
            std::string::npos);
  reg.RemoveCollector(id);
  EXPECT_EQ(reg.ToPrometheusText().find("pool_frames"), std::string::npos);
}

// Exercised under TSan in CI: writers hammer counters/histograms while a
// reader repeatedly snapshots both exposition formats.
TEST(MetricsRegistryTest, SnapshotDuringConcurrentIncrements) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string text = reg.ToPrometheusText();
      std::string json = reg.ToJson();
      EXPECT_TRUE(IsValidJson(json));
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      Counter* c = reg.GetCounter("work_total",
                                  {{"worker", std::to_string(t)}});
      Histogram* h = reg.GetHistogram("work_us");
      Gauge* g = reg.GetGauge("work_depth");
      for (int i = 0; i < kIters; ++i) {
        c->Inc();
        h->Observe(static_cast<uint64_t>(i));
        g->Set(i);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  uint64_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    total += reg.GetCounter("work_total", {{"worker", std::to_string(t)}})
                 ->Value();
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("work_us")->Snapshot().count,
            static_cast<uint64_t>(kThreads) * kIters);
}

// ---- trace spans ----

TEST(TraceTest, SpansNestAndExportAsChromeJson) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Enable();
  buffer.Clear();
  VirtualClock vclock;
  vclock.AdvanceMicros(1500);
  {
    FOCUS_SPAN("outer");
    {
      FOCUS_SPAN_VT("inner", &vclock);
    }
  }
  buffer.Disable();
  std::vector<SpanEvent> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Ring order is by wall start: outer opened first.
  const SpanEvent* outer = &spans[0];
  const SpanEvent* inner = &spans[1];
  EXPECT_STREQ(outer->name, "outer");
  EXPECT_STREQ(inner->name, "inner");
  // Nesting: the inner span's window sits inside the outer's.
  EXPECT_GE(inner->wall_start_us, outer->wall_start_us);
  EXPECT_LE(inner->wall_start_us + inner->dur_us,
            outer->wall_start_us + outer->dur_us);
  EXPECT_EQ(inner->virtual_us, 1500);
  EXPECT_EQ(outer->virtual_us, -1);

  std::string json = buffer.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"virtual_us\":1500"), std::string::npos) << json;
  buffer.Clear();
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Disable();
  buffer.Clear();
  {
    FOCUS_SPAN("ignored");
  }
  EXPECT_TRUE(buffer.Snapshot().empty());
}

TEST(TraceTest, ConcurrentWritersNeverLoseOrTearSpans) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Enable(64);  // small rings force wraparound under load
  buffer.Clear();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        FOCUS_SPAN("stress");
      }
    });
  }
  // Concurrent readers snapshot and render while the writers hammer the
  // rings — the crash/tear surface the admin /trace endpoint lives on.
  std::atomic<bool> stop{false};
  std::thread reader([&buffer, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<SpanEvent> spans = buffer.Snapshot();
      for (const SpanEvent& s : spans) {
        ASSERT_STREQ(s.name, "stress");  // never a torn/garbage pointer
        ASSERT_GE(s.dur_us, 0);
      }
      std::string json = buffer.ToChromeTraceJson();
      ASSERT_FALSE(json.empty());
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  std::vector<SpanEvent> spans = buffer.Snapshot();
  buffer.Disable();
  buffer.Clear();
  // Every writer thread kept exactly one full ring (wraparound dropped
  // the rest); snapshots stay wall-start ordered.
  EXPECT_EQ(spans.size(), static_cast<size_t>(kThreads) * 64);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].wall_start_us, spans[i - 1].wall_start_us);
  }
}

TEST(TraceTest, RingOverwritesOldestWhenFull) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Enable(4);
  buffer.Clear();
  // A ring's capacity is fixed when its thread first records, so the
  // small capacity needs a thread with no ring yet.
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) {
      FOCUS_SPAN("burst");
    }
  });
  recorder.join();
  std::vector<SpanEvent> spans = buffer.Snapshot();
  buffer.Disable();
  buffer.Clear();
  EXPECT_EQ(spans.size(), 4u);  // only the most recent window survives
}

TEST(EventLogTest, DisabledRecordIsAFreeNoOp) {
  EventLog log;
  log.Record(CrawlEventType::kFetchAttempt, 1, -1, 0, 0, 0.0, 0);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.TotalRecorded(), 0u);
  log.Enable(16);
  log.Record(CrawlEventType::kFetchAttempt, 1, -1, 0, 0, 0.0, 0);
  log.Disable();
  log.Record(CrawlEventType::kFetchAttempt, 2, -1, 0, 0, 0.0, 0);
  std::vector<CrawlEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].oid, 1);
}

TEST(EventLogTest, TypeNamesRoundTrip) {
  for (int32_t v = 0; v <= static_cast<int32_t>(CrawlEventType::kWalReplay);
       ++v) {
    CrawlEventType type = static_cast<CrawlEventType>(v);
    CrawlEventType parsed;
    ASSERT_TRUE(CrawlEventTypeFromName(CrawlEventTypeName(type), &parsed))
        << CrawlEventTypeName(type);
    EXPECT_EQ(parsed, type);
  }
  CrawlEventType ignored;
  EXPECT_FALSE(CrawlEventTypeFromName("bogus", &ignored));
  EXPECT_FALSE(CrawlEventTypeFromName("", &ignored));
}

TEST(EventLogTest, FilterMatchesNegativeOidsExactly) {
  EventLog log;
  log.Enable(64);
  // oids are full-range 64-bit hashes: half of them are negative as
  // int64, so the "all oids" sentinel must be exactly -1, not "oid < 0".
  const int64_t neg = std::numeric_limits<int64_t>::min() + 5;
  log.Record(CrawlEventType::kFrontierAdmit, neg, -1, 0, 0, 0.1, 0);
  log.Record(CrawlEventType::kFrontierAdmit, 7, neg, 0, 1, 0.2, 0);
  log.Record(CrawlEventType::kFetchSuccess, neg, -1, 0, 2, 0.0, 0);

  EventFilter by_oid;
  by_oid.oid = neg;
  std::vector<CrawlEvent> hits = log.Snapshot(by_oid);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].type, CrawlEventType::kFrontierAdmit);
  EXPECT_EQ(hits[1].type, CrawlEventType::kFetchSuccess);

  EventFilter all;  // oid defaults to the -1 sentinel
  EXPECT_EQ(log.Snapshot(all).size(), 3u);

  EventFilter by_type;
  by_type.type = static_cast<int32_t>(CrawlEventType::kFrontierAdmit);
  EXPECT_EQ(log.Snapshot(by_type).size(), 2u);

  EventFilter since;
  since.min_seq = 1;
  EXPECT_EQ(log.Snapshot(since).size(), 2u);

  EventFilter tail;
  tail.limit = 1;  // keeps the LAST event
  std::vector<CrawlEvent> last = log.Snapshot(tail);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].type, CrawlEventType::kFetchSuccess);
}

TEST(EventLogTest, RingWrapKeepsTheNewestWindow) {
  EventLog log;
  log.Enable(4);
  for (int64_t i = 0; i < 10; ++i) {
    log.Record(CrawlEventType::kFetchAttempt, i, -1, 0, i, 0.0, 0);
  }
  EXPECT_EQ(log.TotalRecorded(), 10u);  // monotonic, counts overwritten
  std::vector<CrawlEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].oid, static_cast<int64_t>(6 + i));
  }
}

TEST(EventLogTest, JsonlLinesAreValidJsonWithStableFields) {
  EventLog log;
  log.Enable(16);
  log.Record(CrawlEventType::kFetchFailure, -9, 3, 2, 1234, 0.5, 1);
  log.Record(CrawlEventType::kFrontierAdmit, 4, -9, 2, 1300, 0.9, 0,
             /*reconciled=*/true);
  std::string jsonl = log.ToJsonl();
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    lines.push_back(jsonl.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsValidJson(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"type\":\"fetch_failure\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"oid\":-9"), std::string::npos);
  EXPECT_NE(lines[0].find("\"virtual_us\":1234"), std::string::npos);
  EXPECT_NE(lines[0].find("\"aux\":1"), std::string::npos);
  // "reconciled" appears only on reconciled events.
  EXPECT_EQ(lines[0].find("\"reconciled\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"reconciled\":true"), std::string::npos);
}

TEST(EventLogTest, ClearDropsEventsButSequenceKeepsRising) {
  EventLog log;
  log.Enable(16);
  log.Record(CrawlEventType::kFetchAttempt, 1, -1, 0, 0, 0.0, 0);
  log.Record(CrawlEventType::kFetchAttempt, 2, -1, 0, 0, 0.0, 0);
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  log.Record(CrawlEventType::kFetchAttempt, 3, -1, 0, 0, 0.0, 0);
  std::vector<CrawlEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  // A post-Clear event never reuses a sequence number, so provenance
  // queries can order across sessions if a caller chooses not to clear.
  EXPECT_GE(events[0].seq, 2u);
  EXPECT_EQ(log.TotalRecorded(), 3u);
}

TEST(EventLogTest, InstancesOnOneThreadStayIsolated) {
  EventLog a;
  EventLog b;
  a.Enable(16);
  b.Enable(16);
  a.Record(CrawlEventType::kFetchAttempt, 100, -1, 0, 0, 0.0, 0);
  b.Record(CrawlEventType::kFetchAttempt, 200, -1, 0, 0, 0.0, 0);
  std::vector<CrawlEvent> ea = a.Snapshot();
  std::vector<CrawlEvent> eb = b.Snapshot();
  ASSERT_EQ(ea.size(), 1u);
  ASSERT_EQ(eb.size(), 1u);
  EXPECT_EQ(ea[0].oid, 100);
  EXPECT_EQ(eb[0].oid, 200);
}

TEST(EventLogTest, ConcurrentWritersKeepSequencesUniqueAndRingsBounded) {
  EventLog log;
  log.Enable(128);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 1000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(CrawlEventType::kFetchAttempt, t * kPerThread + i, -1,
                   t, i, 0.0, 0);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(log.TotalRecorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  std::vector<CrawlEvent> events = log.Snapshot();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * 128);
  std::set<uint64_t> seqs;
  for (const CrawlEvent& e : events) {
    EXPECT_TRUE(seqs.insert(e.seq).second) << "duplicate seq " << e.seq;
  }
  // Snapshot is sequence-ordered.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

}  // namespace
}  // namespace focus::obs
