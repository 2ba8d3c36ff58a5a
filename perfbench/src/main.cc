// focus_perfbench: the repository benchmark's measuring program.
//
//   focus_perfbench --workload crawl_pipeline|crawl_serial|distill_query
//                   --seed N --seconds S --trace 0|1 --dir DIR
//
// Builds the paper-configuration session (paper_config.h) on the full
// simulated web, with inputs drawn from --seed, runs the workload for about
// S seconds, checks its outputs, and prints one JSON line of raw metric
// values: {"correct", "attempted", "failed", "errors", "metrics"}. Units,
// the metric catalog and BENCHMARK.json live in run.py, which builds and
// drives this program; perfbench/README.md describes the workloads.
//
// --trace 0 measures the end-to-end metrics with no instrumentation in the
// timed path. --trace 1 pairs every untraced repetition with a traced one
// on the same input: the traced ones run through the timing decorators
// (timing.h) with trace spans on, and give the per-layer metrics plus the
// tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "crawl/metrics.h"
#include "distill/distiller.h"
#include "distill/hits.h"
#include "distill/join_distiller.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paper_config.h"
#include "text/document.h"
#include "timing.h"
#include "util/clock.h"
#include "util/logging.h"

namespace focus::perfbench {
namespace {

// --- workload parameters (see README.md for why each value) ---
constexpr int kSetupReps = 5;          // distill_query set-ups; median
constexpr int kMinReps = 3;            // crawl repetitions per run, at least
constexpr int kPipelineThreads = 4;
constexpr int kPipelineBudget = 4000;  // pages per crawl_pipeline crawl
constexpr int kSerialBudget = 2000;    // pages per crawl_serial crawl
constexpr int kDistillEvery = 1500;    // boost schedule of both crawls
constexpr int kGraphBudget = 8000;     // pages of distill_query's graph
constexpr size_t kCrawlFrames = 4096;  // crawl store pool (fits)
constexpr size_t kQueryFrames = 512;   // distill_query pool (does not fit)
constexpr int kQueryIterations = 5;    // HITS iterations per query
constexpr double kQueryRho = 0.1;      // crawl workloads' queries
constexpr uint64_t kGraphSeed = 8;     // distill_query's fixed graph
constexpr int kTopK = 20;
constexpr int kWarmupQueries = 1;      // per store; the oracle ran first
constexpr int kJudgeSample = 64;       // BulkProbe-vs-in-memory sample
constexpr double kClosureTolerance = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  if (args->dir.empty()) {
    args->dir = ".bench_run/" + args->workload + "-" +
                std::to_string(::getpid());
  }
  return args->workload == "crawl_pipeline" ||
         args->workload == "crawl_serial" || args->workload == "distill_query";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// What the run prints: operation counts, check failures and raw metrics.
struct Output {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;

  void Fail(const std::string& what, uint64_t ops = 0) {
    errors.push_back(what);
    failed += ops;
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"errors\": [",
                errors.empty() ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < errors.size(); ++i) {
      std::string escaped;
      for (char c : errors[i]) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += (c == '\n' ? ' ' : c);
      }
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", escaped.c_str());
    }
    std::printf("], \"metrics\": {");
    bool first = true;
    for (const auto& [name, value] : metrics) {
      std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0);
      first = false;
    }
    std::printf("}}\n");
  }
};

// Sets every per-layer metric to 0 ("not exercised by this workload");
// each workload then overwrites the layers it runs.
void ZeroLayerMetrics(Output* out) {
  for (const char* name :
       {"webgraph.fetch_s", "crawl.gather_s", "crawl.lock_wait_s",
        "crawl.record_s", "crawl.batch_occupancy", "crawl.virtual_pages_per_s",
        "crawl.other_s", "classify.busy_s", "classify.wait_s",
        "classify.batch_ms_p50", "classify.batch_ms_p90",
        "classify.ms_per_page", "distill.boosts", "distill.boost_s",
        "distill.queries", "distill.refresh_s", "distill.init_s",
        "distill.iter_s", "distill.iter_ms_p50", "distill.iter_ms_p90",
        "distill.topk_s", "storage.pool_hit_ratio", "storage.pool_misses",
        "storage.pool_read_s", "storage.readahead_used_frac",
        "storage.pages_written", "storage.pool_write_s", "wal.syncs",
        "wal.sync_s", "wal.sync_ms_p99", "wal.commits_per_page",
        "wal.log_kib_per_page", "wal.log_write_s", "wal.data_write_s",
        "wal.recover_s", "obs.trace_overhead_frac"}) {
    out->Set(name, 0.0);
  }
}

// ---------------------------------------------------------------------
// The "best hubs and authorities now" query (Figure 8(d)).

using Ranking = std::vector<std::pair<uint64_t, double>>;

struct QueryResult {
  Ranking hubs;
  Ranking authorities;
  bool operator==(const QueryResult& o) const {
    return hubs == o.hubs && authorities == o.authorities;
  }
};

// Per-phase wall and buffer-pool I/O time of one traced query.
struct QueryTrace {
  struct Phase {
    int64_t wall_ns = 0;
    IoSnapshot io;  // pool -> WAL I/O inside the phase
    int64_t self_ns() const { return wall_ns - io.read_ns - io.write_ns; }
  };
  Phase refresh, init, iterations, topk;
  std::vector<double> iteration_ms;  // each RunIteration, inclusive
  storage::BufferPool::Stats pool;   // pool counters over the query

  int64_t wall_ns() const {
    return refresh.wall_ns + init.wall_ns + iterations.wall_ns + topk.wall_ns;
  }
  IoSnapshot io() const {
    IoSnapshot s = refresh.io;
    for (const Phase* p : {&init, &iterations, &topk}) {
      s.read_ns += p->io.read_ns;
      s.write_ns += p->io.write_ns;
      s.writes += p->io.writes;
    }
    return s;
  }
};

Result<Ranking> TopScores(const sql::Table* table) {
  FOCUS_ASSIGN_OR_RETURN(auto scores, distill::CollectScores(table));
  std::unordered_map<uint64_t, distill::HubAuthScore> wrapped;
  for (const auto& [oid, s] : scores) wrapped[oid].hub = s;
  return distill::HitsEngine::TopHubs(wrapped, kTopK);
}

// Refreshes edge weights, runs Initialize + kQueryIterations join-distiller
// iterations (authority threshold `rho`) on `engine`, and returns the
// top-k hubs and authorities. With `trace` (and a timed store) records
// each phase.
Result<QueryResult> RunQuery(Store* store, const distill::DistillTables& t,
                             double rho, sql::ExecEngine engine,
                             QueryTrace* trace) {
  const TimedDisk* io = store->pool_io();
  storage::BufferPool::Stats pool0 = store->pool().stats();
  int64_t t0 = NowNs();
  IoSnapshot io0 = io != nullptr ? io->Snapshot() : IoSnapshot{};
  auto close_phase = [&](QueryTrace::Phase* phase) {
    int64_t t1 = NowNs();
    IoSnapshot io1 = io != nullptr ? io->Snapshot() : IoSnapshot{};
    phase->wall_ns += t1 - t0;
    IoSnapshot d = io1 - io0;
    phase->io.read_ns += d.read_ns;
    phase->io.write_ns += d.write_ns;
    phase->io.writes += d.writes;
    t0 = t1;
    io0 = io1;
  };
  QueryTrace scratch;
  QueryTrace* tr = trace != nullptr ? trace : &scratch;

  FOCUS_RETURN_IF_ERROR(store->db().RefreshEdgeWeights());
  close_phase(&tr->refresh);
  distill::JoinDistiller distiller(t);
  distiller.SetEngine(engine);
  FOCUS_RETURN_IF_ERROR(distiller.Initialize());
  close_phase(&tr->init);
  for (int i = 0; i < kQueryIterations; ++i) {
    int64_t start = NowNs();
    FOCUS_RETURN_IF_ERROR(distiller.RunIteration(rho));
    tr->iteration_ms.push_back((NowNs() - start) * 1e-6);
  }
  close_phase(&tr->iterations);
  QueryResult result;
  FOCUS_ASSIGN_OR_RETURN(result.hubs, TopScores(t.hubs));
  FOCUS_ASSIGN_OR_RETURN(result.authorities, TopScores(t.auth));
  close_phase(&tr->topk);
  tr->pool = store->pool().stats() - pool0;
  return result;
}

// Per-layer distill/storage metrics from traced queries. The phase split
// (parts that sum to a query's latency) is that of the median-latency
// query; counts and percentiles cover every traced query.
void EmitQueryLayers(const std::vector<QueryTrace>& traces, Output* out) {
  if (traces.empty()) return;
  std::vector<const QueryTrace*> by_wall;
  std::vector<double> misses, iteration_ms;
  storage::BufferPool::Stats pool;
  for (const QueryTrace& q : traces) {
    by_wall.push_back(&q);
    misses.push_back(static_cast<double>(q.pool.misses));
    iteration_ms.insert(iteration_ms.end(), q.iteration_ms.begin(),
                        q.iteration_ms.end());
    pool.fetches += q.pool.fetches;
    pool.hits += q.pool.hits;
    pool.readahead_issued += q.pool.readahead_issued;
    pool.readahead_used += q.pool.readahead_used;
  }
  std::sort(by_wall.begin(), by_wall.end(), [](auto* a, auto* b) {
    return a->wall_ns() < b->wall_ns();
  });
  const QueryTrace& median = *by_wall[by_wall.size() / 2];
  IoSnapshot io = median.io();
  out->Set("distill.refresh_s", Seconds(median.refresh.self_ns()));
  out->Set("distill.init_s", Seconds(median.init.self_ns()));
  out->Set("distill.iter_s", Seconds(median.iterations.self_ns()));
  out->Set("distill.topk_s", Seconds(median.topk.self_ns()));
  out->Set("storage.pool_read_s", Seconds(io.read_ns));
  out->Set("storage.pool_write_s", Seconds(io.write_ns));
  out->Set("storage.pages_written", static_cast<double>(io.writes));
  out->Set("distill.iter_ms_p50", Percentile(iteration_ms, 50));
  out->Set("distill.iter_ms_p90", Percentile(iteration_ms, 90));
  out->Set("storage.pool_misses", Mean(misses));
  out->Set("storage.pool_hit_ratio", pool.hit_ratio());
  out->Set("storage.readahead_used_frac",
           pool.readahead_issued == 0
               ? 0.0
               : static_cast<double>(pool.readahead_used) /
                     pool.readahead_issued);
}

// ---------------------------------------------------------------------
// Crawls.

// One crawl and everything it ran on; alive until the next one replaces
// it, so the checks can inspect the last crawl's store.
struct CrawlSession {
  obs::MetricsRegistry registry;
  obs::EventLog events;
  std::unique_ptr<TimedEvaluator> timed_evaluator;
  std::unique_ptr<Store> store;
  std::unique_ptr<crawl::Crawler> crawler;
  int threads = 1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<obs::SpanEvent> spans;

  double wall_s() const { return Seconds(end_ns - start_ns); }
};

struct CrawlSpec {
  int threads = 1;
  int budget = 0;
  int distill_every = 0;
  // Commit every crawl batch through the WAL (fdatasync per commit).
  bool durable = true;
};

// Runs one crawl on a fresh store at `base`. Traced crawls go through the
// timing decorators, record trace spans and (single-threaded) the
// provenance event log, whose wall stamps bound the fetch and record
// stages of Crawler::Step.
Result<std::unique_ptr<CrawlSession>> RunCrawl(World* world,
                                               const CrawlSpec& spec,
                                               const std::string& base,
                                               bool traced) {
  auto s = std::make_unique<CrawlSession>();
  s->threads = spec.threads;
  Store::Options store_options;
  store_options.frames = kCrawlFrames;
  store_options.timed = traced;
  FOCUS_ASSIGN_OR_RETURN(s->store, Store::Open(base, store_options));
  if (!spec.durable) s->store->db().BindWal(nullptr);
  crawl::RelevanceEvaluator* evaluator = world->evaluator.get();
  if (traced) {
    s->timed_evaluator = std::make_unique<TimedEvaluator>(evaluator);
    evaluator = s->timed_evaluator.get();
  }
  crawl::CrawlerOptions options = PaperCrawlerOptions(
      spec.threads, spec.budget, spec.distill_every);
  options.metrics_registry = &s->registry;
  if (traced && spec.threads == 1) {
    s->events.Enable(1 << 18);
    options.event_log = &s->events;
    s->store->wal().BindEventLog(&s->events);
  }
  s->crawler = std::make_unique<crawl::Crawler>(
      &world->system->web(), evaluator, &s->store->db(),
      &s->store->catalog(), options);
  for (const std::string& url : world->seed_urls) {
    FOCUS_RETURN_IF_ERROR(s->crawler->AddSeed(url));
  }
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  if (traced) {
    trace.Clear();
    trace.Enable();
  }
  s->start_ns = NowNs();
  Status status = s->crawler->Crawl();
  s->end_ns = NowNs();
  if (traced) {
    trace.Disable();
    s->spans = trace.Snapshot();
  }
  FOCUS_RETURN_IF_ERROR(status);
  return s;
}

double HarvestRate(const std::vector<crawl::Visit>& visits) {
  double sum = 0;
  for (const crawl::Visit& v : visits) sum += v.relevance;
  return visits.empty() ? 0.0 : sum / visits.size();
}

// The per-layer split of one traced crawl, in thread-seconds. The parts
// sum to threads x crawl wall; `other` is the unattributed residual.
struct CrawlAccounting {
  double total = 0;  // threads x wall
  double gather = 0, fetch = 0, classify_busy = 0, classify_wait = 0,
         lock_wait = 0, record = 0, boost = 0, pool_write = 0,
         log_write = 0, data_write = 0, sync = 0, other = 0;
  double attributed() const {
    return gather + fetch + classify_busy + classify_wait + lock_wait +
           record + boost + pool_write + log_write + data_write + sync;
  }
};

bool SpanIs(const obs::SpanEvent& span, const char* name) {
  return std::strcmp(span.name, name) == 0;
}

CrawlAccounting AccountCrawl(const CrawlSession& s,
                             const std::vector<JudgeCall>& calls,
                             double* boosts) {
  CrawlAccounting a;
  a.total = s.threads * s.wall_s();
  crawl::StageMetricsSnapshot stage = s.crawler->stage_metrics().Snapshot();
  for (const JudgeCall& c : calls) {
    a.classify_busy += Seconds(c.cpu_ns);
    a.classify_wait += Seconds(c.end_ns - c.start_ns - c.cpu_ns);
  }
  *boosts = 0;
  for (const obs::SpanEvent& span : s.spans) {
    if (SpanIs(span, "crawl.distill_boost")) {
      a.boost += span.dur_us * 1e-6;
      *boosts += 1;
    }
  }
  IoSnapshot pool = s.store->pool_io()->Snapshot();
  IoSnapshot data = s.store->data_io()->Snapshot();
  IoSnapshot log = s.store->log_io()->Snapshot();
  a.pool_write = Seconds(pool.write_ns);
  a.log_write = Seconds(log.write_ns + log.alloc_ns + log.read_ns);
  a.data_write = Seconds(data.write_ns + data.alloc_ns + data.read_ns);
  a.sync = Seconds(log.sync_ns + data.sync_ns);
  double commit_io = a.pool_write + a.log_write + a.data_write + a.sync;
  double record_section = 0;  // record + boosts + commit I/O
  if (s.threads > 1) {
    // The pipeline's own stage timers: fetch stage (web lock included),
    // crawl-state lock wait, and the record/expand section.
    a.fetch = stage.fetch_micros * 1e-6;
    a.lock_wait = stage.lock_wait_micros * 1e-6;
    record_section = stage.expand_micros * 1e-6;
    // GatherBatch (frontier pops, budget reservation under the state lock,
    // idle waits) is what a worker does between the end of one stage span
    // and the start of its next crawl.fetch_batch span.
    int64_t anchor_ns =
        NowNs() - obs::TraceBuffer::Global().NowTraceMicros() * 1000;
    std::map<uint32_t, std::vector<const obs::SpanEvent*>> by_thread;
    for (const obs::SpanEvent& span : s.spans) {
      if (SpanIs(span, "crawl.fetch_batch") ||
          SpanIs(span, "crawl.classify_batch") ||
          SpanIs(span, "crawl.record_batch")) {
        by_thread[span.tid].push_back(&span);
      }
    }
    for (auto& [tid, spans] : by_thread) {
      std::sort(spans.begin(), spans.end(), [](auto* x, auto* y) {
        return x->wall_start_us < y->wall_start_us;
      });
      int64_t prev_end = s.start_ns;
      for (const obs::SpanEvent* span : spans) {
        int64_t start = span->wall_start_us * 1000 + anchor_ns;
        if (SpanIs(*span, "crawl.fetch_batch")) {
          a.gather += Seconds(std::max<int64_t>(0, start - prev_end));
        }
        prev_end = start + span->dur_us * 1000;
      }
    }
  } else {
    // Crawler::Step has no stage timers: bound its stages with the event
    // log's wall stamps and the evaluator calls. fetch = attempt ->
    // success/failure; record = judge end -> the step's WAL commit;
    // gather (the next frontier pop) = commit -> next attempt.
    std::vector<obs::CrawlEvent> events = s.events.Snapshot();
    int64_t anchor_ns = NowNs() - s.events.NowWallMicros() * 1000;
    std::vector<int64_t> attempts, commits;
    int64_t pending = -1;
    for (const obs::CrawlEvent& e : events) {
      int64_t at = e.wall_us * 1000 + anchor_ns;
      if (e.type == obs::CrawlEventType::kFetchAttempt) {
        pending = at;
        attempts.push_back(at);
      } else if ((e.type == obs::CrawlEventType::kFetchSuccess ||
                  e.type == obs::CrawlEventType::kFetchFailure) &&
                 pending >= 0) {
        a.fetch += Seconds(at - pending);
        pending = -1;
      } else if (e.type == obs::CrawlEventType::kWalCommit ||
                 e.type == obs::CrawlEventType::kWalCheckpoint) {
        commits.push_back(at);
      }
    }
    std::sort(attempts.begin(), attempts.end());
    std::sort(commits.begin(), commits.end());
    if (!attempts.empty()) a.gather += Seconds(attempts[0] - s.start_ns);
    for (const JudgeCall& c : calls) {
      auto next = std::upper_bound(attempts.begin(), attempts.end(),
                                   c.end_ns);
      int64_t step_end = next == attempts.end() ? s.end_ns : *next;
      // The step's last commit before the next attempt.
      auto commit = std::upper_bound(commits.begin(), commits.end(),
                                     step_end);
      int64_t committed = step_end;
      if (commit != commits.begin() && *std::prev(commit) > c.end_ns) {
        committed = *std::prev(commit);
      }
      record_section += Seconds(committed - c.end_ns);
      if (next != attempts.end()) a.gather += Seconds(step_end - committed);
    }
  }
  a.record = record_section - a.boost - commit_io;
  a.other = std::max(0.0, a.total - a.attributed());
  return a;
}

void CheckClosure(const CrawlAccounting& a, Output* out) {
  double attributed = a.attributed();
  if (attributed > a.total * (1 + kClosureTolerance) ||
      a.record < -kClosureTolerance * a.total) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "crawl accounting does not close: parts %.3f s vs "
                  "threads x wall %.3f s (record %.3f s)",
                  attributed, a.total, a.record);
    out->Fail(buf);
  }
}

void PrintCrawlAccounting(const CrawlAccounting& a) {
  std::fprintf(stderr, "per-layer thread-seconds (threads x wall = %.3f):\n",
               a.total);
  const std::pair<const char*, double> rows[] = {
      {"crawl.gather", a.gather},      {"webgraph.fetch", a.fetch},
      {"classify.busy", a.classify_busy},
      {"classify.wait", a.classify_wait}, {"crawl.lock_wait", a.lock_wait},
      {"crawl.record", a.record},      {"distill.boost", a.boost},
      {"storage.pool_write", a.pool_write}, {"wal.log_write", a.log_write},
      {"wal.data_write", a.data_write}, {"wal.sync", a.sync},
      {"crawl.other", a.other}};
  for (const auto& [name, v] : rows) {
    std::fprintf(stderr, "  %-20s %8.3f  %5.1f%%\n", name, v,
                 a.total > 0 ? 100 * v / a.total : 0.0);
  }
}

void EmitCrawlLayers(const CrawlSession& s, Output* out) {
  std::vector<JudgeCall> calls = s.timed_evaluator->Calls();
  double boosts = 0;
  CrawlAccounting a = AccountCrawl(s, calls, &boosts);
  PrintCrawlAccounting(a);
  CheckClosure(a, out);
  size_t visits = s.crawler->visits().size();
  double pages = 0;
  std::vector<double> batch_ms;
  for (const JudgeCall& c : calls) {
    pages += c.pages;
    batch_ms.push_back(c.cpu_ns * 1e-6);
  }
  out->Set("webgraph.fetch_s", a.fetch);
  out->Set("crawl.gather_s", a.gather);
  out->Set("crawl.lock_wait_s", a.lock_wait);
  out->Set("crawl.record_s", a.record);
  out->Set("crawl.other_s", a.other);
  out->Set("crawl.batch_occupancy", calls.empty() ? 0 : pages / calls.size());
  double virtual_s = s.crawler->clock().NowMicros() * 1e-6;
  out->Set("crawl.virtual_pages_per_s",
           virtual_s > 0 ? visits / virtual_s : 0.0);
  out->Set("classify.busy_s", a.classify_busy);
  out->Set("classify.wait_s", a.classify_wait);
  out->Set("classify.batch_ms_p50", Percentile(batch_ms, 50));
  out->Set("classify.batch_ms_p90", Percentile(batch_ms, 90));
  out->Set("classify.ms_per_page", pages > 0 ? 1e3 * a.classify_busy / pages
                                             : 0.0);
  out->Set("distill.boosts", boosts);
  out->Set("distill.boost_s", a.boost);

  storage::BufferPool::Stats pool = s.store->pool().stats();
  IoSnapshot pool_io = s.store->pool_io()->Snapshot();
  std::fprintf(stderr, "store: %u pages, pool %zu frames\n",
               s.store->wal().NumPages(), s.store->pool().num_frames());
  out->Set("storage.pool_hit_ratio", pool.hit_ratio());
  out->Set("storage.pool_misses", static_cast<double>(pool.misses));
  out->Set("storage.pool_read_s", Seconds(pool_io.read_ns));
  out->Set("storage.readahead_used_frac",
           pool.readahead_issued == 0
               ? 0.0
               : static_cast<double>(pool.readahead_used) /
                     pool.readahead_issued);
  out->Set("storage.pages_written", static_cast<double>(pool_io.writes));
  out->Set("storage.pool_write_s", a.pool_write);

  std::vector<double> sync_ms;
  for (const TimedDisk* d : {s.store->log_io(), s.store->data_io()}) {
    for (int64_t ns : d->SyncSamplesNs()) sync_ms.push_back(ns * 1e-6);
  }
  storage::WalStats wal = s.store->wal().wal_stats();
  out->Set("wal.syncs", static_cast<double>(sync_ms.size()));
  out->Set("wal.sync_s", a.sync);
  out->Set("wal.sync_ms_p99", Percentile(sync_ms, 99));
  out->Set("wal.commits_per_page",
           visits > 0 ? static_cast<double>(wal.commits) / visits : 0.0);
  out->Set("wal.log_kib_per_page",
           visits > 0 ? wal.log_bytes / 1024.0 / visits : 0.0);
  out->Set("wal.log_write_s", a.log_write);
  out->Set("wal.data_write_s", a.data_write);
}

// BulkProbe judgments of a sample of visited pages must equal the
// in-memory classifier's, and the score the crawl recorded, to 1e-9.
Status CheckJudgments(World* world, const std::vector<crawl::Visit>& visits,
                      Output* out) {
  std::vector<text::TermVector> docs;
  std::vector<const crawl::Visit*> sample;
  size_t stride = std::max<size_t>(1, visits.size() / kJudgeSample);
  VirtualClock clock;
  for (size_t i = 0; i < visits.size() && sample.size() < kJudgeSample;
       i += stride) {
    FOCUS_ASSIGN_OR_RETURN(
        auto page, world->system->web().Fetch(visits[i].url, &clock, 1));
    docs.push_back(text::BuildTermVector(page.tokens));
    sample.push_back(&visits[i]);
  }
  FOCUS_ASSIGN_OR_RETURN(std::vector<crawl::PageJudgment> bulk,
                         world->evaluator->JudgeBatch(docs));
  crawl::ClassifierEvaluator reference(&world->system->classifier());
  int mismatches = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    FOCUS_ASSIGN_OR_RETURN(crawl::PageJudgment ref, reference.Judge(docs[i]));
    if (std::fabs(bulk[i].relevance - ref.relevance) > 1e-9 ||
        std::fabs(sample[i]->relevance - ref.relevance) > 1e-9 ||
        bulk[i].best_leaf != ref.best_leaf) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    out->Fail(std::to_string(mismatches) + " of " +
                  std::to_string(docs.size()) +
                  " sampled pages: BulkProbe judgment != in-memory",
              mismatches);
  }
  return Status::OK();
}

// Reopens the last crawl's files through WalDiskManager::Open +
// CrawlDb::Open; the recovered CRAWL table must hold exactly the visited
// set. Returns the WAL recovery time.
Result<double> CheckReopen(const std::string& base,
                           const std::vector<crawl::Visit>& visits,
                           Output* out) {
  Store::Options options;
  options.fresh = false;
  FOCUS_ASSIGN_OR_RETURN(std::unique_ptr<Store> store,
                         Store::Open(base, options));
  std::unordered_set<uint64_t> recovered;
  auto it = store->db().crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    crawl::CrawlRecord rec = crawl::CrawlDb::RecordFromTuple(row);
    if (rec.visited) recovered.insert(rec.oid);
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  std::unordered_set<uint64_t> expected;
  for (const crawl::Visit& v : visits) expected.insert(v.oid);
  if (recovered != expected) {
    out->Fail("reopened store has " + std::to_string(recovered.size()) +
              " visited pages, crawl visited " +
              std::to_string(expected.size()));
  }
  return store->open_wal_s();
}

void CheckBudget(const crawl::Crawler& crawler, int budget, Output* out) {
  size_t visited = crawler.visits().size();
  out->attempted += budget;
  if (static_cast<int>(visited) != budget) {
    out->Fail("crawl visited " + std::to_string(visited) + " pages, budget " +
                  std::to_string(budget),
              budget - std::min<uint64_t>(budget, visited));
  }
}

// One "best hubs and authorities now" query on a crawl's own store, right
// after the crawl (its pool holds the whole graph): distill_s on the crawl
// workloads.
Result<double> PostCrawlQuery(CrawlSession* s, QueryTrace* trace,
                              Output* out) {
  distill::DistillTables tables = s->crawler->distill_tables();
  if (tables.hubs == nullptr) {
    tables.link = s->store->db().link_table();
    tables.crawl = s->store->db().crawl_table();
    FOCUS_RETURN_IF_ERROR(
        distill::CreateHubsAuthTables(&s->store->catalog(), &tables));
  }
  int64_t t0 = NowNs();
  FOCUS_ASSIGN_OR_RETURN(QueryResult r,
                         RunQuery(s->store.get(), tables, kQueryRho,
                                  sql::ExecEngine::kVectorized, trace));
  double latency = Seconds(NowNs() - t0);
  ++out->attempted;
  if (r.hubs.empty() || r.authorities.empty()) {
    out->Fail("distillation query returned no hubs or authorities", 1);
  }
  return latency;
}

Status RunCrawlWorkload(const Args& args, Output* out) {
  CrawlSpec spec;
  spec.distill_every = kDistillEvery;
  if (args.workload == "crawl_pipeline") {
    spec.threads = kPipelineThreads;
    spec.budget = kPipelineBudget;
  } else {
    spec.threads = 1;
    spec.budget = kSerialBudget;
  }
  const std::string base = args.dir + "/crawl";
  std::vector<double> setups, pages_per_s, harvest, distill_latency,
      overhead;
  std::vector<QueryTrace> query_traces;
  std::unique_ptr<World> world;
  std::unique_ptr<CrawlSession> last;
  Stopwatch measuring;
  for (int rep = 0;; ++rep) {
    // Every repetition crawls a fresh input: a classifier trained on its
    // own example sample, which steers the focused crawl. The run's
    // medians thus average over several inputs of one seed.
    last.reset();  // close the previous crawl before reusing its files
    world.reset();
    Stopwatch setup;
    FOCUS_ASSIGN_OR_RETURN(world, BuildWorld(args.seed * 1000 + rep));
    setups.push_back(setup.ElapsedSeconds());

    FOCUS_ASSIGN_OR_RETURN(last, RunCrawl(world.get(), spec, base, false));
    CheckBudget(*last->crawler, spec.budget, out);
    const double wall_s = last->wall_s();
    pages_per_s.push_back(last->crawler->visits().size() / wall_s);
    harvest.push_back(HarvestRate(last->crawler->visits()));
    std::fprintf(stderr, "crawl %d: %.3f s, %.1f pages/s", rep, wall_s,
                 pages_per_s.back());
    if (args.trace) {
      // The same input again, traced.
      last.reset();
      FOCUS_ASSIGN_OR_RETURN(last, RunCrawl(world.get(), spec, base, true));
      CheckBudget(*last->crawler, spec.budget, out);
      overhead.push_back(last->wall_s() / wall_s - 1);
      std::fprintf(stderr, "; traced %.3f s", last->wall_s());
    }
    QueryTrace trace;
    FOCUS_ASSIGN_OR_RETURN(
        double latency,
        PostCrawlQuery(last.get(), args.trace ? &trace : nullptr, out));
    distill_latency.push_back(latency);
    if (args.trace) query_traces.push_back(std::move(trace));
    std::fprintf(stderr, "; query %.4f s\n", latency);
    if (rep + 1 >= kMinReps && measuring.ElapsedSeconds() >= args.seconds) {
      break;
    }
  }
  out->Set("setup_s", Median(setups));
  out->Set("pages_per_s", Median(pages_per_s));
  out->Set("harvest_rate", Mean(harvest));
  out->Set("distill_s", Median(distill_latency));
  if (args.trace) {
    EmitCrawlLayers(*last, out);
    out->Set("obs.trace_overhead_frac", Median(overhead));
    // The crawl's storage numbers stay; the queries add distill phases.
    Output q;
    EmitQueryLayers(query_traces, &q);
    for (const char* name :
         {"distill.refresh_s", "distill.init_s", "distill.iter_s",
          "distill.topk_s", "distill.iter_ms_p50", "distill.iter_ms_p90"}) {
      out->Set(name, q.metrics[name]);
    }
    out->Set("distill.queries", static_cast<double>(query_traces.size()));
  }

  // Output checks on the last crawl, outside every timed region.
  std::vector<crawl::Visit> visits = last->crawler->visits();
  FOCUS_RETURN_IF_ERROR(CheckJudgments(world.get(), visits, out));
  last.reset();  // drop the crawl without a final checkpoint
  FOCUS_ASSIGN_OR_RETURN(double recover_s, CheckReopen(base, visits, out));
  if (args.trace) out->Set("wal.recover_s", recover_s);
  RemoveStoreFiles(base);
  return Status::OK();
}

// ---------------------------------------------------------------------
// distill_query.

// The query store: the checkpointed graph reopened on a pool much smaller
// than LINK + CRAWL + HUBS + AUTH, with readahead on.
struct QueryStore {
  std::unique_ptr<Store> store;
  distill::DistillTables tables;
};

Result<QueryStore> OpenQueryStore(const std::string& base, bool timed) {
  QueryStore q;
  Store::Options options;
  options.frames = kQueryFrames;
  options.pool.auto_readahead = true;
  options.fresh = false;
  options.timed = timed;
  FOCUS_ASSIGN_OR_RETURN(q.store, Store::Open(base, options));
  q.tables.link = q.store->db().link_table();
  q.tables.crawl = q.store->db().crawl_table();
  FOCUS_RETURN_IF_ERROR(
      distill::CreateHubsAuthTables(&q.store->catalog(), &q.tables));
  return q;
}

Status RunDistillWorkload(const Args& args, Output* out) {
  // The graph is one fixed store (the same on every run); the run seed
  // draws the query's authority relevance threshold rho.
  const double rho = 0.08 + 0.005 * static_cast<double>(args.seed % 9);
  const std::string base = args.dir + "/graph";
  // Set-up, kSetupReps times: the world, then the graph by a 1-thread
  // crawl without per-page commits (their fdatasyncs made set-up swing with
  // the host's disk) and one checkpoint, so the queries read a durable,
  // folded, log-free store. The graph is identical on every run.
  std::vector<double> setups, graph_pages_per_s;
  std::unique_ptr<World> world;
  uint32_t base_pages = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    world.reset();
    Stopwatch timer;
    FOCUS_ASSIGN_OR_RETURN(world, BuildWorld(kGraphSeed));
    CrawlSpec spec;
    spec.threads = 1;
    spec.budget = kGraphBudget;
    spec.durable = false;
    FOCUS_ASSIGN_OR_RETURN(auto graph,
                           RunCrawl(world.get(), spec, base, false));
    CheckBudget(*graph->crawler, spec.budget, out);
    graph_pages_per_s.push_back(graph->crawler->visits().size() /
                                graph->wall_s());
    out->Set("harvest_rate", HarvestRate(graph->crawler->visits()));
    graph->store->db().BindWal(&graph->store->wal());
    FOCUS_RETURN_IF_ERROR(graph->store->db().Checkpoint());
    base_pages = graph->store->wal().NumPages();
    graph.reset();
    setups.push_back(timer.ElapsedSeconds());
  }
  out->Set("setup_s", Median(setups));
  out->Set("pages_per_s", Median(graph_pages_per_s));

  QueryResult oracle;
  {
    // The scalar-engine oracle, computed once.
    FOCUS_ASSIGN_OR_RETURN(QueryStore q, OpenQueryStore(base, false));
    if (args.trace) out->Set("wal.recover_s", q.store->open_wal_s());
    FOCUS_ASSIGN_OR_RETURN(oracle, RunQuery(q.store.get(), q.tables, rho,
                                            sql::ExecEngine::kScalar,
                                            nullptr));
    if (oracle.hubs.empty() || oracle.authorities.empty()) {
      out->Fail("oracle query returned no hubs or authorities");
    }
  }

  // The query loop. With --trace 1 every untraced query is followed by a
  // traced one on a copy of the store opened through the timing
  // decorators, so both see the same machine conditions.
  std::vector<QueryStore> stores;
  FOCUS_ASSIGN_OR_RETURN(QueryStore plain, OpenQueryStore(base, false));
  stores.push_back(std::move(plain));
  if (args.trace) {
    const std::string copy = args.dir + "/graph-traced";
    for (const char* ext : {".db", ".wal"}) {
      std::filesystem::copy_file(
          base + ext, copy + ext,
          std::filesystem::copy_options::overwrite_existing);
    }
    FOCUS_ASSIGN_OR_RETURN(QueryStore timed, OpenQueryStore(copy, true));
    stores.push_back(std::move(timed));
  }
  std::vector<double> untraced, traced;
  std::vector<QueryTrace> traces;
  Stopwatch measuring;
  for (int i = 0;; ++i) {
    bool warmup = i < kWarmupQueries;
    for (size_t k = 0; k < stores.size(); ++k) {
      bool timed = k == 1;
      QueryTrace trace;
      int64_t t0 = NowNs();
      FOCUS_ASSIGN_OR_RETURN(
          QueryResult r,
          RunQuery(stores[k].store.get(), stores[k].tables, rho,
                   sql::ExecEngine::kVectorized, timed ? &trace : nullptr));
      double latency = Seconds(NowNs() - t0);
      ++out->attempted;
      if (!(r == oracle)) out->Fail("query result != scalar oracle", 1);
      if (warmup) continue;
      (timed ? traced : untraced).push_back(latency);
      if (timed) traces.push_back(std::move(trace));
    }
    if (!warmup && measuring.ElapsedSeconds() >= args.seconds) break;
  }
  double distill_s = Median(untraced);
  out->Set("distill_s", distill_s);
  std::fprintf(stderr,
               "distill_s: median of %zu queries, rho %.3f; store: %u "
               "pages, pool %zu frames\n",
               untraced.size(), rho, base_pages, kQueryFrames);
  if (args.trace) {
    EmitQueryLayers(traces, out);
    out->Set("distill.queries", static_cast<double>(traces.size()));
    out->Set("obs.trace_overhead_frac",
             Median(traced) / Median(untraced) - 1);
    double parts = 0;
    for (const char* name :
         {"distill.refresh_s", "distill.init_s", "distill.iter_s",
          "distill.topk_s", "storage.pool_read_s", "storage.pool_write_s"}) {
      parts += out->metrics[name];
      std::fprintf(stderr, "  %-24s %8.4f s\n", name, out->metrics[name]);
    }
    std::fprintf(stderr, "  parts %.4f s vs distill_s %.4f s\n", parts,
                 distill_s);
    if (std::fabs(parts - distill_s) > kClosureTolerance * distill_s) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "query accounting does not close: parts %.4f s vs "
                    "distill_s %.4f s",
                    parts, distill_s);
      out->Fail(buf);
    }
  }
  stores.clear();
  RemoveStoreFiles(base);
  RemoveStoreFiles(args.dir + "/graph-traced");
  return Status::OK();
}

Status Run(const Args& args, Output* out) {
  std::filesystem::create_directories(args.dir);
  ZeroLayerMetrics(out);
  if (args.workload == "distill_query") {
    FOCUS_RETURN_IF_ERROR(RunDistillWorkload(args, out));
  } else {
    FOCUS_RETURN_IF_ERROR(RunCrawlWorkload(args, out));
  }
  out->Set("ok_frac",
           out->attempted == 0
               ? 0.0
               : 1.0 - static_cast<double>(out->failed) / out->attempted);
  out->Set("peak_rss_mb", PeakRssMb());
  std::error_code ignored;
  std::filesystem::remove_all(args.dir, ignored);
  return Status::OK();
}

}  // namespace
}  // namespace focus::perfbench

int main(int argc, char** argv) {
  using namespace focus::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload crawl_pipeline|crawl_serial|"
                 "distill_query --seed N --seconds S --trace 0|1 "
                 "[--dir DIR]\n",
                 argv[0]);
    return 2;
  }
  focus::SetLogLevel(focus::LogLevel::kWarning);
  Output out;
  focus::Status status = Run(args, &out);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    std::error_code ignored;
    std::filesystem::remove_all(args.dir, ignored);
    return 1;
  }
  out.Print();
  return out.errors.empty() ? 0 : 1;
}
