// System throughput, for context with §3's setup: "about thirty threads
// fetch a total of 5-10 pages a second" — roughly ten thousand pages per
// hour on the 1999 testbed.
//
// We report (a) virtual-time throughput — fetch latency is charged to the
// virtual clock at fetch_latency_mean_ms per page, so this axis is
// comparable to the paper's network-bound rate, and multi-threaded runs
// overlap fetch waits exactly like the paper's fetch threads — and
// (b) wall-clock throughput of the whole pipeline (fetch simulation +
// tokenization + batched classification + relational bookkeeping).
//
// Flags (for the CI bench-smoke job):
//   --budget N           pages to fetch per run (default 2000)
//   --tiny               shrink the simulated web for fast smoke runs
//   --json PATH          write the result rows as JSON (schema 2)
//   --metrics-json PATH  dump the full metrics-registry snapshot as JSON
//   --metrics-text PATH  same snapshot in Prometheus text format
//   --trace PATH         record trace spans, write Chrome trace_event JSON
//
// Provenance / live introspection:
//   --events PATH        enable the crawl event log, dump it as JSONL
//   --admin-port N       serve /metrics /metrics.json /trace /events
//                        /frontier /healthz on 127.0.0.1:N while the bench
//                        runs (0 = ephemeral port, printed at startup);
//                        implies the event log
//
// Fault injection (the hostile-web model; defaults are a fault-free web):
//   --fail-prob P        transient failure probability per fetch, plus
//                        P/5 permanent losses, P/5 timeouts, P/2 truncation
//   --timeout-ms N       virtual time a timed-out fetch burns (default 2000)
//   --outage-servers N   schedule staggered outages on the first N servers
//   --dead-servers F     fraction of servers that never respond
//   --no-breaker         disable the per-server circuit breaker
//
// Durability:
//   --wal                back each session with FileDiskManager + the
//                        write-ahead log (crawler batches become durable
//                        commits); reports appends/syncs per committed
//                        batch so the WAL overhead vs the in-memory
//                        baseline is visible on both time axes
//
// Distributed (the multi-shard supervisor; see src/dist/):
//   --shards N           partition the URL space across N crawl shards and
//                        run the supervisor to its fixpoint instead of the
//                        thread sweep; reports per-shard pages/restarts and
//                        the link-exchange counters. --budget applies per
//                        shard (each shard owns a disjoint URL partition).
//   --kill-shard S@T     schedule a shard death: kill shard S when its
//                        virtual clock reaches T seconds (repeatable); the
//                        supervisor must recover it and still converge.
//                        Recovery counters land in the --json artifact.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "crawl/metrics.h"
#include "crawl/relevance_evaluator.h"
#include "dist/dist_crawl.h"
#include "crawl/provenance.h"
#include "obs/admin_server.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/wal.h"
#include "util/clock.h"
#include "util/logging.h"

namespace focus::bench {
namespace {

struct Flags {
  int budget = 2000;
  bool tiny = false;
  int shards = 1;
  std::vector<std::pair<int, double>> kills;  // (shard, virtual seconds)
  double fail_prob = 0;
  int timeout_ms = 2000;
  int outage_servers = 0;
  double dead_servers = 0;
  bool breaker = true;
  bool wal = false;
  int admin_port = -1;  // -1 = no admin server
  std::string events_path;
  std::string json_path;
  std::string metrics_json_path;
  std::string metrics_text_path;
  std::string trace_path;

  bool WantEvents() const { return admin_port >= 0 || !events_path.empty(); }
};

// Applies the fault flags to a web config: --fail-prob P injects the full
// taxonomy (transient baseline P plus proportional permanent / timeout /
// truncation shares), and --outage-servers staggers one outage window per
// affected server across the first minutes of virtual time.
void ApplyFaultFlags(const Flags& flags, webgraph::WebConfig* web) {
  web->fetch_failure_prob = flags.fail_prob;
  web->faults.permanent_prob = flags.fail_prob / 5;
  web->faults.timeout_prob = flags.fail_prob / 5;
  web->faults.truncate_prob = flags.fail_prob / 2;
  web->faults.timeout_ms = flags.timeout_ms;
  web->faults.dead_server_fraction = flags.dead_servers;
  for (int s = 0; s < flags.outage_servers; ++s) {
    double start = 5.0 + 10.0 * s;
    web->faults.outages.push_back(
        webgraph::ServerOutage{s, start, start + 60.0});
  }
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      flags.tiny = true;
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      flags.budget = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      flags.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      flags.metrics_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-text") == 0 && i + 1 < argc) {
      flags.metrics_text_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      flags.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fail-prob") == 0 && i + 1 < argc) {
      flags.fail_prob = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      flags.timeout_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--outage-servers") == 0 &&
               i + 1 < argc) {
      flags.outage_servers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--dead-servers") == 0 && i + 1 < argc) {
      flags.dead_servers = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-breaker") == 0) {
      flags.breaker = false;
    } else if (std::strcmp(argv[i], "--wal") == 0) {
      flags.wal = true;
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      flags.events_path = argv[++i];
    } else if (std::strcmp(argv[i], "--admin-port") == 0 && i + 1 < argc) {
      flags.admin_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      flags.shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-shard") == 0 && i + 1 < argc) {
      int shard = 0;
      double at_s = 0;
      if (std::sscanf(argv[++i], "%d@%lf", &shard, &at_s) != 2) {
        std::fprintf(stderr, "--kill-shard wants S@T (e.g. 2@5.0)\n");
        std::exit(2);
      }
      flags.kills.emplace_back(shard, at_s);
    } else {
      std::fprintf(stderr,
                   "usage: tab_throughput [--budget N] [--tiny] "
                   "[--json PATH] [--metrics-json PATH] "
                   "[--metrics-text PATH] [--trace PATH] "
                   "[--events PATH] [--admin-port N] "
                   "[--fail-prob P] [--timeout-ms N] [--outage-servers N] "
                   "[--dead-servers F] [--no-breaker] [--wal] "
                   "[--shards N] [--kill-shard S@T]\n");
      std::exit(2);
    }
  }
  return flags;
}

struct Row {
  int threads = 0;
  size_t pages = 0;
  double wall_s = 0;
  double virtual_s = 0;
  double batch_occupancy = 0;
  double lock_held_s = 0;  // crawl-state lock held (the serial section)
  storage::WalStats wal;            // zero when running without --wal
  storage::BufferPool::Stats pool;  // the session's buffer-pool counters

  double PerWallSecond() const { return wall_s == 0 ? 0 : pages / wall_s; }
  double PerVirtualSecond() const {
    return virtual_s == 0 ? 0 : pages / virtual_s;
  }
  double PerCommit(uint64_t n) const {
    return wal.commits == 0 ? 0 : static_cast<double>(n) / wal.commits;
  }
  // Share of wall time the crawl-state lock was held.
  double LockHeldFrac() const { return wall_s == 0 ? 0 : lock_held_s / wall_s; }
  double ReadaheadUsedFrac() const {
    return pool.readahead_issued == 0
               ? 0
               : static_cast<double>(pool.readahead_used) /
                     static_cast<double>(pool.readahead_issued);
  }
};

int Run(const Flags& flags) {
  if (!flags.trace_path.empty()) obs::TraceBuffer::Global().Enable();
  // A private registry: repeated bench runs (and other processes' global
  // metrics) never leak into this run's snapshot.
  obs::MetricsRegistry registry;
  obs::EventLog event_log;
  if (flags.WantEvents()) event_log.Enable();
  obs::AdminServer::Options admin_opts;
  admin_opts.port = flags.admin_port < 0 ? 0 : flags.admin_port;
  admin_opts.metrics = &registry;
  admin_opts.events = flags.WantEvents() ? &event_log : nullptr;
  obs::AdminServer admin(admin_opts);
  if (flags.admin_port >= 0) {
    Status started = admin.Start();
    FOCUS_CHECK(started.ok(), started.ToString());
    std::printf("admin server on http://127.0.0.1:%d\n", admin.port());
  }
  taxonomy::Taxonomy tax = core::BuildSampleTaxonomy();
  core::FocusOptions options;
  options.seed = 73;
  options.web.pages_per_topic = flags.tiny ? 150 : 1500;
  options.web.background_pages = flags.tiny ? 3000 : 30000;
  options.web.background_servers = flags.tiny ? 120 : 800;
  options.web.fetch_latency_mean_ms = 120;  // the paper's network regime
  ApplyFaultFlags(flags, &options.web);
  if (flags.wal) {
    // File-backed sessions behind the write-ahead log; a scratch directory
    // per process so parallel bench runs never share a store.
    options.session_db_dir =
        "/tmp/focus-tab-throughput-" + std::to_string(::getpid());
  }
  auto system = core::FocusSystem::Create(std::move(tax), options)
                    .TakeValue();
  FOCUS_CHECK(system->MarkGood("cycling").ok());
  FOCUS_CHECK(system->Train().ok());
  auto cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 12);

  if (flags.shards > 1) {
    // Multi-shard supervisor instead of the thread sweep: hash-partition
    // the URL space, run to the distributed fixpoint (recovering any
    // scheduled shard deaths), and report the recovery counters.
    crawl::ClassifierEvaluator evaluator(&system->classifier());
    dist::ShardFaultPlan plan;
    for (const auto& [shard, at_s] : flags.kills) {
      FOCUS_CHECK(shard >= 0 && shard < flags.shards,
                  "--kill-shard shard out of range");
      plan.KillAt(shard, static_cast<int64_t>(at_s * 1e6));
    }
    dist::DistCrawlOptions dopts;
    dopts.num_shards = flags.shards;
    dopts.crawler.max_fetches = flags.budget;
    dopts.crawler.breaker.enabled = flags.breaker;
    dopts.crawler.distill_every = 0;
    dopts.metrics_registry = &registry;
    dopts.fault_plan = flags.kills.empty() ? nullptr : &plan;
    dopts.enable_event_logs = flags.WantEvents();
    auto dc_or = dist::DistCrawl::Create(&system->web(), &evaluator, dopts);
    FOCUS_CHECK(dc_or.ok(), dc_or.status().ToString());
    std::unique_ptr<dist::DistCrawl> dc = std::move(dc_or).TakeValue();
    for (const std::string& url : seeds) {
      FOCUS_CHECK(dc->AddSeed(url).ok());
    }
    Stopwatch wall;
    Status fixpoint = dc->RunToFixpoint();
    FOCUS_CHECK(fixpoint.ok(), fixpoint.ToString());
    double wall_s = wall.ElapsedSeconds();
    auto visited = dc->VisitedRelevance();
    FOCUS_CHECK(visited.ok(), visited.status().ToString());
    auto harvest = dc->HarvestRate(0.5);
    FOCUS_CHECK(harvest.ok(), harvest.status().ToString());
    const dist::ExchangeStats& ex = dc->exchange_stats();

    Note("distributed crawl (per-server hash partitioning, crash-safe "
         "link exchange)");
    std::printf("shards=%d pages=%zu wall_seconds=%.2f harvest_rate=%.3f\n",
                flags.shards, visited.value().size(), wall_s,
                harvest.value());
    std::printf("exchange: delivered=%llu replayed=%llu batches=%llu\n",
                static_cast<unsigned long long>(ex.delivered),
                static_cast<unsigned long long>(ex.replayed),
                static_cast<unsigned long long>(ex.batches));
    std::printf("kills: scheduled=%zu fired=%d restarts=%d\n",
                flags.kills.size(), plan.fired(), dc->total_restarts());
    std::printf("shard,frontier,restarts\n");
    for (int s = 0; s < flags.shards; ++s) {
      std::printf("%d,%zu,%d\n", s, dc->crawler(s)->frontier().size(),
                  dc->restarts(s));
    }

    if (!flags.json_path.empty()) {
      // The recovery-counter artifact the CI chaos smoke uploads.
      JsonWriter w;
      w.BeginObject()
          .Field("schema", 1)
          .Field("benchmark", "tab_throughput_distributed")
          .Field("shards", flags.shards)
          .Field("pages", static_cast<uint64_t>(visited.value().size()))
          .Field("wall_seconds", wall_s)
          .Field("harvest_rate", harvest.value())
          .Field("kills_scheduled", static_cast<uint64_t>(flags.kills.size()))
          .Field("kills_fired", plan.fired())
          .Field("total_restarts", dc->total_restarts())
          .Field("exchange_delivered", ex.delivered)
          .Field("exchange_replayed", ex.replayed)
          .Field("exchange_batches", ex.batches);
      w.Key("shard_restarts").BeginArray();
      for (int s = 0; s < flags.shards; ++s) {
        w.BeginObject()
            .Field("shard", s)
            .Field("restarts", dc->restarts(s))
            .EndObject();
      }
      w.EndArray().EndObject();
      if (!WriteTextFile(flags.json_path, w.TakeString())) return 1;
    }
    if (!flags.metrics_json_path.empty() &&
        !WriteTextFile(flags.metrics_json_path, registry.ToJson())) {
      return 1;
    }
    if (!flags.metrics_text_path.empty() &&
        !WriteTextFile(flags.metrics_text_path,
                       registry.ToPrometheusText())) {
      return 1;
    }
    if (!flags.events_path.empty()) {
      std::string jsonl;
      for (int s = 0; s < flags.shards; ++s) {
        jsonl += dc->event_log(s)->ToJsonl();
      }
      if (!WriteTextFile(flags.events_path, jsonl)) return 1;
    }
    admin.Stop();
    return 0;
  }

  Note("crawler throughput (paper: ~30 threads, 5-10 pages/s, ~10k "
       "pages/hour)");
  std::printf("threads,pages,wall_seconds,pages_per_wall_second,"
              "virtual_seconds,pages_per_virtual_second,"
              "batch_occupancy\n");
  std::vector<Row> rows;
  // Sessions stay alive past the loop so their buffer-pool collectors are
  // still registered when the registry snapshot is taken below.
  std::vector<std::unique_ptr<core::CrawlSession>> sessions;
  for (int threads : {1, 8}) {
    crawl::CrawlerOptions copts;
    copts.max_fetches = flags.budget;
    copts.num_threads = threads;
    copts.breaker.enabled = flags.breaker;
    copts.metrics_registry = &registry;
    copts.event_log = flags.WantEvents() ? &event_log : nullptr;
    auto session = system->NewCrawl(seeds, copts).TakeValue();
    if (flags.admin_port >= 0) {
      // Re-point /frontier at the session that is about to run.
      crawl::RegisterCrawlAdminEndpoints(&admin, &session->crawler());
    }
    Stopwatch wall;
    FOCUS_CHECK(session->crawler().Crawl().ok());
    Row row;
    row.threads = threads;
    row.wall_s = wall.ElapsedSeconds();
    row.virtual_s = session->crawler().clock().NowSeconds();
    row.pages = session->crawler().visits().size();
    const crawl::StageMetricsSnapshot metrics =
        session->crawler().stage_metrics().Snapshot();
    row.batch_occupancy = metrics.AvgBatchOccupancy();
    row.lock_held_s = metrics.lock_held_micros / 1e6;
    std::printf("%d,%zu,%.2f,%.0f,%.1f,%.1f,%.1f\n", row.threads,
                row.pages, row.wall_s, row.PerWallSecond(), row.virtual_s,
                row.PerVirtualSecond(), row.batch_occupancy);
    std::printf("  stages: fetch=%.3fs classify=%.3fs expand=%.3fs "
                "lock_wait=%.3fs lock_held=%.3fs (%.0f%% of wall)\n",
                metrics.fetch_micros / 1e6, metrics.classify_micros / 1e6,
                metrics.expand_micros / 1e6,
                metrics.lock_wait_micros / 1e6, row.lock_held_s,
                100 * row.LockHeldFrac());
    row.pool = session->pool()->stats();
    std::printf("  pool: hit_ratio=%.4f readahead issued=%llu used=%llu\n",
                row.pool.hit_ratio(),
                static_cast<unsigned long long>(row.pool.readahead_issued),
                static_cast<unsigned long long>(row.pool.readahead_used));
    if (session->wal() != nullptr) {
      row.wal = session->wal()->wal_stats();
      std::printf("  wal: %llu commits, %.1f appends/commit, "
                  "%.1f syncs/commit, %llu checkpoints, %.1f KiB logged\n",
                  static_cast<unsigned long long>(row.wal.commits),
                  row.PerCommit(row.wal.appends),
                  row.PerCommit(row.wal.syncs),
                  static_cast<unsigned long long>(row.wal.checkpoints),
                  row.wal.log_bytes / 1024.0);
    }
    rows.push_back(row);
    sessions.push_back(std::move(session));
  }

  if (!flags.json_path.empty()) {
    JsonWriter w;
    w.BeginObject().Field("schema", 2).Field("benchmark", "tab_throughput");
    w.Key("rows").BeginArray();
    for (const Row& r : rows) {
      w.BeginObject()
          .Field("threads", r.threads)
          .Field("pages", static_cast<uint64_t>(r.pages))
          .Field("wall_seconds", r.wall_s)
          .Field("pages_per_wall_second", r.PerWallSecond())
          .Field("virtual_seconds", r.virtual_s)
          .Field("pages_per_virtual_second", r.PerVirtualSecond())
          .Field("batch_occupancy", r.batch_occupancy)
          .Field("wal_commits", r.wal.commits)
          .Field("wal_appends_per_commit", r.PerCommit(r.wal.appends))
          .Field("wal_syncs_per_commit", r.PerCommit(r.wal.syncs))
          .Field("pool_hit_ratio", r.pool.hit_ratio())
          .Field("pool_readahead_issued", r.pool.readahead_issued)
          .Field("pool_readahead_used", r.pool.readahead_used)
          .Field("pool_readahead_used_frac", r.ReadaheadUsedFrac())
          .EndObject();
    }
    w.EndArray().EndObject();
    if (!WriteTextFile(flags.json_path, w.TakeString())) return 1;
  }
  if (!flags.metrics_json_path.empty() &&
      !WriteTextFile(flags.metrics_json_path, registry.ToJson())) {
    return 1;
  }
  if (!flags.metrics_text_path.empty() &&
      !WriteTextFile(flags.metrics_text_path, registry.ToPrometheusText())) {
    return 1;
  }
  if (!flags.trace_path.empty() &&
      !WriteTextFile(flags.trace_path,
                     obs::TraceBuffer::Global().ToChromeTraceJson())) {
    return 1;
  }
  if (!flags.events_path.empty() &&
      !WriteTextFile(flags.events_path, event_log.ToJsonl())) {
    return 1;
  }
  admin.Stop();
  return 0;
}

}  // namespace
}  // namespace focus::bench

int main(int argc, char** argv) {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  return focus::bench::Run(focus::bench::ParseFlags(argc, argv));
}
