// Figure 8(d): distillation running time, naive edge-walk vs join plan.
//
// The paper compares one distillation iteration implemented as a
// sequential LINK scan with per-endpoint index lookups and score updates
// (the old main-memory style, on disk) against the Figure 4 join
// formulation, and finds the join about a factor of three faster, with
// the naive time split into scan / lookup / update. The JoinVec row runs
// the same join plan on the vectorized batch engine.
//
// The crawl graph comes from a real focused crawl; its LINK/CRAWL tables
// are then copied into a database whose buffer pool is far smaller than
// the tables, with per-miss latency modelling the 1999 disk.
// `--explain` prints each join variant's plan with EXPLAIN ANALYZE;
// `--fast-disk` zeroes the modelled read latency so the CPU-bound join
// cost dominates, and `--json` emits the same rows as a JSON array for
// the bench artifacts.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "distill/join_distiller.h"
#include "distill/naive_distiller.h"
#include "sql/exec/operator.h"
#include "sql/exec/scan.h"
#include "util/clock.h"
#include "util/logging.h"

namespace focus::bench {
namespace {

constexpr int kCrawlBudget = 1500;
constexpr int kIterations = 3;
constexpr double kRho = 0.2;
constexpr int kBufferFrames = 384;
constexpr double kReadLatencyUs = 80;

// Copies all rows of `src` (living in another catalog) into `dst_catalog`.
sql::Table* CopyTable(sql::Catalog* dst_catalog, const sql::Table* src,
                      std::vector<sql::IndexSpec> indexes) {
  auto dst = dst_catalog->CreateTable(src->name(), src->schema(),
                                      std::move(indexes));
  FOCUS_CHECK(dst.ok(), dst.status().ToString());
  auto it = src->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    FOCUS_CHECK(dst.value()->Insert(row).ok());
  }
  FOCUS_CHECK(it.status().ok());
  return dst.value();
}

int Run(bool json, bool fast_disk, bool explain) {
  // --- build a crawl graph with the full pipeline (fast disk) ---
  taxonomy::Taxonomy tax = core::BuildSampleTaxonomy();
  core::FocusOptions options;
  options.seed = 5;
  options.web.pages_per_topic = 600;
  options.web.background_pages = 20000;
  options.web.background_servers = 600;
  auto system = core::FocusSystem::Create(std::move(tax), options)
                    .TakeValue();
  FOCUS_CHECK(system->MarkGood("cycling").ok());
  FOCUS_CHECK(system->Train().ok());
  auto cycling = system->tax().FindByName("cycling").value();
  crawl::CrawlerOptions copts;
  copts.max_fetches = kCrawlBudget;
  auto session =
      system->NewCrawl(system->web().KeywordSeeds(cycling, 15), copts)
          .TakeValue();
  FOCUS_CHECK(session->crawler().Crawl().ok());
  FOCUS_CHECK(session->db().RefreshEdgeWeights().ok());

  // --- copy LINK/CRAWL onto the slow-disk database ---
  storage::MemDiskManager disk(storage::MemDiskManager::Options{
      .read_latency_us = fast_disk ? 0 : kReadLatencyUs});
  storage::BufferPool pool(&disk, kBufferFrames);
  sql::Catalog catalog(&pool);
  distill::DistillTables tables;
  tables.link = CopyTable(&catalog, session->db().link_table(),
                          {sql::IndexSpec{"by_src", {0}, {}},
                           sql::IndexSpec{"by_dst", {2}, {}}});
  tables.crawl = CopyTable(&catalog, session->db().crawl_table(),
                           {sql::IndexSpec{"by_oid", {0}, {}}});
  FOCUS_CHECK(distill::CreateHubsAuthTables(&catalog, &tables).ok());
  // The naive distiller probes its own HUBS/AUTH pair, indexed by_oid,
  // held in a second catalog on the same buffer pool.
  sql::Catalog naive_catalog(&pool);
  distill::DistillTables naive_tables = tables;
  FOCUS_CHECK(
      distill::CreateNaiveScoreTables(&naive_catalog, &naive_tables).ok());

  if (!json) {
    Note("figure 8(d): distillation iteration time, naive index walk vs "
         "Figure 4 join plan");
    Note("crawl graph: ", tables.link->num_rows(), " links over ",
         tables.crawl->num_rows(), " urls; buffer pool ", kBufferFrames,
         " frames; iterations: ", kIterations,
         fast_disk ? "; fast disk (no read latency)" : "");
  }

  struct Row {
    const char* variant;
    double per_iter, scan_s, lookup_s, update_s, join_s, misses, relative;
  };
  std::vector<Row> report;

  double baseline = 0;
  {
    distill::NaiveDistiller naive(naive_tables);
    FOCUS_CHECK(pool.EvictAll().ok());
    pool.ResetStats();
    Stopwatch timer;
    FOCUS_CHECK(
        naive.Run({.iterations = kIterations, .rho = kRho}).ok());
    double per_iter = timer.ElapsedSeconds() / kIterations;
    baseline = per_iter;
    report.push_back(Row{"Index", per_iter,
                         naive.stats().scan_seconds / kIterations,
                         naive.stats().lookup_seconds / kIterations,
                         naive.stats().update_seconds / kIterations, 0.0,
                         static_cast<double>(pool.stats().misses) /
                             kIterations,
                         1.0});
  }
  auto run_join = [&](sql::ExecEngine engine, const char* name) {
    distill::JoinDistiller join(tables);
    join.SetEngine(engine);
    FOCUS_CHECK(pool.EvictAll().ok());
    pool.ResetStats();
    Stopwatch timer;
    FOCUS_CHECK(join.Run({.iterations = kIterations, .rho = kRho}).ok());
    double per_iter = timer.ElapsedSeconds() / kIterations;
    report.push_back(Row{name, per_iter, 0.0, 0.0,
                         join.stats().update_seconds / kIterations,
                         join.stats().join_seconds / kIterations,
                         static_cast<double>(pool.stats().misses) /
                             kIterations,
                         per_iter / baseline});
    if (explain) {
      // Explain a query's first iteration: the batch plan builds its
      // per-query LINK sets there and only replays them afterwards.
      FOCUS_CHECK(join.Initialize().ok());
      sql::PlanStats plan;
      FOCUS_CHECK(join.RunIterationWithPlan(kRho, &plan).ok());
      std::fprintf(stderr, "# --- %s plan ---\n%s", name,
                   plan.Format().c_str());
    }
  };
  run_join(sql::ExecEngine::kScalar, "Join");
  run_join(sql::ExecEngine::kVectorized, "JoinVec");

  if (json) {
    std::printf("[\n");
    for (size_t i = 0; i < report.size(); ++i) {
      const Row& r = report[i];
      std::printf("  {\"variant\":\"%s\",\"seconds_per_iter\":%.4f,"
                  "\"scan_s\":%.4f,\"lookup_s\":%.4f,\"update_s\":%.4f,"
                  "\"join_s\":%.4f,\"misses_per_iter\":%.0f,"
                  "\"relative\":%.2f}%s\n",
                  r.variant, r.per_iter, r.scan_s, r.lookup_s, r.update_s,
                  r.join_s, r.misses, r.relative,
                  i + 1 < report.size() ? "," : "");
    }
    std::printf("]\n");
  } else {
    std::printf("variant,seconds_per_iter,scan_s,lookup_s,update_s,join_s,"
                "misses_per_iter,relative\n");
    for (const Row& r : report) {
      std::printf("%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.0f,%.2f\n", r.variant,
                  r.per_iter, r.scan_s, r.lookup_s, r.update_s, r.join_s,
                  r.misses, r.relative);
    }
  }
  return 0;
}

}  // namespace
}  // namespace focus::bench

int main(int argc, char** argv) {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  bool json = false;
  bool fast_disk = false;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--fast-disk") == 0) fast_disk = true;
    if (std::strcmp(argv[i], "--explain") == 0) explain = true;
  }
  return focus::bench::Run(json, fast_disk, explain);
}
