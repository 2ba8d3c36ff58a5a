// Crawl monitoring and tweaking (§3.7): the mutual-funds story.
//
// "Only one crawl dropped in relevance (mutual funds). To diagnose why, we
// asked [the census query]. This query immediately revealed that the
// neighborhood of most pages on mutual funds contained pages on investment
// in general... One update statement marking the ancestor good fixed this
// stagnation problem."
//
// We reproduce it end to end: a soft-focus crawl on the narrow topic
// yields a depressed harvest; the census query shows the neighbourhood is
// general-investing material judged irrelevant; re-marking the broader
// category good recovers the harvest.
//
// Along the way this example doubles as the observability tour: the
// crawl's stage and fault counters from the registry's Prometheus
// exposition, the crawl event log with a provenance-path
// reconstruction, EXPLAIN-ANALYZE plan reports for the Figure 3
// classifier plan and a Figure 4 distillation iteration, and (with
// --admin-port N) the live admin introspection server:
//
//   crawl_monitoring --admin-port 0 --admin-linger 30
//
// starts the read-only HTTP server on an ephemeral loopback port (printed
// on stdout), then keeps the process alive for 30 s after the tour so
// /metrics, /events, /frontier etc. can be scraped.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "crawl/batch_evaluator.h"
#include "crawl/metrics.h"
#include "crawl/monitor.h"
#include "crawl/provenance.h"
#include "distill/join_distiller.h"
#include "obs/admin_server.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sql/catalog.h"
#include "sql/exec/analyze.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "text/document.h"
#include "util/clock.h"
#include "util/logging.h"

namespace {

double FinalHarvest(const std::vector<focus::crawl::Visit>& visits) {
  auto series = focus::crawl::MovingAverageRelevance(visits, 300);
  return series.empty() ? 0.0 : series.back();
}

int Run(int admin_port, int admin_linger_s) {
  using namespace focus;

  // The event log records the full URL lifecycle for both crawls; the
  // provenance section below reconstructs a discovery path from it.
  obs::EventLog event_log;
  event_log.Enable();

  obs::AdminServer::Options admin_opts;
  admin_opts.port = admin_port < 0 ? 0 : admin_port;
  admin_opts.events = &event_log;  // metrics/trace default to the globals
  obs::AdminServer admin(admin_opts);
  if (admin_port >= 0) {
    FOCUS_CHECK(admin.Start().ok());
    std::printf("admin server listening on http://127.0.0.1:%d\n",
                admin.port());
    std::fflush(stdout);
  }

  taxonomy::Taxonomy tax = core::BuildSampleTaxonomy();
  auto funds = tax.FindByName("mutual_funds").value();
  auto investing = tax.FindByName("investing_general").value();
  auto banking = tax.FindByName("banking").value();

  core::FocusOptions options;
  options.seed = 11;
  options.web.pages_per_topic = 500;
  options.web.background_pages = 30000;
  options.web.background_servers = 800;
  // A mildly hostile web, so the fault counters have content:
  // a few percent of fetches fail transiently, some pages are gone for
  // good, some transfers are cut short, and a sliver of servers is flaky.
  options.web.fetch_failure_prob = 0.04;
  options.web.faults.permanent_prob = 0.01;
  options.web.faults.timeout_prob = 0.01;
  options.web.faults.truncate_prob = 0.02;
  options.web.faults.flaky_server_fraction = 0.03;

  // Mutual-fund pages cite general investing and banking pages heavily —
  // the neighbourhood structure the paper diagnosed.
  auto system =
      core::FocusSystem::Create(
          std::move(tax), options,
          {webgraph::TopicAffinity{funds, investing, 0.18},
           webgraph::TopicAffinity{funds, banking, 0.08},
           webgraph::TopicAffinity{investing, funds, 0.10}})
          .TakeValue();
  FOCUS_CHECK(system->MarkGood("mutual_funds").ok());
  FOCUS_CHECK(system->Train().ok());

  auto seeds = system->web().KeywordSeeds(funds, 10);

  // --- the drooping crawl: good = {mutual_funds} only ---
  crawl::CrawlerOptions copts;
  copts.max_fetches = 1500;
  copts.num_threads = 4;  // the pipeline, so the stage counters have content
  copts.event_log = &event_log;
  auto session = system->NewCrawl(seeds, copts).TakeValue();
  crawl::RegisterCrawlAdminEndpoints(&admin, &session->crawler());
  FOCUS_CHECK(session->crawler().Crawl().ok());
  std::printf("crawl with good = {mutual_funds}: %zu pages, final harvest "
              "= %.2f  <- dropped\n\n",
              session->crawler().visits().size(),
              FinalHarvest(session->crawler().visits()));

  const crawl::CrawlStats& cstats = session->crawler().stats();
  std::printf("hostile-web accounting: %llu attempts = %zu visits + %llu "
              "retried failures + %llu dropped urls\n\n",
              static_cast<unsigned long long>(cstats.attempts),
              session->crawler().visits().size(),
              static_cast<unsigned long long>(cstats.transient_failures),
              static_cast<unsigned long long>(cstats.dropped_urls));
  // The same counters a scraper reads from the admin server's /metrics:
  // every focus_crawl_* counter sample of the registry's Prometheus
  // exposition that moved.
  std::printf("crawl counters from the /metrics exposition:\n");
  std::istringstream exposition(
      obs::MetricsRegistry::Global().ToPrometheusText());
  for (std::string line; std::getline(exposition, line);) {
    if (line.rfind("focus_crawl_", 0) != 0) continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    if (!name.ends_with("_total") || line.ends_with(" 0")) continue;
    std::printf("  %s\n", line.c_str());
  }
  std::printf("\n");

  // --- diagnose with the census query of §3.7 ---
  std::printf("census query (select kcid, count(oid) from CRAWL group by "
              "kcid order by cnt), top classes:\n");
  auto census = crawl::ClassCensus(session->db(), system->tax());
  FOCUS_CHECK(census.ok());
  size_t n = census.value().size();
  for (size_t i = n > 6 ? n - 6 : 0; i < n; ++i) {
    std::printf("  %-20s %6lld pages\n", census.value()[i].name.c_str(),
                static_cast<long long>(census.value()[i].count));
  }
  std::printf("\nper-minute harvest (the monitoring applet's query):\n");
  auto by_minute = crawl::HarvestByMinute(session->db());
  FOCUS_CHECK(by_minute.ok());
  for (const auto& m : by_minute.value()) {
    std::printf("  minute %3lld: avg relevance %.3f over %lld pages\n",
                static_cast<long long>(m.minute), m.avg_relevance,
                static_cast<long long>(m.pages));
  }

  // --- the fix: one marking update on the ancestor category ---
  std::printf("\nfix: the neighbourhood is general business/investing "
              "material; mark the ancestor 'business' good\n\n");
  system->mutable_tax()->ClearMarks();
  FOCUS_CHECK(system->MarkGood("business").ok());

  // Provenance is a per-session story: drop the drooping crawl's events so
  // path walks below never chain into the other session's history.
  event_log.Clear();
  auto fixed = system->NewCrawl(seeds, copts).TakeValue();
  crawl::RegisterCrawlAdminEndpoints(&admin, &fixed->crawler());
  FOCUS_CHECK(fixed->crawler().Crawl().ok());
  std::printf("crawl with good = {business}: %zu pages, final harvest "
              "= %.2f  <- recovered\n",
              fixed->crawler().visits().size(),
              FinalHarvest(fixed->crawler().visits()));

  // --- provenance: how did the crawler reach its last find? ---
  // Every admit/fetch/retry/breaker decision is in the event log; the
  // canned query walks first-admit edges back to a seed (§3.7 asks "why is
  // the crawler here?" — this answers it for any URL).
  const auto& visits = fixed->crawler().visits();
  if (!visits.empty()) {
    // Prefer a multi-hop story over a seed: walk back from the last visit
    // until a path at least three hops deep turns up.
    std::vector<crawl::DiscoveryHop> best;
    for (size_t i = visits.size(); i-- > 0 && i + 200 >= visits.size();) {
      auto path =
          crawl::DiscoveryPath(event_log, fixed->db(), visits[i].oid);
      FOCUS_CHECK(path.ok());
      if (path.value().size() > best.size()) best = path.TakeValue();
      if (best.size() >= 3) break;
    }
    std::printf("\ndiscovery path of a recently visited page (%llu events "
                "logged so far):\n%s",
                static_cast<unsigned long long>(event_log.TotalRecorded()),
                crawl::FormatDiscoveryPath(best).c_str());
  }

  // --- under the hood: EXPLAIN ANALYZE the two relational workhorses ---
  // (a) The Figure 3 bulk-probe classifier plan, over a small batch of
  // mutual-fund pages, in its own scratch catalog (like the benches).
  std::vector<text::TermVector> docs;
  VirtualClock fetch_clock;
  for (const std::string& url : system->web().KeywordSeeds(funds, 6)) {
    // The web is hostile here too: retry transients a few times, skip
    // pages that stay down (the crawler proper does this via RetryPolicy).
    for (int attempt = 0; attempt < 4; ++attempt) {
      auto fetched = system->web().Fetch(url, &fetch_clock);
      if (fetched.ok()) {
        docs.push_back(text::BuildTermVector(fetched.value().tokens));
        break;
      }
    }
  }
  FOCUS_CHECK(!docs.empty());
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 4096);
  sql::Catalog catalog(&pool);
  auto tables = classify::BuildClassifierTables(&catalog, system->tax(),
                                                system->model());
  FOCUS_CHECK(tables.ok());
  classify::BulkProbeClassifier bulk(&system->classifier(),
                                     &tables.value());
  crawl::BatchRelevanceEvaluator batch_eval(&bulk, &system->classifier(),
                                            &catalog);
  sql::PlanStats classify_plan;
  FOCUS_CHECK(batch_eval.JudgeBatchWithPlan(docs, &classify_plan).ok());
  std::printf("\nEXPLAIN ANALYZE, bulk-probe classification of a %zu-page "
              "batch (Figure 3):\n%s",
              docs.size(), classify_plan.Format().c_str());

  // (b) One Figure 4 distillation iteration over the recovered crawl's
  // link graph (Distill first seeds HUBS/AUTH and refreshes edge weights).
  distill::HitsOptions hopts;
  FOCUS_CHECK(fixed->Distill(hopts, 5).ok());
  distill::JoinDistiller distiller(fixed->distill_tables());
  FOCUS_CHECK(distiller.Initialize().ok());  // reseed HUBS, bind columns
  sql::PlanStats distill_plan;
  FOCUS_CHECK(distiller.RunIterationWithPlan(hopts.rho, &distill_plan).ok());
  std::printf("\nEXPLAIN ANALYZE, one HITS iteration as joins "
              "(Figure 4):\n%s",
              distill_plan.Format().c_str());

  // --- where the batch engine spent its time, process-wide ---
  // Every instrumented BatchOperator::NextBatch feeds the global registry
  // (see sql/exec/batch_ops.h): batches produced, a rows-per-batch
  // histogram, and per-operator self time. Summed over both crawls plus
  // the two plans above, this is the engine's own profile of where
  // classification and distillation time went.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto batch_counters = registry.CounterValues();
  obs::HistogramSnapshot rows_per_batch =
      registry.GetHistogram("focus_sql_rows_per_batch")->Snapshot();
  std::printf("\nbatch engine counters (process-wide):\n");
  std::printf("  batches produced: %llu; rows/batch mean %.0f, "
              "p50 ~%.0f, p99 ~%.0f\n",
              static_cast<unsigned long long>(
                  batch_counters["focus_sql_batches_total"]),
              rows_per_batch.Mean(), rows_per_batch.Quantile(0.5),
              rows_per_batch.Quantile(0.99));
  const std::string kOpPrefix = "focus_sql_batch_op_micros_total{op=\"";
  std::vector<std::pair<uint64_t, std::string>> op_micros;
  for (const auto& [key, value] : batch_counters) {
    if (key.rfind(kOpPrefix, 0) != 0) continue;
    std::string op = key.substr(kOpPrefix.size());
    if (size_t quote = op.find('"'); quote != std::string::npos) {
      op.resize(quote);
    }
    op_micros.emplace_back(value, op);
  }
  std::sort(op_micros.rbegin(), op_micros.rend());
  std::printf("  self time by operator:\n");
  for (const auto& [micros, op] : op_micros) {
    std::printf("    %-18s %9.2f ms\n", op.c_str(), micros / 1000.0);
  }

  // Keep serving so a scraper (the CI smoke job, a human with curl) can
  // hit the admin endpoints after the tour finishes.
  if (admin.running() && admin_linger_s > 0) {
    std::printf("\nlingering %d s for admin scrapes...\n", admin_linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(admin_linger_s));
  }
  admin.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  int admin_port = -1;   // -1 = no admin server
  int admin_linger_s = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--admin-port") == 0 && i + 1 < argc) {
      admin_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--admin-linger") == 0 && i + 1 < argc) {
      admin_linger_s = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--admin-port N] [--admin-linger SECONDS]\n",
                   argv[0]);
      return 2;
    }
  }
  return Run(admin_port, admin_linger_s);
}
