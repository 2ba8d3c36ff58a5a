// The focused crawler (§2, §3.2): fetch → classify → expand, driven by the
// classifier's relevance judgments and (optionally) periodic distillation.
#ifndef FOCUS_CRAWL_CRAWLER_H_
#define FOCUS_CRAWL_CRAWLER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crawl/circuit_breaker.h"
#include "crawl/crawl_db.h"
#include "crawl/frontier.h"
#include "crawl/relevance_evaluator.h"
#include "crawl/retry_policy.h"
#include "distill/distiller.h"
#include "sql/catalog.h"
#include "util/clock.h"
#include "webgraph/simulated_web.h"

namespace focus::obs {
class EventLog;
class MetricsRegistry;
}  // namespace focus::obs

namespace focus::crawl {

// How relevance judgments gate link expansion (§2.1.2).
enum class ExpansionRule {
  // Insert outlinks always; the frontier priority (relevance-ordered) does
  // the focusing. The paper's preferred, stagnation-robust rule.
  kSoftFocus,
  // Expand only when the best leaf class has a good ancestor-or-self.
  // Faithful to the paper's description — and to its failure mode: crawls
  // can stagnate (§2.1.2, §3.7).
  kHardFocus,
  // Ignore the classifier for control (still recorded for measurement):
  // the standard-crawler baseline of Figure 5(a).
  kUnfocused,
};

// Routes link discoveries whose target belongs to another crawl shard
// (distributed crawl, src/dist). When a crawler has a sink, expansion of a
// non-owned target journals an admission for the owner (CrawlDb's OUTBOX)
// instead of touching the local frontier; the LINK row is still recorded
// locally, so the crawl graph stays lossless. All calls arrive under the
// crawler's state lock, inside the batch that will commit them.
class CrossShardLinkSink {
 public:
  virtual ~CrossShardLinkSink() = default;
  // True when this crawler's shard owns `url`.
  virtual bool Owns(std::string_view url) const = 0;
  // Journals an admission of `dst_url` discovered by `src_oid`.
  // `raise_if_known` carries the local expansion semantics the owner must
  // mirror (see ExchangeLink::raise_if_known).
  virtual Status ExportLink(uint64_t src_oid, std::string_view dst_url,
                            double relevance, bool raise_if_known) = 0;
};

struct CrawlerOptions {
  int max_fetches = 6000;
  int max_retries = 3;
  ExpansionRule expansion = ExpansionRule::kSoftFocus;
  PriorityPolicy policy = PriorityPolicy::kAggressiveDiscovery;

  // Periodic distillation (0 = off): every `distill_every` visits, refresh
  // edge weights, run the join distiller and raise the priority of
  // unvisited pages cited by the top hubs (§3.2, §3.7). The HITS
  // iterations run beside the fetch workers; the raises land half a
  // period after the snapshot (see DESIGN.md).
  int distill_every = 0;
  // For the kPageRankOrder policy: recompute PageRank over the known
  // crawl graph every `pagerank_every` visits and refresh frontier
  // priorities (0 = at seed time only).
  int pagerank_every = 0;
  int distill_iterations = 5;
  double distill_rho = 0.0;
  int top_hubs_to_boost = 15;
  double hub_boost_relevance = 0.9;

  // §3.2's URL-truncation device: when expanding links, also enqueue the
  // host root ("http://host/") of each target, hunting for server index
  // pages.
  bool try_truncated_urls = false;
  // §3.2's backward-crawling device: after fetching a strongly relevant
  // page, enqueue pages that point to it (they are radius-2 hub
  // candidates). Requires the web's backlink metadata service.
  bool expand_backlinks = false;
  int backlinks_per_page = 5;
  double backlink_relevance_threshold = 0.5;

  int num_threads = 1;
  // Pages accumulated by a fetch worker before one batched classify call
  // (the paper's §2.1.3 batching insight applied to the live crawl loop).
  // Applies when num_threads > 1. A single-threaded crawl runs one worker
  // with batch size 1, so it judges and expands page by page in the
  // classic, deterministic order.
  int classify_batch_size = 32;

  // Hostile-web handling: failure classification + backoff (budgeted by
  // max_retries) and per-server circuit breakers. Both make purely
  // time-shifting decisions, so the set of pages a crawl-to-exhaustion
  // visits is identical at any thread count.
  RetryPolicyOptions retry;
  CircuitBreakerOptions breaker;

  // Every Nth committed crawl batch is promoted to a CrawlDb::Checkpoint
  // (overlay flush + log truncation), so crash recovery replays at most
  // one interval of commits. 0 disables periodic checkpoints. No-op
  // without a WAL-backed CrawlDb.
  int checkpoint_every_batches = 64;

  // Registry for the crawler's stage metrics and its boosts' distiller
  // gauges ({distiller="crawl_boost"}); nullptr = process-global.
  // Benchmarks pass a private registry so repeated runs start from zero.
  obs::MetricsRegistry* metrics_registry = nullptr;

  // Provenance event log; nullptr = disabled (the default — the hot path
  // then pays only a branch per would-be event). When set, the crawler
  // records the full URL lifecycle and attaches the log to its frontier,
  // breaker registry and retry policy.
  obs::EventLog* event_log = nullptr;

  // Distributed crawl hooks (src/dist). `link_sink` diverts expansion of
  // non-owned URLs into the cross-shard exchange; nullptr = single-shard
  // behavior. `interrupt` is polled with the current virtual time at every
  // batch boundary; a non-OK return aborts the crawl with that status
  // (the ShardFaultPlan's scheduled shard deaths). Both borrowed/copied;
  // the sink must outlive the crawler.
  CrossShardLinkSink* link_sink = nullptr;
  std::function<Status(int64_t virtual_us)> interrupt;
};

struct Visit {
  int fetch_index = 0;  // 0-based order of successful fetches
  uint64_t oid = 0;
  std::string url;
  double relevance = 0;
  taxonomy::Cid best_leaf = 0;
  int64_t virtual_time_us = 0;
};

struct CrawlStats {
  uint64_t attempts = 0;
  // Failed attempts that were rescheduled with backoff (transient /
  // timeout / outage classes). attempts == visits + transient_failures +
  // dropped_urls.
  uint64_t transient_failures = 0;
  // Entries abandoned: permanent (404) failures plus retry-budget
  // exhaustion. Deterministic per seed, unlike the timing-dependent
  // attempt counts.
  uint64_t dropped_urls = 0;
  // Frontier pops re-parked because the server's breaker was open.
  uint64_t breaker_skips = 0;
  uint64_t distill_rounds = 0;
  bool stagnated = false;  // frontier ran dry before the budget
};

class StageMetrics;

class Crawler {
 public:
  // `catalog`, the crawl store's, is not used: boosts keep HUBS/AUTH in a
  // private catalog (see distill_tables()). All pointers must outlive the
  // crawler.
  Crawler(webgraph::SimulatedWeb* web, RelevanceEvaluator* evaluator,
          CrawlDb* db, sql::Catalog* catalog, CrawlerOptions options);
  ~Crawler();

  // Registers a start URL with relevance estimate 1.
  Status AddSeed(std::string_view url);

  // Rebuilds the in-memory frontier from the CRAWL table — the recovery
  // path §3.1 motivates ("Few pages on the Web are formally checked for
  // well-formedness, hence all crawlers crash"): the table is the durable
  // crawl state; a fresh Crawler over the same CrawlDb resumes where the
  // dead one stopped. Unvisited rows within the retry limit re-enter the
  // frontier with their stored priority fields; visited rows seed the
  // link-dedup set so resumed revisits do not duplicate LINK rows.
  Status ResumeFromDb();

  // Runs until the fetch budget is spent or the frontier stagnates. A
  // distillation boost still iterating at the end is applied before the
  // final commit, so no boost outlives the call.
  Status Crawl();

  const std::vector<Visit>& visits() const { return visits_; }
  const CrawlStats& stats() const { return stats_; }
  const VirtualClock& clock() const { return clock_; }
  // The frontier, for inspection while no Crawl() runs (workers mutate it
  // under state_mutex_). A running crawl is read via TakeFrontierCensus().
  const Frontier& frontier() const { return frontier_; }
  // Live, parked and next-ready counts in one pass under the state lock;
  // safe while a crawl runs (the admin /frontier endpoint).
  FrontierCensus TakeFrontierCensus();
  // Breaker states, for the admin /frontier endpoint (internally locked).
  const CircuitBreakerRegistry& breakers() const { return breaker_; }
  // Per-stage pipeline counters (fetch/classify/expand time, lock wait,
  // batch occupancy, frontier pops).
  const StageMetrics& stage_metrics() const { return *stage_metrics_; }
  CrawlDb* db() const { return db_; }
  // The boosts' distiller tables: LINK and CRAWL of the crawl store, and
  // HUBS/AUTH in the crawler's private in-memory catalog (their pages
  // never enter the crawl store or its WAL). HUBS/AUTH are null until the
  // first boost, and hold the last applied boost's scores between crawls.
  const distill::DistillTables& distill_tables() const {
    return distill_tables_;
  }

  // Switches the frontier ordering mid-crawl (§3.2's dynamically
  // reconfigurable priority controls).
  void SetPolicy(PriorityPolicy policy);

  // Crawl maintenance (§3.2): re-enqueues up to `count` already-visited
  // pages under the (lastvisited asc, hub_score desc) ordering and raises
  // the fetch budget accordingly. `hubs` supplies hub scores from a
  // distillation round (may be null). Switches the frontier policy to
  // kRevisitHubs; under that ordering never-visited frontier entries
  // (lastvisited = 0) still drain first, then the stalest pages. Re-visits
  // refresh relevance, class and lastvisited; links are recorded only on
  // the first visit.
  Status ScheduleRevisits(const sql::Table* hubs, int count);

  // Applies one cross-shard admission delivered by the link exchange:
  // unknown URLs enter CRAWL and the frontier with `relevance` as their
  // estimate; known unvisited rows are raised to `relevance` when
  // `raise_if_known` (max semantics, so redelivery after a crash is
  // idempotent); visited rows are no-ops. The caller owns durability —
  // admissions and the exchange watermark commit as one batch.
  Status AdmitRemoteLink(std::string_view url, double relevance,
                         int64_t parent_oid, bool raise_if_known);

 private:
  // A page that cleared the fetch stage, waiting for classification.
  struct FetchedPage {
    FrontierEntry entry;
    webgraph::SimulatedWeb::FetchResult fetch;
    int64_t fetched_at_us = 0;  // the fetching worker's virtual time
  };

  // The crawl loop: num_threads workers popping one frontier in its
  // global priority order, micro-batched classification and short critical
  // sections. One thread is one worker with batch size 1.
  Status RunPipeline();
  // One worker's loop; `worker_clock` accumulates the worker's virtual
  // fetch timeline.
  Status PipelineWorker(VirtualClock* worker_clock);
  // Pops up to classify_batch_size entries ready at the worker's virtual
  // time and admitted by their server's breaker, reserving each against
  // the fetch budget via in_flight_. The whole batch's reservations, pops
  // and breaker re-parks share one state_mutex_ critical section.
  std::vector<FrontierEntry> GatherBatch(VirtualClock* worker_clock);
  // Classifies a failed fetch, charges its retry budget (persisting via
  // CrawlDb::RecordFailure) and either drops the entry or re-parks it with
  // backoff. Caller holds state_mutex_.
  Status HandleFetchFailure(const FrontierEntry& entry, const Status& error,
                            int64_t at_us);
  // Records a breaker transition (metrics + persistence dirty queue).
  void NoteBreakerOutcome(const BreakerOutcome& outcome);
  // Writes queued breaker transitions to the BREAKER table. Caller holds
  // state_mutex_.
  Status FlushBreakerState();
  // Records a classified batch and stages its WAL commit under one state
  // critical section, then awaits the commit's durability off the lock.
  Status RecordBatch(std::vector<FetchedPage>* pages,
                     const std::vector<PageJudgment>& judgments);
  // Applies the pending boost once its apply point is reached, then
  // starts any distillation / runs any PageRank refresh whose visit
  // threshold has been crossed. Caller holds state_mutex_.
  Status RunPeriodicBoosts();
  // Stages the current batch's WAL commit; the caller awaits the ticket
  // (CrawlDb::AwaitCommit) after releasing state_mutex_, so log order is
  // state_mutex_ order while the log I/O runs off the lock. Every
  // checkpoint_every_batches-th commit is instead a full checkpoint, run
  // inline (empty ticket), so the WAL never holds more than one interval
  // of commits. Caller holds state_mutex_.
  Result<storage::CommitTicket> StageBatchCommit();

  // `at_us` is the visit's virtual time (stamps admit events).
  Status ExpandLinks(const webgraph::SimulatedWeb::FetchResult& fetch,
                     const PageJudgment& judgment, int64_t at_us);
  // The one admission rule behind every expansion path (outlinks, host
  // roots, backlink citers, cross-shard deliveries; see
  // ExchangeLink::raise_if_known). An unknown URL enters CRAWL and the
  // frontier with `relevance` as its estimate, counting a backlink only
  // when `raise_if_known`. A known unvisited row, when `raise_if_known`,
  // counts the backlink, is raised to `relevance` (max) and re-ranked with
  // its server's current load; other known rows are left alone. `aux`
  // tags the kFrontierAdmit event. Caller holds state_mutex_.
  Status AdmitLink(std::string_view url, double relevance, int64_t parent_oid,
                   int64_t at_us, bool raise_if_known, int64_t aux);
  // Journals a non-owned link target into the sink, suppressing exports
  // the owner would no-op (same estimate or lower for raise-mode targets;
  // any repeat for admit-if-unknown targets). Caller holds state_mutex_.
  Status ExportRemoteLink(uint64_t src_oid, const std::string& dst_url,
                          double relevance, bool raise_if_known);
  // A distillation boost in three steps. StartBoost snapshots the graph
  // (edge-weight refresh, Initialize, Prepare) and hands the HITS
  // iterations to a boost thread, which never takes state_mutex_;
  // ApplyBoost joins that thread and raises the pages its top hubs cite.
  // Caller holds state_mutex_ for both.
  Status StartBoost();
  Status ApplyBoost();
  // Recomputes PageRank over LINK and pushes the scores into the frontier
  // (the Cho et al. perceived-prestige ordering).
  Status RefreshPageRankPriorities();

  webgraph::SimulatedWeb* web_;
  RelevanceEvaluator* evaluator_;
  CrawlDb* db_;
  CrawlerOptions options_;
  Frontier frontier_;  // guarded by state_mutex_
  VirtualClock clock_;
  distill::DistillTables distill_tables_;
  // The in-memory store behind HUBS/AUTH, made by the first boost.
  struct BoostStore;
  std::unique_ptr<BoostStore> boost_store_;
  // The boost between its snapshot and its apply; at most one (guarded by
  // state_mutex_, except for the thread it owns, which reads
  // boost_store_'s tables and is joined before either is destroyed).
  struct PendingBoost;
  std::unique_ptr<PendingBoost> boost_;
  std::unique_ptr<StageMetrics> stage_metrics_;
  RetryPolicy retry_policy_;
  CircuitBreakerRegistry breaker_;
  // Breaker transitions awaiting persistence. Appended lock-free of the
  // crawl state (own small mutex, safe from fetch workers); drained into
  // the BREAKER table by FlushBreakerState under state_mutex_.
  std::mutex breaker_dirty_mu_;
  std::vector<BreakerRecord> breaker_dirty_;

  std::unordered_map<int32_t, int32_t> server_fetches_;
  // Pages whose outlinks are already in LINK (revisits must not duplicate
  // edges).
  std::unordered_set<uint64_t> links_recorded_;
  // Citations seen so far per unvisited page (Cho backlink ordering).
  std::unordered_map<uint64_t, int32_t> backlink_counts_;
  // Export dedup (guarded by state_mutex_): best estimate already
  // journaled per raise-mode target, and admit-if-unknown targets already
  // journaled once. Purely an outbox-volume optimization — both are lost
  // on a crash and re-exports are idempotent at the owner.
  std::unordered_map<uint64_t, double> raise_exported_;
  std::unordered_set<uint64_t> admit_exported_;
  std::vector<Visit> visits_;
  CrawlStats stats_;
  // Visit counts at which the next distillation / PageRank refresh fire
  // (thresholds rather than modulo so batched recording cannot step over a
  // trigger).
  uint64_t next_distill_at_ = 0;
  uint64_t next_pagerank_at_ = 0;
  // Commits since the last periodic checkpoint (guarded by state_mutex_).
  int commits_since_checkpoint_ = 0;

  // Fetches reserved against the budget but not yet recorded or failed.
  std::atomic<int> in_flight_{0};
  // Set when a pipeline worker fails, so its peers stop instead of waiting
  // on reservations that will never be released.
  std::atomic<bool> abort_{false};
  // Guards frontier_, db_, visits_, stats_, server/backlink/link
  // bookkeeping and the periodic-boost thresholds. The web is reentrant, so
  // fetch workers contend here only to reserve-and-pop and to record.
  std::mutex state_mutex_;
  // Signaled when budget or frontier state changes; idle workers wait.
  std::condition_variable work_cv_;
};

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_CRAWLER_H_
