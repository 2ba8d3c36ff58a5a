#include "crawl/crawler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "crawl/metrics.h"
#include "distill/join_distiller.h"
#include "distill/pagerank.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/clock.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace focus::crawl {

namespace {
// A boost applies at the first batch boundary half a period (of
// distill_every visits) after its snapshot, leaving its iterations that
// long to run beside the workers. The apply point is a visit count, so
// crawl order stays a function of batch boundaries alone.
constexpr int kBoostApplyLagDivisor = 2;
// Frames of the boosts' private HUBS/AUTH pool.
constexpr size_t kBoostPoolFrames = 512;
}  // namespace

struct Crawler::BoostStore {
  storage::MemDiskManager disk;
  storage::BufferPool pool{&disk, kBoostPoolFrames};
  sql::Catalog catalog{&pool};
};

struct Crawler::PendingBoost {
  explicit PendingBoost(const distill::DistillTables& tables)
      : distiller(tables) {}
  // A boost is freed only after its thread is joined, however the crawl
  // ends (ApplyBoost joins first; this covers ~Crawler).
  ~PendingBoost() {
    if (thread.joinable()) thread.join();
  }
  PendingBoost(const PendingBoost&) = delete;
  PendingBoost& operator=(const PendingBoost&) = delete;

  // Holds the snapshot sets until the boost is applied and freed.
  distill::JoinDistiller distiller;
  uint64_t apply_at = 0;  // visits_.size() at which the raises apply
  // Written by `thread`; read only after joining it.
  Status status;
  std::vector<std::pair<uint64_t, double>> top_hubs;
  std::thread thread;
};

Crawler::Crawler(webgraph::SimulatedWeb* web, RelevanceEvaluator* evaluator,
                 CrawlDb* db, sql::Catalog* /*catalog*/,
                 CrawlerOptions options)
    : web_(web),
      evaluator_(evaluator),
      db_(db),
      options_(options),
      frontier_(options.policy),
      stage_metrics_(std::make_unique<StageMetrics>(options.metrics_registry)),
      retry_policy_(options.retry, options.max_retries),
      breaker_(options.breaker) {
  // A single worker judges page by page, so it expands each page's links
  // before its next pop: the classic fetch-classify-expand order.
  if (options_.num_threads <= 1) {
    options_.num_threads = 1;
    options_.classify_batch_size = 1;
  }
  if (options_.classify_batch_size < 1) options_.classify_batch_size = 1;
  next_distill_at_ = options_.distill_every;
  next_pagerank_at_ = options_.pagerank_every;
  if (options_.event_log != nullptr) {
    frontier_.SetEventLog(options_.event_log);
    breaker_.SetEventLog(options_.event_log);
    retry_policy_.SetEventLog(options_.event_log);
  }
}

Crawler::~Crawler() = default;

Status Crawler::AddSeed(std::string_view url) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  Status s = db_->AddUrl(url, /*relevance_estimate=*/1.0, /*serverload=*/0);
  if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  FrontierEntry entry;
  entry.oid = UrlOid(url);
  entry.url = std::string(url);
  entry.relevance = 1.0;
  frontier_.AddOrUpdate(entry);
  if (options_.event_log != nullptr) {
    // Seeds are discovery roots: no parent.
    options_.event_log->Record(obs::CrawlEventType::kFrontierAdmit,
                               static_cast<int64_t>(entry.oid),
                               /*parent_oid=*/-1, ServerIdOf(url),
                               clock_.NowMicros(), /*value=*/1.0, /*aux=*/0);
  }
  return Status::OK();
}

FrontierCensus Crawler::TakeFrontierCensus() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return frontier_.Census();
}

void Crawler::SetPolicy(PriorityPolicy policy) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  frontier_.SetPolicy(policy);
}

Result<storage::CommitTicket> Crawler::StageBatchCommit() {
  if (options_.checkpoint_every_batches > 0 &&
      ++commits_since_checkpoint_ >= options_.checkpoint_every_batches) {
    commits_since_checkpoint_ = 0;
    // Checkpoint subsumes Commit: the WAL protocol logs the pending batch,
    // flushes the overlay and truncates the log, so recovery replay is
    // bounded by one checkpoint interval of commits. It runs inline, since
    // folding the overlay needs every other batch outside its record
    // section; the batch is durable on return (empty ticket).
    FOCUS_RETURN_IF_ERROR(db_->Checkpoint());
    return storage::CommitTicket{};
  }
  return db_->StageCommit();
}

Status Crawler::HandleFetchFailure(const FrontierEntry& entry,
                                   const Status& error, int64_t at_us) {
  FailureClass cls = ClassifyFetchFailure(error);
  stage_metrics_->RecordFetchFailure(cls);
  if (options_.event_log != nullptr) {
    options_.event_log->Record(obs::CrawlEventType::kFetchFailure,
                               static_cast<int64_t>(entry.oid),
                               /*parent_oid=*/-1, ServerIdOf(entry.url),
                               at_us, /*value=*/entry.relevance,
                               /*aux=*/static_cast<int64_t>(cls));
  }
  RetryPolicy::Decision d = retry_policy_.Decide(entry, cls, at_us);
  FOCUS_RETURN_IF_ERROR(
      db_->RecordFailure(entry.oid, d.cost, d.drop ? 0 : d.ready_at_us));
  if (d.drop) {
    ++stats_.dropped_urls;
    stage_metrics_->RecordDrop(cls == FailureClass::kPermanent);
    return Status::OK();
  }
  ++stats_.transient_failures;
  stage_metrics_->RecordRetry(cls, d.backoff_s);
  FrontierEntry retry = entry;
  retry.numtries += d.cost;
  retry.serverload = server_fetches_[ServerIdOf(retry.url)];
  retry.ready_at_us = d.ready_at_us;
  frontier_.AddOrUpdate(retry);
  return Status::OK();
}

void Crawler::NoteBreakerOutcome(const BreakerOutcome& outcome) {
  if (!outcome.transitioned) return;
  stage_metrics_->RecordBreakerTransition(outcome.record.state);
  stage_metrics_->SetOpenBreakers(static_cast<double>(breaker_.open_count()));
  std::lock_guard<std::mutex> lock(breaker_dirty_mu_);
  breaker_dirty_.push_back(outcome.record);
}

Status Crawler::FlushBreakerState() {
  std::vector<BreakerRecord> dirty;
  {
    std::lock_guard<std::mutex> lock(breaker_dirty_mu_);
    dirty.swap(breaker_dirty_);
  }
  // Duplicate sids upsert in queue order, so the latest transition wins.
  for (const BreakerRecord& rec : dirty) {
    FOCUS_RETURN_IF_ERROR(db_->UpsertBreaker(rec));
  }
  return Status::OK();
}

Status Crawler::RunPeriodicBoosts() {
  if (boost_ != nullptr && visits_.size() >= boost_->apply_at) {
    FOCUS_RETURN_IF_ERROR(ApplyBoost());
  }
  while (options_.distill_every > 0 && next_distill_at_ > 0 &&
         visits_.size() >= next_distill_at_) {
    // One boost in flight: a trigger that finds one pending applies it
    // first, so every period still counts exactly one round.
    if (boost_ != nullptr) FOCUS_RETURN_IF_ERROR(ApplyBoost());
    FOCUS_RETURN_IF_ERROR(StartBoost());
    next_distill_at_ += options_.distill_every;
  }
  while (options_.policy == PriorityPolicy::kPageRankOrder &&
         options_.pagerank_every > 0 && next_pagerank_at_ > 0 &&
         visits_.size() >= next_pagerank_at_) {
    FOCUS_RETURN_IF_ERROR(RefreshPageRankPriorities());
    next_pagerank_at_ += options_.pagerank_every;
  }
  return Status::OK();
}

Status Crawler::RefreshPageRankPriorities() {
  // Build the known crawl graph from LINK.
  std::unordered_map<uint64_t, uint32_t> node_index;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  auto index_of = [&](uint64_t oid) {
    auto [it, inserted] = node_index.try_emplace(
        oid, static_cast<uint32_t>(node_index.size()));
    return it->second;
  };
  {
    auto it = db_->link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      edges.emplace_back(
          index_of(static_cast<uint64_t>(row.Get(0).AsInt64())),
          index_of(static_cast<uint64_t>(row.Get(2).AsInt64())));
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  std::vector<double> rank = distill::PageRank(node_index.size(), edges);
  for (FrontierEntry entry : frontier_.Snapshot()) {
    auto it = node_index.find(entry.oid);
    entry.hub_score = it == node_index.end() ? 0.0 : rank[it->second];
    frontier_.AddOrUpdate(entry);
  }
  return Status::OK();
}

Status Crawler::ExpandLinks(const webgraph::SimulatedWeb::FetchResult& fetch,
                            const PageJudgment& judgment, int64_t at_us) {
  bool expand_frontier = true;
  if (options_.expansion == ExpansionRule::kHardFocus) {
    expand_frontier = judgment.best_leaf_is_good;
  }
  const int64_t src_oid = static_cast<int64_t>(UrlOid(fetch.url));
  // Revisits must not duplicate LINK rows.
  bool record_links = links_recorded_.insert(UrlOid(fetch.url)).second;
  for (const std::string& dst : fetch.outlink_urls) {
    // The LINK table records the crawl graph regardless of the expansion
    // decision; only frontier insertion is gated.
    if (record_links) {
      FOCUS_RETURN_IF_ERROR(db_->AddLink(fetch.url, dst));
    }
    if (!expand_frontier) continue;

    if (options_.link_sink != nullptr && !options_.link_sink->Owns(dst)) {
      // Cross-shard target (its whole server belongs to another shard, so
      // its host root does too): journal the admission for the owner and
      // leave the local frontier alone.
      if (options_.try_truncated_urls) {
        std::string root = TruncateToHostRoot(dst);
        if (root != dst) {
          FOCUS_RETURN_IF_ERROR(
              ExportRemoteLink(UrlOid(fetch.url), root, judgment.relevance,
                               /*raise_if_known=*/false));
        }
      }
      FOCUS_RETURN_IF_ERROR(ExportRemoteLink(UrlOid(fetch.url), dst,
                                             judgment.relevance,
                                             /*raise_if_known=*/true));
      continue;
    }
    if (options_.try_truncated_urls) {
      // Also consider the target's host root (server index pages are often
      // excellent resource lists).
      std::string root = TruncateToHostRoot(dst);
      if (root != dst) {
        FOCUS_RETURN_IF_ERROR(AdmitLink(root, judgment.relevance, src_oid,
                                        at_us, /*raise_if_known=*/false,
                                        /*aux=*/1));
      }
    }
    FOCUS_RETURN_IF_ERROR(AdmitLink(dst, judgment.relevance, src_oid, at_us,
                                    /*raise_if_known=*/true, /*aux=*/0));
  }
  return Status::OK();
}

Status Crawler::ExportRemoteLink(uint64_t src_oid, const std::string& dst_url,
                                 double relevance, bool raise_if_known) {
  uint64_t dst_oid = UrlOid(dst_url);
  if (raise_if_known) {
    // The owner applies max-raise semantics, so only a strictly better
    // estimate is worth journaling. The dedup map is in-memory: a crash
    // loses it and the replayed batch re-exports, which the owner no-ops.
    auto [it, inserted] = raise_exported_.try_emplace(dst_oid, relevance);
    if (!inserted) {
      if (relevance <= it->second) return Status::OK();
      it->second = relevance;
    }
  } else {
    // Admit-if-unknown targets never raise existing rows, so one export
    // is enough.
    if (!admit_exported_.insert(dst_oid).second) return Status::OK();
  }
  return options_.link_sink->ExportLink(src_oid, dst_url, relevance,
                                        raise_if_known);
}

Status Crawler::AdmitLink(std::string_view url, double relevance,
                          int64_t parent_oid, int64_t at_us,
                          bool raise_if_known, int64_t aux) {
  uint64_t oid = UrlOid(url);
  int32_t sid = ServerIdOf(url);
  int32_t load = server_fetches_[sid];
  FOCUS_ASSIGN_OR_RETURN(std::optional<UrlProbe> known, db_->Probe(oid));
  if (!known.has_value()) {
    FOCUS_RETURN_IF_ERROR(db_->InsertUrl(oid, url, relevance, load));
    FrontierEntry entry;
    entry.oid = oid;
    entry.url = std::string(url);
    entry.relevance = relevance;
    entry.serverload = load;
    // Only a citation counts as a backlink; a host root or a citer is
    // admitted without one.
    if (raise_if_known) entry.backlinks = ++backlink_counts_[oid];
    frontier_.AddOrUpdate(entry);
    if (options_.event_log != nullptr) {
      options_.event_log->Record(obs::CrawlEventType::kFrontierAdmit,
                                 static_cast<int64_t>(oid), parent_oid, sid,
                                 at_us, relevance, aux);
    }
    return Status::OK();
  }
  if (!raise_if_known || known->visited) return Status::OK();
  // A better citation raises the unvisited page's priority; every citation
  // raises its backlink count (Cho ordering signal).
  int32_t backlinks = ++backlink_counts_[oid];
  if (relevance > known->relevance) {
    FOCUS_RETURN_IF_ERROR(db_->RaiseRelevance(known->rid, relevance));
  }
  frontier_.Rerank(oid, [&](FrontierEntry* entry) {
    entry->relevance = std::max(entry->relevance, relevance);
    entry->serverload = load;
    entry->backlinks = backlinks;
  });
  return Status::OK();
}

Status Crawler::AdmitRemoteLink(std::string_view url, double relevance,
                                int64_t parent_oid, bool raise_if_known) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return AdmitLink(url, relevance, parent_oid, clock_.NowMicros(),
                   raise_if_known, /*aux=*/3);
}

Status Crawler::StartBoost() {
  FOCUS_SPAN("crawl.distill_boost");
  if (boost_store_ == nullptr) {
    boost_store_ = std::make_unique<BoostStore>();
    distill_tables_.link = db_->link_table();
    distill_tables_.crawl = db_->crawl_table();
    FOCUS_RETURN_IF_ERROR(distill::CreateHubsAuthTables(
        &boost_store_->catalog, &distill_tables_));
  }
  // The snapshot: everything the iterations read of LINK and CRAWL is
  // copied out here, under the lock.
  FOCUS_RETURN_IF_ERROR(db_->RefreshEdgeWeights());
  auto boost = std::make_unique<PendingBoost>(distill_tables_);
  boost->distiller.EnableResidualTracking(true);
  FOCUS_RETURN_IF_ERROR(boost->distiller.Initialize());
  FOCUS_RETURN_IF_ERROR(boost->distiller.Prepare(options_.distill_rho));
  boost->apply_at =
      visits_.size() + options_.distill_every / kBoostApplyLagDivisor;
  distill::HitsOptions hits_options;
  hits_options.iterations = options_.distill_iterations;
  hits_options.rho = options_.distill_rho;
  PendingBoost* b = boost.get();
  b->thread = std::thread([b, hits_options, hubs = distill_tables_.hubs,
                           k = options_.top_hubs_to_boost] {
    FOCUS_SPAN("crawl.distill_iterate");
    b->status = [&]() -> Status {
      FOCUS_RETURN_IF_ERROR(b->distiller.RunIterations(hits_options));
      FOCUS_ASSIGN_OR_RETURN(auto hub_scores, distill::CollectScores(hubs));
      std::unordered_map<uint64_t, distill::HubAuthScore> scores;
      for (const auto& [oid, score] : hub_scores) scores[oid].hub = score;
      b->top_hubs = distill::HitsEngine::TopHubs(scores, k);
      return Status::OK();
    }();
  });
  boost_ = std::move(boost);
  return Status::OK();
}

Status Crawler::ApplyBoost() {
  std::unique_ptr<PendingBoost> boost = std::move(boost_);
  Stopwatch wait;
  boost->thread.join();
  stage_metrics_->AddBoostWaitSeconds(wait.ElapsedSeconds());
  FOCUS_RETURN_IF_ERROR(boost->status);
  // Sessions label their own distillations "session-N", so the boost's
  // health gauges never overwrite theirs.
  boost->distiller.ExportMetrics(options_.metrics_registry, "crawl_boost");
  stage_metrics_->RecordDistillResiduals(boost->distiller.residuals());
  ++stats_.distill_rounds;

  // Raise priority of unvisited pages cited by the top hubs (§3.7's
  // "possibly missed neighbors of great hubs").
  sql::Table* link = db_->link_table();
  int by_src = link->IndexId("by_src");
  const double boost_to = options_.hub_boost_relevance;
  for (const auto& [hub_oid, score] : boost->top_hubs) {
    std::vector<storage::Rid> rids;
    FOCUS_RETURN_IF_ERROR(link->IndexLookup(
        by_src, {sql::Value::Int64(static_cast<int64_t>(hub_oid))}, &rids));
    for (const auto& rid : rids) {
      uint64_t dst_oid = 0;
      FOCUS_RETURN_IF_ERROR(
          link->VisitAt(rid, [&dst_oid](const sql::RecordView& row) {
            dst_oid = static_cast<uint64_t>(row.GetInt64(2));
            return Status::OK();
          }));
      const double hub_score = score;
      bool in_frontier = frontier_.Rerank(dst_oid, [&](FrontierEntry* e) {
        e->relevance = std::max(e->relevance, boost_to);
        e->hub_score = hub_score;
      });
      if (in_frontier) {
        FOCUS_RETURN_IF_ERROR(db_->RaiseRelevance(dst_oid, boost_to));
      }
    }
  }
  return Status::OK();
}

Status Crawler::ResumeFromDb() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  // Event reconciliation: a crash lost the in-memory rings, but the WAL
  // replayed the durable CRAWL/LINK state — re-emit the discovery history
  // from it, in table-scan order (heap insertion order == the commit order
  // the WAL recovered), flagged `reconciled`. The discovering parent of a
  // page is its earliest recorded citation.
  obs::EventLog* elog = options_.event_log;
  // Visit times gate which citations are plausible discoveries, so the
  // CRAWL rows are collected up front (they are re-walked below anyway).
  std::vector<CrawlRecord> records;
  std::unordered_map<uint64_t, int64_t> visited_at;
  {
    auto crawl_it = db_->crawl_table()->Scan();
    storage::Rid crawl_rid;
    sql::Tuple crawl_row;
    while (crawl_it.Next(&crawl_rid, &crawl_row)) {
      records.push_back(CrawlDb::RecordFromTuple(crawl_row));
      const CrawlRecord& rec = records.back();
      if (rec.visited) visited_at.emplace(rec.oid, rec.lastvisited);
    }
    FOCUS_RETURN_IF_ERROR(crawl_it.status());
  }
  std::unordered_map<uint64_t, uint64_t> first_citer;
  if (elog != nullptr) {
    auto link_it = db_->link_table()->Scan();
    storage::Rid link_rid;
    sql::Tuple link_row;
    while (link_it.Next(&link_rid, &link_row)) {
      uint64_t src = static_cast<uint64_t>(link_row.Get(0).AsInt64());
      uint64_t dst = static_cast<uint64_t>(link_row.Get(2).AsInt64());
      // LINK is a graph with cycles (a seed gets cited by its own
      // descendants), but discovery is causal: a citation only counts
      // when the citer was itself visited, and strictly before the cited
      // page's own visit. Parent chains then walk strictly back in visit
      // time, so the synthesized admits can never cycle.
      auto src_visit = visited_at.find(src);
      if (src_visit == visited_at.end()) continue;
      auto dst_visit = visited_at.find(dst);
      if (dst_visit != visited_at.end() &&
          src_visit->second >= dst_visit->second) {
        continue;
      }
      first_citer.try_emplace(dst, src);
    }
    FOCUS_RETURN_IF_ERROR(link_it.status());
  }
  auto emit_reconciled = [&](const CrawlRecord& rec) {
    if (elog == nullptr) return;
    auto citer = first_citer.find(rec.oid);
    int64_t parent = citer == first_citer.end()
                         ? -1
                         : static_cast<int64_t>(citer->second);
    elog->Record(obs::CrawlEventType::kFrontierAdmit,
                 static_cast<int64_t>(rec.oid), parent, rec.sid,
                 /*virtual_us=*/-1, rec.relevance, /*aux=*/0,
                 /*reconciled=*/true);
    if (rec.numtries > 0 || rec.visited) {
      // One summary event for the lost attempt history: a visited row
      // proves a successful attempt even when numtries (the durable
      // retry budget consumed) is still zero.
      elog->Record(obs::CrawlEventType::kFetchAttempt,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, /*virtual_us=*/-1, rec.relevance,
                   /*aux=*/rec.numtries, /*reconciled=*/true);
    }
    if (rec.visited) {
      elog->Record(obs::CrawlEventType::kFetchSuccess,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, rec.lastvisited, /*value=*/0.0,
                   /*aux=*/rec.numtries, /*reconciled=*/true);
      elog->Record(obs::CrawlEventType::kClassifyVerdict,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, rec.lastvisited, rec.relevance,
                   /*aux=*/static_cast<int64_t>(rec.kcid),
                   /*reconciled=*/true);
    } else if (rec.numtries >= options_.max_retries) {
      elog->Record(obs::CrawlEventType::kUrlDropped,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, /*virtual_us=*/-1, /*value=*/0.0,
                   /*aux=*/static_cast<int64_t>(FailureClass::kTransient),
                   /*reconciled=*/true);
    } else if (rec.next_retry_us > 0) {
      elog->Record(obs::CrawlEventType::kRetryScheduled,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, /*virtual_us=*/-1, /*value=*/0.0,
                   /*aux=*/rec.next_retry_us, /*reconciled=*/true);
    }
  };
  uint64_t restored = 0;
  int64_t max_visit_us = 0;
  for (const CrawlRecord& rec : records) {
    emit_reconciled(rec);
    if (rec.visited) {
      ++server_fetches_[rec.sid];
      links_recorded_.insert(rec.oid);
      max_visit_us = std::max(max_visit_us, rec.lastvisited);
      continue;
    }
    if (rec.numtries >= options_.max_retries) continue;  // dead link
    FrontierEntry entry;
    entry.oid = rec.oid;
    entry.url = rec.url;
    entry.numtries = rec.numtries;
    entry.relevance = rec.relevance;
    entry.serverload = rec.serverload;
    entry.lastvisited = rec.lastvisited;
    entry.ready_at_us = rec.next_retry_us;  // keep the backoff schedule
    frontier_.AddOrUpdate(entry);
    ++restored;
  }
  // Rejoin the dead crawl's virtual timeline so restored not-before times
  // (absolute virtual us) stay meaningful.
  if (max_visit_us > clock_.NowMicros()) {
    clock_.AdvanceMicros(max_visit_us - clock_.NowMicros());
  }
  FOCUS_ASSIGN_OR_RETURN(std::vector<BreakerRecord> breakers,
                         db_->LoadBreakers());
  for (const BreakerRecord& rec : breakers) breaker_.Restore(rec);
  if (!breakers.empty()) {
    stage_metrics_->SetOpenBreakers(
        static_cast<double>(breaker_.open_count()));
  }
  FOCUS_LOG(Info, "resumed crawl: ", restored, " frontier entries, ",
            links_recorded_.size(), " pages already visited, ",
            breakers.size(), " breaker records");
  return Status::OK();
}

Status Crawler::ScheduleRevisits(const sql::Table* hubs, int count) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  // Hub scores by oid, when a distillation round is available.
  std::unordered_map<uint64_t, double> hub_score;
  if (hubs != nullptr) {
    FOCUS_ASSIGN_OR_RETURN(hub_score, distill::CollectScores(hubs));
  }
  // Collect visited pages, stalest first, best hubs first within a tie.
  std::vector<CrawlRecord> visited;
  {
    auto it = db_->crawl_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      CrawlRecord rec = CrawlDb::RecordFromTuple(row);
      if (rec.visited) visited.push_back(std::move(rec));
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  auto score_of = [&](const CrawlRecord& r) {
    auto it = hub_score.find(r.oid);
    return it == hub_score.end() ? 0.0 : it->second;
  };
  std::sort(visited.begin(), visited.end(),
            [&](const CrawlRecord& a, const CrawlRecord& b) {
              if (a.lastvisited != b.lastvisited) {
                return a.lastvisited < b.lastvisited;
              }
              return score_of(a) > score_of(b);
            });
  int scheduled = 0;
  for (const CrawlRecord& rec : visited) {
    if (scheduled >= count) break;
    FrontierEntry entry;
    entry.oid = rec.oid;
    entry.url = rec.url;
    entry.numtries = rec.numtries;
    entry.relevance = rec.relevance;
    entry.serverload = rec.serverload;
    entry.lastvisited = rec.lastvisited;
    entry.hub_score = score_of(rec);
    frontier_.AddOrUpdate(entry);
    ++scheduled;
  }
  options_.max_fetches += scheduled;
  frontier_.SetPolicy(PriorityPolicy::kRevisitHubs);
  return Status::OK();
}

std::vector<FrontierEntry> Crawler::GatherBatch(VirtualClock* worker_clock) {
  std::vector<FrontierEntry> batch;
  batch.reserve(options_.classify_batch_size);
  const int64_t now = worker_clock->NowMicros();
  // One critical section per batch: reserve budget slots and pop the
  // globally best ready entries (§3.2's CRAWL checkout order), re-parking
  // those whose server's breaker is open.
  std::lock_guard<std::mutex> lock(state_mutex_);
  Stopwatch held;
  while (static_cast<int>(batch.size()) < options_.classify_batch_size &&
         static_cast<int>(visits_.size()) + in_flight_.load() <
             options_.max_fetches) {
    std::optional<FrontierEntry> entry = frontier_.PopBest(now);
    if (!entry.has_value()) break;
    if (options_.breaker.enabled) {
      BreakerOutcome adm = breaker_.Admit(ServerIdOf(entry->url), now);
      NoteBreakerOutcome(adm);
      if (!adm.allow) {
        if (options_.event_log != nullptr) {
          options_.event_log->Record(obs::CrawlEventType::kBreakerDenied,
                                     static_cast<int64_t>(entry->oid),
                                     /*parent_oid=*/-1,
                                     ServerIdOf(entry->url), now,
                                     /*value=*/0.0,
                                     /*aux=*/adm.retry_at_us);
        }
        entry->ready_at_us = std::max(adm.retry_at_us, now + 1);
        frontier_.AddOrUpdate(*entry);
        stage_metrics_->RecordBreakerSkip();
        ++stats_.breaker_skips;
        continue;
      }
    }
    in_flight_.fetch_add(1);
    stage_metrics_->RecordPop();
    batch.push_back(std::move(*entry));
  }
  stage_metrics_->AddLockHeldMicros(
      static_cast<uint64_t>(held.ElapsedMicros()));
  return batch;
}

Status Crawler::RecordBatch(std::vector<FetchedPage>* pages,
                            const std::vector<PageJudgment>& judgments) {
  FOCUS_SPAN("crawl.record_batch");
  Stopwatch lock_wait;
  std::unique_lock<std::mutex> lock(state_mutex_);
  stage_metrics_->AddLockWaitMicros(
      static_cast<uint64_t>(lock_wait.ElapsedMicros()));
  Stopwatch held;
  Stopwatch expand_timer;
  for (size_t i = 0; i < pages->size(); ++i) {
    FetchedPage& page = (*pages)[i];
    const PageJudgment& judgment = judgments[i];
    uint64_t oid = UrlOid(page.fetch.url);
    FOCUS_RETURN_IF_ERROR(db_->RecordVisit(oid, judgment.relevance,
                                           judgment.best_leaf,
                                           page.fetched_at_us));
    ++server_fetches_[page.fetch.server_id];
    Visit visit;
    visit.fetch_index = static_cast<int>(visits_.size());
    visit.oid = oid;
    visit.url = page.fetch.url;
    visit.relevance = judgment.relevance;
    visit.best_leaf = judgment.best_leaf;
    visit.virtual_time_us = page.fetched_at_us;
    visits_.push_back(visit);
    stage_metrics_->RecordVisitRelevance(judgment.relevance);
    if (options_.event_log != nullptr) {
      options_.event_log->Record(obs::CrawlEventType::kClassifyVerdict,
                                 static_cast<int64_t>(oid),
                                 /*parent_oid=*/-1,
                                 ServerIdOf(page.fetch.url),
                                 page.fetched_at_us, judgment.relevance,
                                 /*aux=*/static_cast<int64_t>(
                                     judgment.best_leaf));
    }

    FOCUS_RETURN_IF_ERROR(
        ExpandLinks(page.fetch, judgment, page.fetched_at_us));

    if (options_.expand_backlinks &&
        judgment.relevance > options_.backlink_relevance_threshold) {
      // Backlink metadata is a read-only web service (SimulatedWeb is
      // reentrant).
      FOCUS_ASSIGN_OR_RETURN(
          std::vector<std::string> citers,
          web_->Backlinks(page.fetch.url, options_.backlinks_per_page));
      for (const std::string& citer : citers) {
        if (options_.link_sink != nullptr &&
            !options_.link_sink->Owns(citer)) {
          FOCUS_RETURN_IF_ERROR(ExportRemoteLink(oid, citer,
                                                 judgment.relevance,
                                                 /*raise_if_known=*/false));
          continue;
        }
        FOCUS_RETURN_IF_ERROR(AdmitLink(
            citer, judgment.relevance, static_cast<int64_t>(oid),
            page.fetched_at_us, /*raise_if_known=*/false, /*aux=*/2));
      }
    }
    in_flight_.fetch_sub(1);
  }
  Status boosts = RunPeriodicBoosts();
  Status flush = FlushBreakerState();
  // Pipeline batch boundary: everything this record/expand critical
  // section wrote is staged as one WAL commit (no-op without a WAL). Log
  // order is this lock's order, so a batch is logged after every batch
  // whose state it read.
  Result<storage::CommitTicket> staged = StageBatchCommit();
  stage_metrics_->SetFrontierDepth(static_cast<double>(frontier_.size()));
  stage_metrics_->AddLockHeldMicros(
      static_cast<uint64_t>(held.ElapsedMicros()));
  lock.unlock();
  work_cv_.notify_all();
  // The log write and sync run off the lock: peers record and stage
  // behind this batch meanwhile, and one sync can cover several batches.
  // The worker still returns only once its batch is durable, and the
  // record stage's timer covers that wait.
  Status commit = staged.ok() ? db_->AwaitCommit(*staged) : staged.status();
  stage_metrics_->AddExpandMicros(
      static_cast<uint64_t>(expand_timer.ElapsedMicros()));
  if (!boosts.ok()) return boosts;
  if (!flush.ok()) return flush;
  return commit;
}

Status Crawler::PipelineWorker(VirtualClock* worker_clock) {
  for (;;) {
    if (abort_.load()) return Status::OK();
    if (options_.interrupt) {
      // Scheduled shard deaths (dist::ShardFaultPlan) land between batches,
      // i.e. between durable commits, like any other crash point.
      FOCUS_RETURN_IF_ERROR(options_.interrupt(worker_clock->NowMicros()));
    }
    std::vector<FrontierEntry> batch = GatherBatch(worker_clock);
    if (batch.empty()) {
      std::unique_lock<std::mutex> lock(state_mutex_);
      if (static_cast<int>(visits_.size()) >= options_.max_fetches) {
        return Status::OK();  // budget spent
      }
      if (in_flight_.load() == 0) {
        if (frontier_.empty()) {
          // Nothing left anywhere and nothing pending that could add
          // links: the crawl stagnated short of its budget.
          stats_.stagnated = true;
          return Status::OK();
        }
        // Entries exist but none is ready at this worker's virtual time
        // (backoff or breaker quarantine): fast-forward to the earliest
        // deadline instead of spinning.
        std::optional<int64_t> at = frontier_.NextReadyMicros();
        int64_t now = worker_clock->NowMicros();
        if (at.has_value() && *at > now) {
          worker_clock->AdvanceMicros(*at - now);
        }
        continue;
      }
      // Other workers hold in-flight pages that may expand the frontier
      // or release budget; wait for them.
      work_cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }

    // --- fetch stage (no lock; latency charged to this worker's
    // virtual timeline, so concurrent workers overlap fetch waits exactly
    // like the paper's ~30 fetch threads) ---
    std::vector<FetchedPage> fetched;
    fetched.reserve(batch.size());
    struct FailedFetch {
      FrontierEntry entry;
      Status error;
      int64_t at_us;
    };
    std::vector<FailedFetch> failures;
    Stopwatch fetch_timer;
    {
      FOCUS_SPAN_VT("crawl.fetch_batch", worker_clock);
      for (FrontierEntry& entry : batch) {
        int32_t sid = ServerIdOf(entry.url);
        if (options_.event_log != nullptr) {
          options_.event_log->Record(obs::CrawlEventType::kFetchAttempt,
                                     static_cast<int64_t>(entry.oid),
                                     /*parent_oid=*/-1, sid,
                                     worker_clock->NowMicros(),
                                     entry.relevance,
                                     /*aux=*/entry.numtries + 1);
        }
        // Attempts are numbered from durable state (numtries) so a crashed
        // crawler's refetch of an attempt whose bookkeeping was lost replays
        // the same outcome — the visited set becomes a deterministic
        // fixpoint ResumeFromDb can converge to (tests/robustness_test.cc).
        // Fetch is reentrant, so workers fetch concurrently.
        Result<webgraph::SimulatedWeb::FetchResult> result =
            web_->Fetch(entry.url, worker_clock, entry.numtries + 1);
        if (!result.ok()) {
          if (options_.breaker.enabled) {
            NoteBreakerOutcome(
                breaker_.OnFailure(sid, worker_clock->NowMicros()));
          }
          failures.push_back(FailedFetch{std::move(entry), result.status(),
                                         worker_clock->NowMicros()});
          continue;
        }
        if (options_.breaker.enabled) {
          NoteBreakerOutcome(breaker_.OnSuccess(sid));
        }
        if (options_.event_log != nullptr) {
          options_.event_log->Record(obs::CrawlEventType::kFetchSuccess,
                                     static_cast<int64_t>(entry.oid),
                                     /*parent_oid=*/-1, sid,
                                     worker_clock->NowMicros(),
                                     /*value=*/0.0,
                                     /*aux=*/entry.numtries + 1);
        }
        FetchedPage page;
        page.entry = std::move(entry);
        page.fetch = result.TakeValue();
        page.fetched_at_us = worker_clock->NowMicros();
        fetched.push_back(std::move(page));
      }
    }
    stage_metrics_->AddFetchMicros(
        static_cast<uint64_t>(fetch_timer.ElapsedMicros()));

    storage::CommitTicket failures_ticket;
    {
      // Attempt/failure bookkeeping in one short critical section.
      std::lock_guard<std::mutex> lock(state_mutex_);
      Stopwatch held;
      stats_.attempts += batch.size();
      for (const FailedFetch& failure : failures) {
        FOCUS_RETURN_IF_ERROR(
            HandleFetchFailure(failure.entry, failure.error, failure.at_us));
      }
      FOCUS_RETURN_IF_ERROR(FlushBreakerState());
      in_flight_.fetch_sub(static_cast<int>(failures.size()));
      // A batch whose fetches all failed never reaches RecordBatch, so its
      // failure bookkeeping (numtries, nextretry, breaker rows) is staged
      // here and awaited off the lock: every batch ends in exactly one
      // durable commit.
      if (fetched.empty()) {
        FOCUS_ASSIGN_OR_RETURN(failures_ticket, StageBatchCommit());
      }
      stage_metrics_->AddLockHeldMicros(
          static_cast<uint64_t>(held.ElapsedMicros()));
    }
    if (!failures.empty()) work_cv_.notify_all();
    if (fetched.empty()) {
      FOCUS_RETURN_IF_ERROR(db_->AwaitCommit(failures_ticket));
      continue;
    }

    // --- classify stage (no locks; one batched evaluator call) ---
    std::vector<text::TermVector> docs;
    docs.reserve(fetched.size());
    for (const FetchedPage& page : fetched) {
      docs.push_back(text::BuildTermVector(page.fetch.tokens));
    }
    Stopwatch classify_timer;
    auto judged = [&] {
      FOCUS_SPAN_VT("crawl.classify_batch", worker_clock);
      return evaluator_->JudgeBatch(docs);
    }();
    uint64_t classify_micros =
        static_cast<uint64_t>(classify_timer.ElapsedMicros());
    stage_metrics_->AddClassifyMicros(classify_micros);
    stage_metrics_->RecordBatch(fetched.size());
    stage_metrics_->ObserveClassifyBatchMicros(classify_micros);
    if (!judged.ok()) {
      in_flight_.fetch_sub(static_cast<int>(fetched.size()));
      work_cv_.notify_all();
      return judged.status();
    }

    // --- record/expand stage (state lock) ---
    FOCUS_RETURN_IF_ERROR(RecordBatch(&fetched, judged.value()));
  }
}

Status Crawler::RunPipeline() {
  // No worker runs between Crawl() calls, so a failed earlier call's abort
  // flag and unreleased reservations can be cleared for this one.
  abort_.store(false);
  in_flight_.store(0);
  ThreadPool pool(options_.num_threads);
  std::mutex status_mutex;
  Status first_error;
  // Workers continue the crawl's virtual timeline (nonzero after a resume
  // or an earlier Crawl() call) so absolute not-before times line up.
  const int64_t base_us = clock_.NowMicros();
  std::vector<VirtualClock> worker_clocks(options_.num_threads);
  for (VirtualClock& c : worker_clocks) c.AdvanceMicros(base_us);
  for (int i = 0; i < options_.num_threads; ++i) {
    pool.Submit([this, i, &status_mutex, &first_error, &worker_clocks] {
      Status s = PipelineWorker(&worker_clocks[i]);
      if (!s.ok()) {
        {
          std::lock_guard<std::mutex> lock(status_mutex);
          if (first_error.ok()) first_error = std::move(s);
        }
        // Stop peers: a failed worker may never release its in-flight
        // reservations, so waiting on them would hang the pool.
        abort_.store(true);
        work_cv_.notify_all();
      }
    });
  }
  pool.Wait();
  // The crawl's virtual makespan is the slowest worker's timeline (workers
  // fetch concurrently, so their waits overlap).
  int64_t makespan = base_us;
  for (const VirtualClock& c : worker_clocks) {
    makespan = std::max(makespan, c.NowMicros());
  }
  clock_.AdvanceMicros(makespan - base_us);
  return first_error;
}

Status Crawler::Crawl() {
  Status result = RunPipeline();
  // Persist any breaker transitions still queued (e.g. from the last
  // successful fetches) so a resume sees the final quarantine state.
  Result<storage::CommitTicket> staged = storage::CommitTicket{};
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // No boost outlives the call: its raises commit with the final batch.
    if (boost_ != nullptr) {
      Status applied = ApplyBoost();
      if (result.ok()) result = applied;
    }
    Status flush = FlushBreakerState();
    if (result.ok()) result = flush;
    staged = StageBatchCommit();
  }
  Status commit = staged.ok() ? db_->AwaitCommit(*staged) : staged.status();
  if (result.ok()) result = commit;
  return result;
}

}  // namespace focus::crawl
