#include "dist/dist_crawl.h"

#include <algorithm>
#include <tuple>

#include "distill/distiller.h"
#include "distill/join_distiller.h"
#include "storage/crash_fault_disk.h"

namespace focus::dist {

namespace {

// Buffer-pool frames per shard, and for the merged store GlobalDistill
// builds.
constexpr size_t kShardBufferFrames = 4096;

}  // namespace

bool IsShardDeath(const Status& status) {
  if (status.ok()) return false;
  const std::string& m = status.message();
  return m.find(storage::kCrashMessage) != std::string::npos ||
         m.find(kShardDeathMessage) != std::string::npos;
}

DistCrawl::DistCrawl(webgraph::SimulatedWeb* web,
                     crawl::RelevanceEvaluator* evaluator,
                     DistCrawlOptions options)
    : web_(web),
      evaluator_(evaluator),
      options_(std::move(options)),
      router_(options_.num_shards),
      exchange_(options_.num_shards) {}

DistCrawl::~DistCrawl() = default;

Result<std::unique_ptr<DistCrawl>> DistCrawl::Create(
    webgraph::SimulatedWeb* web, crawl::RelevanceEvaluator* evaluator,
    DistCrawlOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  auto dc = std::unique_ptr<DistCrawl>(
      new DistCrawl(web, evaluator, std::move(options)));
  int n = dc->options_.num_shards;
  if (!dc->options_.store_provider) {
    dc->default_devices_.resize(static_cast<size_t>(n));
    DistCrawl* self = dc.get();
    dc->options_.store_provider = [self](int shard,
                                         int /*boot*/) -> Result<ShardDevices> {
      DefaultDevices& d = self->default_devices_[static_cast<size_t>(shard)];
      if (d.data == nullptr) {
        d.data = std::make_unique<storage::MemDiskManager>();
        d.log = std::make_unique<storage::MemDiskManager>();
      }
      return ShardDevices{d.data.get(), d.log.get()};
    };
  }
  for (int s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    if (dc->options_.enable_event_logs) {
      shard->log = std::make_unique<obs::EventLog>();
      shard->log->Enable(dc->options_.event_ring_capacity);
      shard->log->SetShardId(s);
    }
    if (n > 1) {
      shard->endpoint = std::make_unique<ExchangeEndpoint>(&dc->router_, s);
    }
    dc->shards_.push_back(std::move(shard));
  }
  for (int s = 0; s < n; ++s) {
    FOCUS_RETURN_IF_ERROR(dc->BootShard(s));
  }
  dc->PublishMetrics();
  return dc;
}

Status DistCrawl::BootShard(int s) {
  Shard& sh = *shards_[static_cast<size_t>(s)];
  // Teardown in dependency order; the durable state lives in the provider's
  // devices, exactly like disk platters surviving a power cut.
  sh.crawler.reset();
  sh.db.reset();
  sh.catalog.reset();
  sh.pool.reset();
  sh.wal.reset();
  FOCUS_ASSIGN_OR_RETURN(ShardDevices dev,
                         options_.store_provider(s, sh.boots));
  if (dev.data == nullptr || dev.log == nullptr) {
    return Status::InvalidArgument("store provider returned a null device");
  }
  // Recovery: replay the shard's redo log to its last durable batch.
  FOCUS_ASSIGN_OR_RETURN(
      sh.wal,
      storage::WalDiskManager::Open(dev.data, dev.log));
  if (sh.log != nullptr) sh.wal->BindEventLog(sh.log.get());
  sh.pool = std::make_unique<storage::BufferPool>(sh.wal.get(),
                                                  kShardBufferFrames);
  sh.catalog = std::make_unique<sql::Catalog>(sh.pool.get());
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                         crawl::CrawlDb::Open(sh.catalog.get(), sh.wal.get()));
  sh.db = std::make_unique<crawl::CrawlDb>(std::move(db));
  FOCUS_RETURN_IF_ERROR(sh.db->EnableExchange());
  if (sh.endpoint != nullptr) sh.endpoint->Bind(sh.db.get());

  crawl::CrawlerOptions copts = options_.crawler;
  copts.event_log = sh.log.get();
  copts.metrics_registry = options_.metrics_registry;
  copts.link_sink = sh.endpoint.get();
  if (options_.fault_plan != nullptr) {
    ShardFaultPlan* plan = options_.fault_plan;
    copts.interrupt = [plan, s](int64_t now_us) {
      return plan->Check(s, now_us);
    };
  }
  sh.crawler = std::make_unique<crawl::Crawler>(web_, evaluator_, sh.db.get(),
                                                sh.catalog.get(), copts);
  if (sh.boots > 0) {
    FOCUS_RETURN_IF_ERROR(sh.crawler->ResumeFromDb());
  }
  ++sh.boots;
  return Status::OK();
}

Status DistCrawl::RestartShard(int s, const Status& death) {
  Shard& sh = *shards_[static_cast<size_t>(s)];
  if (sh.log != nullptr) {
    // value 1 = storage-level death (poisoned device), 0 = scheduled kill.
    double storage_death =
        death.message().find(storage::kCrashMessage) != std::string::npos
            ? 1.0
            : 0.0;
    sh.log->Record(obs::CrawlEventType::kShardDeath, /*oid=*/-1,
                   /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                   storage_death, /*aux=*/sh.boots - 1);
  }
  if (total_restarts() >= options_.max_restarts) {
    return Status::Internal("shard restart budget exhausted");
  }
  ++sh.restarts;
  FOCUS_RETURN_IF_ERROR(BootShard(s));
  if (sh.log != nullptr) {
    sh.log->Record(obs::CrawlEventType::kShardRestart, /*oid=*/-1,
                   /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                   /*value=*/static_cast<double>(sh.crawler->frontier().size()),
                   /*aux=*/sh.boots - 1);
  }
  return Status::OK();
}

Status DistCrawl::AddSeed(std::string_view url) {
  int s = router_.ShardOfUrl(url);
  Shard& sh = *shards_[static_cast<size_t>(s)];
  FOCUS_RETURN_IF_ERROR(sh.crawler->AddSeed(url));
  // A seed must survive a shard death that precedes the first crawl batch.
  return sh.db->Commit();
}

Status DistCrawl::RunToFixpoint() {
  int n = num_shards();
  for (int round = 0; round < options_.max_rounds; ++round) {
    bool progress = false;
    for (int s = 0; s < n; ++s) {
      Shard& sh = *shards_[static_cast<size_t>(s)];
      uint64_t before = sh.crawler->stats().attempts;
      Status st = sh.crawler->Crawl();
      if (!st.ok()) {
        if (!IsShardDeath(st)) return st;
        FOCUS_RETURN_IF_ERROR(RestartShard(s, st));
        progress = true;
        continue;
      }
      if (sh.crawler->stats().attempts != before) progress = true;
    }
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        LinkExchange::DrainResult r = exchange_.Drain(
            shards_[static_cast<size_t>(src)]->db.get(), src,
            shards_[static_cast<size_t>(dst)]->db.get(),
            shards_[static_cast<size_t>(dst)]->crawler.get(), dst,
            shards_[static_cast<size_t>(dst)]->log.get());
        if (!r.status.ok()) {
          if (!IsShardDeath(r.status)) return r.status;
          int dead =
              r.failed == LinkExchange::DrainResult::FailedSide::kSource
                  ? src
                  : dst;
          FOCUS_RETURN_IF_ERROR(RestartShard(dead, r.status));
          progress = true;
          continue;
        }
        if (r.delivered > 0) progress = true;
      }
    }
    PublishMetrics();
    // A full round with no attempts, no deliveries and no restarts means
    // every frontier is dry and every watermark equals its outbox tail.
    if (!progress) return Status::OK();
  }
  return Status::Internal("distributed crawl did not reach a fixpoint");
}

int DistCrawl::total_restarts() const {
  int total = 0;
  for (const auto& sh : shards_) total += sh->restarts;
  return total;
}

Result<std::map<std::string, double>> DistCrawl::VisitedRelevance() const {
  std::map<std::string, double> out;
  for (const auto& sh : shards_) {
    auto it = sh->db->crawl_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      crawl::CrawlRecord rec = crawl::CrawlDb::RecordFromTuple(row);
      if (rec.visited) out[rec.url] = rec.relevance;
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  return out;
}

Result<double> DistCrawl::HarvestRate(double threshold) const {
  FOCUS_ASSIGN_OR_RETURN(auto visited, VisitedRelevance());
  if (visited.empty()) return 0.0;
  uint64_t relevant = 0;
  for (const auto& [url, relevance] : visited) {
    if (relevance >= threshold) ++relevant;
  }
  return static_cast<double>(relevant) / static_cast<double>(visited.size());
}

Result<GlobalDistillResult> DistCrawl::GlobalDistill(
    const distill::HitsOptions& hits) const {
  // A fresh in-memory database receives the union in canonical order
  // (rows by oid, edges by (src, dst)), so the merged physical state — and
  // therefore every floating-point operation of the distillation — is
  // independent of the shard count and of delivery interleavings.
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, kShardBufferFrames);
  sql::Catalog catalog(&pool);
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb mdb, crawl::CrawlDb::Create(&catalog));

  std::map<uint64_t, crawl::CrawlRecord> rows;
  for (const auto& sh : shards_) {
    auto it = sh->db->crawl_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      crawl::CrawlRecord rec = crawl::CrawlDb::RecordFromTuple(row);
      auto [mit, inserted] = rows.emplace(rec.oid, rec);
      if (inserted) continue;
      // Ownership partitions CRAWL cleanly, but merge defensively: a
      // visited row wins; between unvisited rows the best estimate wins.
      if (rec.visited && !mit->second.visited) {
        mit->second = rec;
      } else if (!rec.visited && !mit->second.visited) {
        mit->second.relevance = std::max(mit->second.relevance, rec.relevance);
      }
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  for (const auto& [oid, rec] : rows) {
    FOCUS_RETURN_IF_ERROR(mdb.AddUrl(rec.url, rec.relevance, rec.serverload));
    if (rec.visited) {
      FOCUS_RETURN_IF_ERROR(
          mdb.RecordVisit(oid, rec.relevance, rec.kcid, rec.lastvisited));
    }
  }

  using Edge = std::tuple<int64_t, int32_t, int64_t, int32_t>;
  std::vector<Edge> edges;
  for (const auto& sh : shards_) {
    auto it = sh->db->link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      edges.emplace_back(row.Get(0).AsInt64(), row.Get(1).AsInt32(),
                         row.Get(2).AsInt64(), row.Get(3).AsInt32());
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const Edge& e : edges) {
    FOCUS_RETURN_IF_ERROR(
        mdb.link_table()
            ->Insert(sql::Tuple({sql::Value::Int64(std::get<0>(e)),
                                 sql::Value::Int32(std::get<1>(e)),
                                 sql::Value::Int64(std::get<2>(e)),
                                 sql::Value::Int32(std::get<3>(e)),
                                 sql::Value::Double(0.0),
                                 sql::Value::Double(0.0)}))
            .status());
  }

  distill::DistillTables tables;
  tables.link = mdb.link_table();
  tables.crawl = mdb.crawl_table();
  FOCUS_RETURN_IF_ERROR(distill::CreateHubsAuthTables(&catalog, &tables));
  FOCUS_RETURN_IF_ERROR(mdb.RefreshEdgeWeights());
  distill::JoinDistiller distiller(tables);
  FOCUS_RETURN_IF_ERROR(distiller.Run(hits));

  GlobalDistillResult out;
  out.merged_pages = rows.size();
  out.merged_links = edges.size();
  FOCUS_ASSIGN_OR_RETURN(auto hub_scores,
                         distill::CollectScores(tables.hubs));
  FOCUS_ASSIGN_OR_RETURN(auto auth_scores,
                         distill::CollectScores(tables.auth));
  out.hubs.assign(hub_scores.begin(), hub_scores.end());
  out.auths.assign(auth_scores.begin(), auth_scores.end());
  std::sort(out.hubs.begin(), out.hubs.end());
  std::sort(out.auths.begin(), out.auths.end());
  return out;
}

Result<std::vector<WatermarkAudit>> DistCrawl::AuditExchange() const {
  std::vector<WatermarkAudit> out;
  int n = num_shards();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      WatermarkAudit a;
      a.src_shard = src;
      a.dst_shard = dst;
      FOCUS_ASSIGN_OR_RETURN(
          auto msgs,
          shards_[static_cast<size_t>(src)]->db->ReadOutboxAfter(dst, 0));
      FOCUS_ASSIGN_OR_RETURN(
          a.watermark,
          shards_[static_cast<size_t>(dst)]->db->ExchangeWatermark(src));
      for (const crawl::ExchangeLink& msg : msgs) {
        a.outbox_high = std::max(a.outbox_high, msg.seq);
        if (msg.seq > a.watermark) ++a.pending;
      }
      out.push_back(a);
    }
  }
  return out;
}

void DistCrawl::PublishMetrics() {
  obs::MetricsRegistry* reg =
      obs::MetricsRegistry::OrGlobal(options_.metrics_registry);
  reg->SetHelp("focus_shard_frontier_depth",
               "Live frontier entries per crawl shard");
  reg->SetHelp("focus_shard_exchange_queue_depth",
               "Outbox messages not yet applied by their owner shard");
  reg->SetHelp("focus_shard_restarts",
               "Shard deaths this supervisor has recovered from");
  reg->SetHelp("focus_shard_exchange_delivered",
               "Cross-shard link admissions applied (replays included)");
  reg->SetHelp("focus_shard_exchange_replays",
               "Redelivered admissions after a destination-shard crash");
  reg->SetHelp("focus_shard_exchange_batches",
               "Committed exchange delivery batches");

  int n = num_shards();
  std::vector<int64_t> depth(static_cast<size_t>(n), 0);
  // Best-effort: the audit scans shard tables, which is safe here (the
  // supervisor publishes between rounds, never mid-crawl) but can fail on
  // a currently-poisoned device — the depth gauges then keep their last
  // published value.
  if (auto audit = AuditExchange(); audit.ok()) {
    for (const WatermarkAudit& a : *audit) {
      depth[static_cast<size_t>(a.src_shard)] += a.pending;
    }
    for (int s = 0; s < n; ++s) {
      reg->GetGauge("focus_shard_exchange_queue_depth",
                    {{"shard", std::to_string(s)}})
          ->Set(static_cast<double>(depth[static_cast<size_t>(s)]));
    }
  }
  for (int s = 0; s < n; ++s) {
    const Shard& sh = *shards_[static_cast<size_t>(s)];
    obs::Labels labels{{"shard", std::to_string(s)}};
    reg->GetGauge("focus_shard_frontier_depth", labels)
        ->Set(static_cast<double>(sh.crawler->frontier().size()));
    reg->GetGauge("focus_shard_restarts", labels)
        ->Set(static_cast<double>(sh.restarts));
  }
  const ExchangeStats& stats = exchange_.stats();
  reg->GetGauge("focus_shard_exchange_delivered")
      ->Set(static_cast<double>(stats.delivered));
  reg->GetGauge("focus_shard_exchange_replays")
      ->Set(static_cast<double>(stats.replayed));
  reg->GetGauge("focus_shard_exchange_batches")
      ->Set(static_cast<double>(stats.batches));
}

}  // namespace focus::dist
