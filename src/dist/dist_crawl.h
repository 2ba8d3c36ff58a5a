// Multi-shard distributed crawl supervisor (the paper's §3.6 scaling
// story: partition the URL space by server across crawler populations).
//
// DistCrawl owns N in-process shard groups. Each shard is a full crawl
// stack — WAL-backed CrawlDb, buffer pool, catalog, frontier, retry and
// breaker state, provenance event log — over its own pair of storage
// devices. A ShardRouter hash-partitions servers across shards; link
// discoveries that cross a shard boundary flow through the crash-safe
// LinkExchange (see link_exchange.h).
//
// The supervisor treats shard death as a first-class event: a shard whose
// storage starts failing (CrashFaultDiskManager poisoning) or whose
// scheduled ShardFaultPlan kill fires is torn down and rebooted from its
// durable state — WalDiskManager::Open replays the log, ResumeFromDb
// rebuilds the frontier, and the exchange endpoint is rebound. Because
// fetch outcomes are deterministic in (seed, url, attempt ordinal) and
// exchange delivery is exactly-once, the visited set at the fixpoint is
// bit-identical to the single-shard crawl no matter how many shards run or
// how often they die.
#ifndef FOCUS_DIST_DIST_CRAWL_H_
#define FOCUS_DIST_DIST_CRAWL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "crawl/relevance_evaluator.h"
#include "dist/link_exchange.h"
#include "dist/shard_router.h"
#include "distill/hits.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/status.h"
#include "webgraph/simulated_web.h"

namespace focus::dist {

// Error message of a scheduled (virtual-time) shard kill, the non-storage
// flavor of shard death. Storage-level deaths carry
// storage::kCrashMessage instead; IsShardDeath accepts both.
inline constexpr char kShardDeathMessage[] = "simulated shard death";

// True when `status` is a simulated shard death (scheduled kill or
// injected storage crash) rather than a genuine error.
bool IsShardDeath(const Status& status);

// Scheduled shard deaths at virtual crawl times. The crawler polls its
// shard's schedule at every step boundary (CrawlerOptions::interrupt);
// each kill fires exactly once, so the supervisor's restart survives.
class ShardFaultPlan {
 public:
  void KillAt(int shard, int64_t virtual_us) {
    kills_.push_back(Kill{shard, virtual_us, false});
  }

  // IOError(kShardDeathMessage) the first time `shard`'s clock reaches a
  // scheduled kill; OK otherwise.
  Status Check(int shard, int64_t now_us) {
    for (Kill& k : kills_) {
      if (k.fired || k.shard != shard || now_us < k.at_us) continue;
      k.fired = true;
      return Status::IOError(kShardDeathMessage);
    }
    return Status::OK();
  }

  int fired() const {
    int n = 0;
    for (const Kill& k : kills_) n += k.fired ? 1 : 0;
    return n;
  }

 private:
  struct Kill {
    int shard = 0;
    int64_t at_us = 0;
    bool fired = false;
  };
  std::vector<Kill> kills_;
};

// The storage devices backing one shard for one boot. Contents must
// survive across boots of the same shard (the provider hands back devices
// over the same backing store, possibly behind fresh fault decorators).
struct ShardDevices {
  storage::DiskManager* data = nullptr;
  storage::DiskManager* log = nullptr;
};

// Supplies `shard`'s devices for its `boot`-th life (0 = first). Tests
// interpose CrashFaultDiskManager here; the default provider backs every
// shard with a pair of DistCrawl-owned MemDiskManagers reused across
// boots.
using ShardStoreProvider =
    std::function<Result<ShardDevices>(int shard, int boot)>;

struct DistCrawlOptions {
  int num_shards = 1;
  // Per-shard crawler configuration. The distributed hooks (link_sink,
  // interrupt, event_log, metrics_registry) are overwritten per shard.
  crawl::CrawlerOptions crawler;
  // Storage for each shard; nullptr = internal in-memory devices. Every
  // shard opens its WAL and buffer pool with default options; the crawler's
  // periodic checkpoint (crawler.checkpoint_every_batches) bounds its log.
  ShardStoreProvider store_provider;
  // Scheduled kills; borrowed, may be nullptr. Shared with the test so it
  // can assert every kill fired.
  ShardFaultPlan* fault_plan = nullptr;
  // Give every shard its own provenance EventLog (stamped with its shard
  // id; events survive restarts).
  bool enable_event_logs = false;
  size_t event_ring_capacity = 65536;
  // Registry for the focus_shard_* metric families; nullptr = process
  // global.
  obs::MetricsRegistry* metrics_registry = nullptr;
  // Supervisor limits: total restarts across all shards, and fixpoint
  // rounds, before giving up with an error (guards against a fault plan
  // that kills faster than recovery progresses).
  int max_restarts = 64;
  int max_rounds = 1024;
};

// One hub/authority score vector from the global distillation, sorted by
// oid ascending.
struct GlobalDistillResult {
  std::vector<std::pair<uint64_t, double>> hubs;
  std::vector<std::pair<uint64_t, double>> auths;
  uint64_t merged_pages = 0;
  uint64_t merged_links = 0;
};

// One (src, dst) exchange queue's durable state, for the zero-lost /
// zero-duplicated verification after a run.
struct WatermarkAudit {
  int src_shard = 0;
  int dst_shard = 0;
  int64_t outbox_high = 0;  // highest durable seq src assigned to dst
  int64_t watermark = 0;    // dst's durable applied watermark for src
  int64_t pending = 0;      // messages above the watermark (0 at fixpoint)
};

class DistCrawl {
 public:
  // `web` and `evaluator` are shared by all shards (both are borrowed and
  // judged/fetched deterministically, so sharing is safe — shards crawl
  // sequentially under the supervisor).
  static Result<std::unique_ptr<DistCrawl>> Create(
      webgraph::SimulatedWeb* web, crawl::RelevanceEvaluator* evaluator,
      DistCrawlOptions options);
  ~DistCrawl();

  DistCrawl(const DistCrawl&) = delete;
  DistCrawl& operator=(const DistCrawl&) = delete;

  // Routes the seed to its owner shard and commits it durably (a seed
  // must survive a shard death that precedes the first batch).
  Status AddSeed(std::string_view url);

  // Supervisor loop: rounds of (crawl every live shard to stagnation,
  // drain every exchange queue), restarting dead shards as deaths
  // surface, until a round makes no progress — no fetch attempts, no
  // deliveries, no restarts. At that point every frontier is dry and
  // every exchange watermark has caught up with its outbox.
  Status RunToFixpoint();

  int num_shards() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }
  crawl::Crawler* crawler(int shard) { return shards_[shard]->crawler.get(); }
  crawl::CrawlDb* db(int shard) const { return shards_[shard]->db.get(); }
  obs::EventLog* event_log(int shard) { return shards_[shard]->log.get(); }
  const ExchangeStats& exchange_stats() const { return exchange_.stats(); }
  int restarts(int shard) const { return shards_[shard]->restarts; }
  int total_restarts() const;

  // Union of visited pages across shards: url -> judged relevance.
  Result<std::map<std::string, double>> VisitedRelevance() const;
  // Fraction of visited pages with relevance >= threshold (the paper's
  // harvest rate), over the union.
  Result<double> HarvestRate(double threshold) const;

  // The global distillation round: merges every shard's CRAWL and LINK
  // tables into one fresh in-memory database (rows in oid order, edges in
  // (src, dst) order — a canonical form independent of shard count),
  // refreshes edge weights and runs the join distiller over the union.
  // Single-shard crawls run through the exact same merge path, so the
  // N-shard scores are bit-identical to the 1-shard scores.
  Result<GlobalDistillResult> GlobalDistill(
      const distill::HitsOptions& hits) const;

  // Durable exchange state for every (src, dst) pair.
  Result<std::vector<WatermarkAudit>> AuditExchange() const;

 private:
  struct Shard {
    // Declaration order is teardown order in reverse: the crawler dies
    // before the endpoint/log it borrows, the db before its catalog/pool,
    // the pool before the WAL it writes through.
    std::unique_ptr<storage::WalDiskManager> wal;
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<sql::Catalog> catalog;
    std::unique_ptr<crawl::CrawlDb> db;
    std::unique_ptr<obs::EventLog> log;  // survives restarts
    std::unique_ptr<ExchangeEndpoint> endpoint;
    std::unique_ptr<crawl::Crawler> crawler;
    int boots = 0;     // completed BootShard calls
    int restarts = 0;  // deaths recovered from
  };

  DistCrawl(webgraph::SimulatedWeb* web, crawl::RelevanceEvaluator* evaluator,
            DistCrawlOptions options);

  // (Re)builds shard `s`'s stack over provider devices for its next boot:
  // WAL recovery, CrawlDb::Open, exchange tables, crawler, and — past the
  // first boot — ResumeFromDb plus endpoint rebinding.
  Status BootShard(int s);
  // Tears down and reboots a dead shard, recording the death/restart
  // events and enforcing max_restarts.
  Status RestartShard(int s, const Status& death);
  // Publishes the focus_shard_* gauges for the current state.
  void PublishMetrics();

  webgraph::SimulatedWeb* web_;
  crawl::RelevanceEvaluator* evaluator_;
  DistCrawlOptions options_;
  ShardRouter router_;
  LinkExchange exchange_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Backing stores for the default provider (reused across boots).
  struct DefaultDevices {
    std::unique_ptr<storage::MemDiskManager> data;
    std::unique_ptr<storage::MemDiskManager> log;
  };
  std::vector<DefaultDevices> default_devices_;
};

}  // namespace focus::dist

#endif  // FOCUS_DIST_DIST_CRAWL_H_
