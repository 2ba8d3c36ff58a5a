#include "paper_config.h"

#include <cstdio>
#include <utility>

#include "core/sample_taxonomy.h"
#include "util/clock.h"

namespace focus::perfbench {
namespace {

// One fixed web for every run; the run seed draws the classifier's
// training sample. Seeded webs made crawl outcomes (graph size, harvest)
// vary 15-30% between seeds.
constexpr uint64_t kWebSeed = 1999;

}  // namespace

Result<std::unique_ptr<World>> BuildWorld(uint64_t seed,
                                          const WebScale& scale) {
  auto world = std::make_unique<World>();
  core::FocusOptions options;
  options.seed = seed;  // training examples
  options.web.seed = kWebSeed;
  options.web.pages_per_topic = scale.pages_per_topic;
  options.web.background_pages = scale.background_pages;
  options.web.background_servers = scale.background_servers;
  options.web.fetch_latency_mean_ms = 120;  // the paper's network regime
  options.web.fetch_failure_prob = 0.0;     // every page attempt succeeds
  options.examples_per_topic = scale.examples_per_topic;
  FOCUS_ASSIGN_OR_RETURN(
      world->system,
      core::FocusSystem::Create(core::BuildSampleTaxonomy(), options));
  FOCUS_RETURN_IF_ERROR(world->system->MarkGood("cycling"));
  FOCUS_RETURN_IF_ERROR(world->system->Train());
  FOCUS_ASSIGN_OR_RETURN(world->topic,
                         world->system->tax().FindByName("cycling"));
  // The ten pages richest in the topic's keywords. A seed-chosen slice of
  // the top 100 made per-seed crawl outcomes vary more than training
  // samples do.
  world->seed_urls = world->system->web().KeywordSeeds(world->topic, 10);

  world->clf_disk = std::make_unique<storage::MemDiskManager>();
  world->clf_pool =
      std::make_unique<storage::BufferPool>(world->clf_disk.get(), 4096);
  world->clf_catalog = std::make_unique<sql::Catalog>(world->clf_pool.get());
  FOCUS_ASSIGN_OR_RETURN(
      world->tables,
      classify::BuildClassifierTables(world->clf_catalog.get(),
                                      world->system->tax(),
                                      world->system->model()));
  world->bulk = std::make_unique<classify::BulkProbeClassifier>(
      &world->system->classifier(), &world->tables);
  world->evaluator = std::make_unique<crawl::BatchRelevanceEvaluator>(
      world->bulk.get(), &world->system->classifier(),
      world->clf_catalog.get());
  return world;
}

Result<std::unique_ptr<Store>> Store::Open(const std::string& base,
                                           const Options& options) {
  auto store = std::unique_ptr<Store>(new Store());
  storage::FileDiskManager::Options file_options;
  file_options.truncate = options.fresh;
  FOCUS_ASSIGN_OR_RETURN(
      store->data_file_,
      storage::FileDiskManager::Open(base + ".db", file_options));
  FOCUS_ASSIGN_OR_RETURN(
      store->log_file_,
      storage::FileDiskManager::Open(base + ".wal", file_options));
  storage::DiskManager* data = store->data_file_.get();
  storage::DiskManager* log = store->log_file_.get();
  if (options.timed) {
    store->data_io_ = std::make_unique<TimedDisk>(data);
    store->log_io_ = std::make_unique<TimedDisk>(log);
    data = store->data_io_.get();
    log = store->log_io_.get();
  }
  // Flush policy: fdatasync per commit, no group-commit linger.
  storage::WalDiskManager::Options wal_options;
  wal_options.group_commit_wait_us = 0;
  Stopwatch open_timer;
  FOCUS_ASSIGN_OR_RETURN(
      store->wal_, storage::WalDiskManager::Open(data, log, wal_options));
  store->open_wal_s_ = open_timer.ElapsedSeconds();
  storage::DiskManager* pool_disk = store->wal_.get();
  if (options.timed) {
    store->pool_io_ = std::make_unique<TimedDisk>(pool_disk);
    pool_disk = store->pool_io_.get();
  }
  store->pool_ = std::make_unique<storage::BufferPool>(
      pool_disk, options.frames, options.pool);
  store->catalog_ = std::make_unique<sql::Catalog>(store->pool_.get());
  if (options.fresh) {
    FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                           crawl::CrawlDb::Create(store->catalog_.get()));
    store->db_ = std::make_unique<crawl::CrawlDb>(std::move(db));
    store->db_->BindWal(store->wal_.get());
  } else {
    FOCUS_ASSIGN_OR_RETURN(
        crawl::CrawlDb db,
        crawl::CrawlDb::Open(store->catalog_.get(), store->wal_.get()));
    store->db_ = std::make_unique<crawl::CrawlDb>(std::move(db));
  }
  return store;
}

crawl::CrawlerOptions PaperCrawlerOptions(int threads, int budget,
                                          int distill_every) {
  crawl::CrawlerOptions options;
  options.max_fetches = budget;
  options.num_threads = threads;
  options.distill_every = distill_every;
  options.distill_iterations = 5;
  options.checkpoint_every_batches = 64;
  return options;
}

Result<std::vector<std::string>> DumpRows(const sql::Table& table) {
  std::vector<std::string> rows;
  auto it = table.Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    std::string bytes;
    for (const sql::Value& v : row.values()) {
      if (v.is_null()) {
        bytes += "\x01N";
      } else {
        v.SerializeTo(&bytes);
      }
    }
    rows.push_back(std::move(bytes));
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  return rows;
}

void RemoveStoreFiles(const std::string& base) {
  std::remove((base + ".db").c_str());
  std::remove((base + ".wal").c_str());
}

}  // namespace focus::perfbench
