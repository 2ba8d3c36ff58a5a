// The paper-configuration crawl session, assembled from public classes.
//
// A World is what every workload shares: the simulated web, the trained
// hierarchical classifier, and the classifier's statistics tables in their
// own in-memory catalog, judged through BatchRelevanceEvaluator over
// BulkProbeClassifier (the DB-resident classifier of §2.1.3).
//
// A Store is one crawl database on disk:
//
//   FileDiskManager (data) --+
//                            +--> WalDiskManager --> BufferPool --> Catalog
//   FileDiskManager (log)  --+                                  --> CrawlDb
//
// With `timed`, a TimedDisk sits at each DiskManager seam: WAL -> data
// file, WAL -> log file, and buffer pool -> WAL.
#ifndef FOCUS_PERFBENCH_PAPER_CONFIG_H_
#define FOCUS_PERFBENCH_PAPER_CONFIG_H_

#include <memory>
#include <string>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "core/focus.h"
#include "crawl/batch_evaluator.h"
#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "timing.h"
#include "util/status.h"

namespace focus::perfbench {

// Size of the simulated web. The defaults are the full web every workload
// runs on; tests pass a small one.
struct WebScale {
  int pages_per_topic = 1500;
  int background_pages = 30000;
  int background_servers = 800;
  int examples_per_topic = 25;
};

struct World {
  std::unique_ptr<core::FocusSystem> system;
  taxonomy::Cid topic = 0;
  std::vector<std::string> seed_urls;
  // The classifier tables' own catalog, separate from any crawl store.
  std::unique_ptr<storage::MemDiskManager> clf_disk;
  std::unique_ptr<storage::BufferPool> clf_pool;
  std::unique_ptr<sql::Catalog> clf_catalog;
  classify::ClassifierTables tables;
  std::unique_ptr<classify::BulkProbeClassifier> bulk;
  std::unique_ptr<crawl::BatchRelevanceEvaluator> evaluator;
};

// Generates the benchmark's one fixed web (120 ms mean virtual fetch
// latency, no fetch failures), marks `cycling` good, trains the classifier
// on the example sample `seed` draws, and loads the classifier tables.
Result<std::unique_ptr<World>> BuildWorld(uint64_t seed,
                                          const WebScale& scale = {});

class Store {
 public:
  struct Options {
    size_t frames = 4096;
    storage::BufferPool::Options pool;
    // Insert TimedDisk decorators at the three DiskManager seams.
    bool timed = false;
    // Start from empty files (true) or recover the existing ones.
    bool fresh = true;
  };

  // Opens `<base>.db` and `<base>.wal`. A fresh store creates CRAWL/LINK;
  // otherwise the WAL recovers the last committed state and CrawlDb::Open
  // reattaches the tables.
  static Result<std::unique_ptr<Store>> Open(const std::string& base,
                                             const Options& options);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  crawl::CrawlDb& db() { return *db_; }
  sql::Catalog& catalog() { return *catalog_; }
  storage::BufferPool& pool() { return *pool_; }
  storage::WalDiskManager& wal() { return *wal_; }
  // Seam timers; null unless Options::timed.
  const TimedDisk* pool_io() const { return pool_io_.get(); }
  const TimedDisk* data_io() const { return data_io_.get(); }
  const TimedDisk* log_io() const { return log_io_.get(); }
  // Wall time of WalDiskManager::Open (recovery, for a reopened store).
  double open_wal_s() const { return open_wal_s_; }

 private:
  Store() = default;

  // Declared bottom-up, so members are destroyed top-down.
  std::unique_ptr<storage::FileDiskManager> data_file_;
  std::unique_ptr<storage::FileDiskManager> log_file_;
  std::unique_ptr<TimedDisk> data_io_;
  std::unique_ptr<TimedDisk> log_io_;
  std::unique_ptr<storage::WalDiskManager> wal_;
  std::unique_ptr<TimedDisk> pool_io_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<sql::Catalog> catalog_;
  std::unique_ptr<crawl::CrawlDb> db_;
  double open_wal_s_ = 0;
};

// Crawler options of the paper configuration: soft focus, WAL commit per
// batch with a checkpoint every 64 batches, 5-iteration distillation boosts
// every `distill_every` visits (0 = none).
crawl::CrawlerOptions PaperCrawlerOptions(int threads, int budget,
                                          int distill_every);

// Every row of `table`, rendered in scan order (for equality checks).
Result<std::vector<std::string>> DumpRows(const sql::Table& table);

// Removes `<base>.db` and `<base>.wal` if present.
void RemoveStoreFiles(const std::string& base);

}  // namespace focus::perfbench

#endif  // FOCUS_PERFBENCH_PAPER_CONFIG_H_
