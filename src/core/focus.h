// Public API of the Focus resource-discovery system.
//
// A FocusSystem bundles the paper's full pipeline:
//   taxonomy + example documents -> trained hierarchical classifier
//   -> focused crawl sessions over a (simulated) web
//   -> relevance-weighted distillation of the crawl graph.
//
// Typical use (see examples/quickstart.cc):
//   taxonomy::Taxonomy tax = ...;            // build the topic tree
//   FocusOptions options;                    // seed, web, crawl parameters
//   auto system = FocusSystem::Create(std::move(tax), options, affinities);
//   system->MarkGood("cycling");
//   system->Train();
//   auto session = system->NewCrawl(seeds, crawl_options);
//   session->crawler().Crawl();
//   auto distilled = session->Distill({.iterations = 20, .rho = 0.1});
#ifndef FOCUS_CORE_FOCUS_H_
#define FOCUS_CORE_FOCUS_H_

#include <memory>
#include <string>
#include <vector>

#include "classify/hierarchical_classifier.h"
#include "classify/trainer.h"
#include "crawl/crawler.h"
#include "distill/hits.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "taxonomy/taxonomy.h"
#include "util/status.h"
#include "webgraph/simulated_web.h"

namespace focus::core {

struct FocusOptions {
  uint64_t seed = 1;
  webgraph::WebConfig web;
  classify::TrainerOptions trainer;
  // Held-out documents sampled per leaf topic as the example sets D(c).
  int examples_per_topic = 25;
  // Buffer-pool frames for each crawl session's database.
  size_t session_buffer_frames = 4096;
  // When non-empty, each crawl session's database lives on disk under this
  // directory (created if missing) as session-<id>.db / session-<id>.wal,
  // behind the write-ahead log: crawler batches become durable atomic
  // commits and the session survives storage-level crashes. Empty (the
  // default) keeps sessions in memory with no WAL — the fast test path.
  std::string session_db_dir;
};

struct RankedPage {
  uint64_t oid = 0;
  std::string url;
  double score = 0;
};

struct DistillResult {
  std::vector<RankedPage> hubs;
  std::vector<RankedPage> authorities;
};

// One crawl and its relational state (its own buffer pool and catalog —
// sessions are independent, like separate crawler deployments).
class CrawlSession {
 public:
  crawl::Crawler& crawler() { return *crawler_; }
  crawl::CrawlDb& db() { return *db_; }
  sql::Catalog& catalog() { return *catalog_; }

  // Refreshes edge weights and runs the join distiller over the crawl
  // graph, returning the top-k hubs and authorities with their URLs.
  Result<DistillResult> Distill(const distill::HitsOptions& options,
                                int top_k = 20);

  // The LINK/HUBS/AUTH/CRAWL handles after a Distill() call (hubs/auth are
  // null before the first distillation).
  const distill::DistillTables& distill_tables() const {
    return distill_tables_;
  }

  // The session's write-ahead log, or nullptr for in-memory sessions.
  storage::WalDiskManager* wal() const { return wal_.get(); }

  // The session's buffer pool (hit ratios, readahead counters).
  storage::BufferPool* pool() const { return pool_.get(); }

  // The label ("session-<id>") under which this session's storage and
  // distillation metrics are registered.
  const std::string& name() const { return name_; }

 private:
  friend class FocusSystem;
  CrawlSession() = default;

  std::string name_;
  obs::MetricsRegistry* metrics_ = nullptr;

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::FileDiskManager> data_disk_;
  std::unique_ptr<storage::FileDiskManager> log_disk_;
  std::unique_ptr<storage::WalDiskManager> wal_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<sql::Catalog> catalog_;
  std::unique_ptr<crawl::CrawlDb> db_;
  std::unique_ptr<crawl::RelevanceEvaluator> evaluator_;
  std::unique_ptr<crawl::Crawler> crawler_;
  distill::DistillTables distill_tables_;
  bool distill_ready_ = false;
};

class FocusSystem {
 public:
  // Takes ownership of the taxonomy and generates the simulated web.
  static Result<std::unique_ptr<FocusSystem>> Create(
      taxonomy::Taxonomy tax, FocusOptions options,
      std::vector<webgraph::TopicAffinity> affinities = {});

  // Marks a topic good by name (C*); may be called multiple times.
  Status MarkGood(std::string_view topic_name);

  // Samples example documents for every leaf and trains the classifier.
  // Must be called after MarkGood (relevance depends on good topics only
  // at query time, so re-marking later is also fine).
  Status Train();

  // Starts a crawl session seeded with `seed_urls`.
  Result<std::unique_ptr<CrawlSession>> NewCrawl(
      const std::vector<std::string>& seed_urls,
      const crawl::CrawlerOptions& crawler_options);

  const taxonomy::Taxonomy& tax() const { return tax_; }
  taxonomy::Taxonomy* mutable_tax() { return &tax_; }
  webgraph::SimulatedWeb& web() { return *web_; }
  const classify::HierarchicalClassifier& classifier() const {
    return *classifier_;
  }
  const classify::ClassifierModel& model() const { return model_; }
  bool trained() const { return classifier_ != nullptr; }

 private:
  FocusSystem(taxonomy::Taxonomy tax, FocusOptions options)
      : tax_(std::move(tax)), options_(options) {}

  taxonomy::Taxonomy tax_;
  FocusOptions options_;
  std::unique_ptr<webgraph::SimulatedWeb> web_;
  classify::ClassifierModel model_;
  std::unique_ptr<classify::HierarchicalClassifier> classifier_;
};

}  // namespace focus::core

#endif  // FOCUS_CORE_FOCUS_H_
