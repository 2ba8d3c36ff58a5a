#include "core/focus.h"

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "distill/join_distiller.h"
#include "util/string_util.h"

namespace focus::core {

Result<DistillResult> CrawlSession::Distill(
    const distill::HitsOptions& options, int top_k) {
  if (!distill_ready_) {
    distill_tables_.link = db_->link_table();
    distill_tables_.crawl = db_->crawl_table();
    FOCUS_RETURN_IF_ERROR(
        distill::CreateHubsAuthTables(catalog_.get(), &distill_tables_));
    distill_ready_ = true;
  }
  FOCUS_RETURN_IF_ERROR(db_->RefreshEdgeWeights());
  distill::JoinDistiller distiller(distill_tables_);
  FOCUS_RETURN_IF_ERROR(distiller.Run(options));
  distiller.ExportMetrics(metrics_, name_);

  auto ranked_from = [&](const sql::Table* table)
      -> Result<std::vector<RankedPage>> {
    FOCUS_ASSIGN_OR_RETURN(auto scores, distill::CollectScores(table));
    std::unordered_map<uint64_t, distill::HubAuthScore> wrapped;
    for (const auto& [oid, s] : scores) wrapped[oid].hub = s;
    auto top = distill::HitsEngine::TopHubs(wrapped, top_k);
    std::vector<RankedPage> pages;
    pages.reserve(top.size());
    for (const auto& [oid, score] : top) {
      RankedPage page;
      page.oid = oid;
      page.score = score;
      FOCUS_ASSIGN_OR_RETURN(auto rec, db_->Lookup(oid));
      if (rec.has_value()) page.url = rec->url;
      pages.push_back(std::move(page));
    }
    return pages;
  };

  DistillResult result;
  FOCUS_ASSIGN_OR_RETURN(result.hubs, ranked_from(distill_tables_.hubs));
  FOCUS_ASSIGN_OR_RETURN(result.authorities,
                         ranked_from(distill_tables_.auth));
  return result;
}

Result<std::unique_ptr<FocusSystem>> FocusSystem::Create(
    taxonomy::Taxonomy tax, FocusOptions options,
    std::vector<webgraph::TopicAffinity> affinities) {
  options.web.seed = options.web.seed == 1 ? options.seed : options.web.seed;
  auto system = std::unique_ptr<FocusSystem>(
      new FocusSystem(std::move(tax), options));
  FOCUS_ASSIGN_OR_RETURN(
      webgraph::SimulatedWeb web,
      webgraph::SimulatedWeb::Generate(system->tax_, options.web,
                                       std::move(affinities)));
  system->web_ = std::make_unique<webgraph::SimulatedWeb>(std::move(web));
  return system;
}

Status FocusSystem::MarkGood(std::string_view topic_name) {
  FOCUS_ASSIGN_OR_RETURN(taxonomy::Cid cid, tax_.FindByName(topic_name));
  return tax_.MarkGood(cid);
}

Status FocusSystem::Train() {
  Rng rng(options_.seed ^ 0xD0C5EED5u);
  std::vector<classify::LabeledDocument> examples;
  uint64_t did = 1;
  for (taxonomy::Cid leaf : tax_.LeavesUnder(taxonomy::kRootCid)) {
    for (int i = 0; i < options_.examples_per_topic; ++i) {
      examples.push_back(classify::LabeledDocument{
          did++, leaf, web_->SampleDocumentForTopic(leaf, &rng)});
    }
  }
  classify::Trainer trainer(options_.trainer);
  FOCUS_ASSIGN_OR_RETURN(model_, trainer.Train(tax_, examples));
  classifier_ =
      std::make_unique<classify::HierarchicalClassifier>(&tax_, &model_);
  return Status::OK();
}

Result<std::unique_ptr<CrawlSession>> FocusSystem::NewCrawl(
    const std::vector<std::string>& seed_urls,
    const crawl::CrawlerOptions& crawler_options) {
  if (!trained()) {
    return Status::FailedPrecondition("call Train() before NewCrawl()");
  }
  auto session = std::unique_ptr<CrawlSession>(new CrawlSession());
  // Sessions share one registry; the pool label tells them apart.
  static std::atomic<uint64_t> next_session_id{1};
  std::string session_name =
      StrCat("session-", next_session_id.fetch_add(1));
  session->name_ = session_name;
  session->metrics_ = crawler_options.metrics_registry;
  storage::DiskManager* session_disk = nullptr;
  if (options_.session_db_dir.empty()) {
    session->disk_ = std::make_unique<storage::MemDiskManager>();
    session_disk = session->disk_.get();
  } else {
    // Durable session: data + log files behind the write-ahead log. A new
    // session always starts fresh (truncate); crash recovery reopens the
    // same files with FileDiskManager::Options{.truncate = false} and
    // WalDiskManager::Open (see tests/wal_recovery_test.cc).
    if (::mkdir(options_.session_db_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return Status::IOError(StrCat("mkdir(", options_.session_db_dir,
                                    ") failed: ", std::strerror(errno)));
    }
    std::string base = StrCat(options_.session_db_dir, "/", session_name);
    FOCUS_ASSIGN_OR_RETURN(session->data_disk_,
                           storage::FileDiskManager::Open(base + ".db"));
    FOCUS_ASSIGN_OR_RETURN(session->log_disk_,
                           storage::FileDiskManager::Open(base + ".wal"));
    FOCUS_ASSIGN_OR_RETURN(
        session->wal_, storage::WalDiskManager::Open(
                           session->data_disk_.get(), session->log_disk_.get()));
    session->wal_->BindMetrics(crawler_options.metrics_registry,
                               session_name);
    session->wal_->BindEventLog(crawler_options.event_log);
    session_disk = session->wal_.get();
  }
  session->pool_ = std::make_unique<storage::BufferPool>(
      session_disk, options_.session_buffer_frames);
  session->pool_->BindMetrics(crawler_options.metrics_registry,
                              session_name);
  session->catalog_ = std::make_unique<sql::Catalog>(session->pool_.get());
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                         crawl::CrawlDb::Create(session->catalog_.get()));
  session->db_ = std::make_unique<crawl::CrawlDb>(std::move(db));
  if (session->wal_ != nullptr) session->db_->BindWal(session->wal_.get());
  session->evaluator_ =
      std::make_unique<crawl::ClassifierEvaluator>(classifier_.get());
  session->crawler_ = std::make_unique<crawl::Crawler>(
      web_.get(), session->evaluator_.get(), session->db_.get(),
      session->catalog_.get(), crawler_options);
  for (const std::string& url : seed_urls) {
    FOCUS_RETURN_IF_ERROR(session->crawler_->AddSeed(url));
  }
  return session;
}

}  // namespace focus::core
