// Figure 8(b): running time vs buffer-pool size.
//
// The paper sweeps the DB2 buffer pool from 128 to 928 4-KiB pages:
// SingleProbe shows continual improvement (no locality — every added
// frame helps), while BulkProbe drops steeply and then stabilizes (its
// sequential passes need only a small working set). As in the paper, a
// smaller document set is used for SingleProbe, which is slow.
#include <cstdio>

#include "bench/bench_util.h"
#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "classify/hierarchical_classifier.h"
#include "classify/single_probe.h"
#include "classify/trainer.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/clock.h"
#include "util/logging.h"

namespace focus::bench {
namespace {

constexpr int kSingleProbeDocs = 40;
constexpr int kBulkDocs = 200;
constexpr double kReadLatencyUs = 120;

int Run() {
  taxonomy::Taxonomy tax = MakeWideTaxonomy(8, 14);
  SyntheticTextOptions text_options;
  text_options.tokens_per_doc = 250;
  text_options.leaf_vocab = 500;
  text_options.shared_vocab = 30000;
  text_options.zipf_exponent = 0.75;  // flatter term distribution: less
                                      // locality for the probe classifiers
  SyntheticText text(&tax, text_options);
  Rng rng(23);

  classify::Trainer trainer(
      classify::TrainerOptions{.max_features_per_node = 4000});
  auto model = trainer.Train(tax, text.MakeTrainingSet(12, &rng));
  FOCUS_CHECK(model.ok(), model.status().ToString());
  classify::HierarchicalClassifier ref(&tax, &model.value());

  auto leaves = tax.LeavesUnder(taxonomy::kRootCid);
  std::vector<text::TermVector> docs;
  for (int i = 0; i < kBulkDocs; ++i) {
    docs.push_back(text.MakeDoc(leaves[i % leaves.size()], &rng));
  }

  Note("figure 8(b): running time vs buffer pool (x 4KiB frames)");
  Note("single-probe (BLOB) docs: ", kSingleProbeDocs,
       "; bulk docs: ", kBulkDocs);
  std::printf("frames,single_total_s_per_doc,single_probe_s_per_doc,"
              "single_misses_per_doc,bulk_total_s_per_doc,"
              "bulk_join_s_per_doc,bulk_misses_per_doc\n");

  for (int frames : {16, 32, 64, 128, 228, 328, 428, 528, 628, 728, 828,
                     928}) {
    // Rebuild tables per point so index/heap layout is identical.
    storage::MemDiskManager disk(
        storage::MemDiskManager::Options{.read_latency_us = kReadLatencyUs});
    storage::BufferPool pool(&disk, frames);
    sql::Catalog catalog(&pool);
    auto tables =
        classify::BuildClassifierTables(&catalog, tax, model.value());
    FOCUS_CHECK(tables.ok(), tables.status().ToString());
    auto document = classify::CreateDocumentTable(&catalog, "DOCUMENT");
    FOCUS_CHECK(document.ok());
    for (int i = 0; i < kBulkDocs; ++i) {
      FOCUS_CHECK(
          classify::InsertDocument(document.value(), i + 1, docs[i]).ok());
    }

    classify::SingleProbeClassifier single(
        &ref, &tables.value(), classify::SingleProbeClassifier::Variant::
                                   kBlob);
    FOCUS_CHECK(pool.EvictAll().ok());
    pool.ResetStats();
    Stopwatch single_timer;
    for (int i = 0; i < kSingleProbeDocs; ++i) {
      FOCUS_CHECK(single.Classify(docs[i]).ok());
    }
    double single_total = single_timer.ElapsedSeconds() / kSingleProbeDocs;
    double single_probe = single.stats().probe_seconds / kSingleProbeDocs;
    double single_misses =
        static_cast<double>(pool.stats().misses) / kSingleProbeDocs;

    classify::BulkProbeClassifier bulk(&ref, &tables.value());
    FOCUS_CHECK(pool.EvictAll().ok());
    pool.ResetStats();
    classify::BulkProbeClassifier::Stats stats;
    Stopwatch bulk_timer;
    auto scores = bulk.ClassifyAll(document.value(), &stats);
    FOCUS_CHECK(scores.ok(), scores.status().ToString());
    double bulk_total = bulk_timer.ElapsedSeconds() / kBulkDocs;
    double bulk_join = stats.join_seconds / kBulkDocs;
    double bulk_misses =
        static_cast<double>(pool.stats().misses) / kBulkDocs;

    std::printf("%d,%.6f,%.6f,%.1f,%.6f,%.6f,%.1f\n", frames, single_total,
                single_probe, single_misses, bulk_total, bulk_join,
                bulk_misses);
  }
  return 0;
}

}  // namespace
}  // namespace focus::bench

int main() {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  return focus::bench::Run();
}
