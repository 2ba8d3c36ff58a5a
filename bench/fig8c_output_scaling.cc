// Figure 8(c): BulkProbe running time vs output size.
//
// The paper scatters running time against |{ci}| x |{d}| (the number of
// (child, document) scores produced) over 1e3..1e8 and finds the bulk
// algorithm roughly linear in output size. We sweep document batch size
// and taxonomy width and report (output_rows, seconds).
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

constexpr double kReadLatencyUs = 120;

void RunConfig(int categories, int leaves_per_category, int num_docs) {
  taxonomy::Taxonomy tax = MakeWideTaxonomy(categories, leaves_per_category);
  SyntheticTextOptions text_options;
  SyntheticText text(&tax, text_options);
  Rng rng(31);

  classify::Trainer trainer(
      classify::TrainerOptions{.max_features_per_node = 1500});
  auto model = trainer.Train(tax, text.MakeTrainingSet(8, &rng));
  FOCUS_CHECK(model.ok(), model.status().ToString());
  classify::HierarchicalClassifier ref(&tax, &model.value());

  storage::MemDiskManager disk(
      storage::MemDiskManager::Options{.read_latency_us = kReadLatencyUs});
  storage::BufferPool pool(&disk, 256);
  sql::Catalog catalog(&pool);
  auto tables = classify::BuildClassifierTables(&catalog, tax,
                                                model.value());
  FOCUS_CHECK(tables.ok(), tables.status().ToString());
  auto document = classify::CreateDocumentTable(&catalog, "DOCUMENT");
  FOCUS_CHECK(document.ok());
  auto leaves = tax.LeavesUnder(taxonomy::kRootCid);
  for (int i = 0; i < num_docs; ++i) {
    FOCUS_CHECK(classify::InsertDocument(
                    document.value(), i + 1,
                    text.MakeDoc(leaves[i % leaves.size()], &rng))
                    .ok());
  }

  classify::BulkProbeClassifier bulk(&ref, &tables.value());
  FOCUS_CHECK(pool.EvictAll().ok());
  pool.ResetStats();
  classify::BulkProbeClassifier::Stats stats;
  Stopwatch timer;
  auto scores = bulk.ClassifyAll(document.value(), &stats);
  FOCUS_CHECK(scores.ok(), scores.status().ToString());
  double seconds = timer.ElapsedSeconds();
  std::printf("%dx%d,%d,%llu,%.4f\n", categories, leaves_per_category,
              num_docs,
              static_cast<unsigned long long>(stats.output_rows),
              seconds);
}

int Run() {
  Note("figure 8(c): bulk classification time vs output size "
       "|{ci}| x |{d}|");
  std::printf("taxonomy,docs,output_rows,seconds\n");
  for (int docs : {25, 50, 100, 200, 400, 800}) {
    RunConfig(4, 6, docs);
  }
  for (int docs : {25, 100, 400, 800}) {
    RunConfig(8, 14, docs);
  }
  return 0;
}

}  // namespace
}  // namespace focus::bench

int main() {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  return focus::bench::Run();
}
