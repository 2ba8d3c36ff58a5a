// Figure 8(a): classification running time of the three formulations.
//
//   SQL     — SingleProbe over per-row STAT tables (index probe per term,
//             one heap fetch per (child, term) statistic)
//   BLOB    — SingleProbe over the packed BLOB table (one fetch per term)
//   CLI     — BulkProbe, the Figure 3 sort-merge plan, scalar engine
//   CLI-VEC — the same plan on the vectorized batch engine
//
// `--json` switches the report from CSV to a JSON array (one object per
// variant) for the CI bench-smoke gate, which asserts the vectorized join
// pass beats the scalar one. `--explain` additionally prints the CLI and
// CLI-VEC plans with EXPLAIN ANALYZE operator timings.
//
// The paper reports over an order of magnitude between SQL/BLOB and CLI,
// with per-document time broken into document scan / statistics probe /
// CPU. We report seconds per document, the same breakdown, and buffer-pool
// misses per document (the hardware-independent signal).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

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

constexpr int kCategories = 8;
constexpr int kLeavesPerCategory = 14;
constexpr int kTrainDocsPerLeaf = 8;
constexpr int kTestDocs = 200;
constexpr int kBufferFrames = 256;        // 1 MiB — far below the model size
constexpr double kReadLatencyUs = 120;    // a (conservative) 1999-era seek
// Streaming a page after the head is positioned is much cheaper than the
// seek: batched readahead amortizes one seek over a whole window.
constexpr double kTransferLatencyUs = 10;
constexpr uint32_t kReadaheadWindow = 32;

int Run(bool json, bool explain) {
  taxonomy::Taxonomy tax = MakeWideTaxonomy(kCategories, kLeavesPerCategory);
  SyntheticTextOptions text_options;
  text_options.tokens_per_doc = 250;
  text_options.leaf_vocab = 300;
  text_options.shared_vocab = 20000;
  text_options.zipf_exponent = 0.75;  // flatter term distribution: less
                                      // locality for the probe classifiers
  SyntheticText text(&tax, text_options);
  Rng rng(17);

  if (!json) {
    Note("figure 8(a): classifier running time, SQL vs BLOB vs CLI(bulk)");
    Note("taxonomy: ", tax.num_topics(), " topics; train docs/leaf: ",
         kTrainDocsPerLeaf, "; test docs: ", kTestDocs);
  }

  classify::Trainer trainer(
      classify::TrainerOptions{.max_features_per_node = 4000,
                               .min_document_frequency = 2});
  auto model = trainer.Train(tax, text.MakeTrainingSet(kTrainDocsPerLeaf,
                                                       &rng));
  FOCUS_CHECK(model.ok(), model.status().ToString());
  classify::HierarchicalClassifier ref(&tax, &model.value());

  storage::MemDiskManager disk(storage::MemDiskManager::Options{
      .read_latency_us = kReadLatencyUs,
      .write_latency_us = 0,
      .transfer_latency_us = kTransferLatencyUs});
  storage::BufferPool pool(&disk, kBufferFrames,
                           storage::BufferPool::Options{
                               .readahead_window = kReadaheadWindow,
                               .auto_readahead = true});
  sql::Catalog catalog(&pool);
  auto tables = classify::BuildClassifierTables(&catalog, tax,
                                                model.value());
  FOCUS_CHECK(tables.ok(), tables.status().ToString());
  if (!json) {
    Note("model pages on disk: ", disk.NumPages(), " (",
         disk.NumPages() * 4, " KiB); buffer pool: ", kBufferFrames,
         " frames (", kBufferFrames * 4, " KiB)");
  }

  // Materialize test documents in a DOCUMENT table (populated at crawl
  // time in the real system).
  auto document = classify::CreateDocumentTable(&catalog, "DOCUMENT");
  FOCUS_CHECK(document.ok());
  std::vector<text::TermVector> docs;
  auto leaves = tax.LeavesUnder(taxonomy::kRootCid);
  for (int i = 0; i < kTestDocs; ++i) {
    docs.push_back(text.MakeDoc(leaves[i % leaves.size()], &rng));
    FOCUS_CHECK(
        classify::InsertDocument(document.value(), i + 1, docs.back()).ok());
  }

  struct Row {
    const char* variant;
    double per_doc, scan_doc_s, probe_s, cpu_s, misses_per_doc, relative;
    double hit_ratio, readahead_used_frac;
  };
  std::vector<Row> report;
  double baseline = 0;

  // Pool behaviour of the variant that just ran (EvictAll + ResetStats
  // precede each one).
  auto pool_hit_ratio = [&] { return pool.stats().hit_ratio(); };
  auto pool_readahead_used = [&] {
    storage::BufferPool::Stats s = pool.stats();
    if (std::getenv("FOCUS_POOL_TRACE") != nullptr) {
      std::fprintf(stderr,
                   "POOL fetches=%llu hits=%llu misses=%llu evict=%llu "
                   "ra_issued=%llu ra_used=%llu\n",
                   (unsigned long long)s.fetches, (unsigned long long)s.hits,
                   (unsigned long long)s.misses,
                   (unsigned long long)s.evictions,
                   (unsigned long long)s.readahead_issued,
                   (unsigned long long)s.readahead_used);
    }
    return s.readahead_issued == 0
               ? 0.0
               : static_cast<double>(s.readahead_used) /
                     static_cast<double>(s.readahead_issued);
  };

  auto run_single = [&](classify::SingleProbeClassifier::Variant variant,
                        const char* name) {
    classify::SingleProbeClassifier clf(&ref, &tables.value(), variant);
    FOCUS_CHECK(pool.EvictAll().ok());
    pool.ResetStats();
    Stopwatch total;
    double scan_doc = 0;
    for (int i = 0; i < kTestDocs; ++i) {
      Stopwatch fetch_timer;
      auto terms = classify::FetchDocument(document.value(), i + 1);
      FOCUS_CHECK(terms.ok());
      scan_doc += fetch_timer.ElapsedSeconds();
      FOCUS_CHECK(clf.Classify(terms.value()).ok());
    }
    double seconds = total.ElapsedSeconds();
    double per_doc = seconds / kTestDocs;
    if (baseline == 0) baseline = per_doc;
    report.push_back(Row{name, per_doc, scan_doc / kTestDocs,
                         clf.stats().probe_seconds / kTestDocs,
                         clf.stats().compute_seconds / kTestDocs,
                         static_cast<double>(pool.stats().misses) /
                             kTestDocs,
                         per_doc / baseline, pool_hit_ratio(),
                         pool_readahead_used()});
  };
  run_single(classify::SingleProbeClassifier::Variant::kSqlRows, "SQL");
  run_single(classify::SingleProbeClassifier::Variant::kBlob, "BLOB");

  auto run_bulk = [&](sql::ExecEngine engine, const char* name) {
    classify::BulkProbeClassifier bulk(&ref, &tables.value());
    bulk.SetEngine(engine);
    FOCUS_CHECK(pool.EvictAll().ok());
    pool.ResetStats();
    sql::PlanStats plan;
    classify::BulkProbeClassifier::Stats stats;
    Stopwatch total;
    auto scores = bulk.ClassifyWithPlan(document.value(),
                                        explain ? &plan : nullptr, &stats);
    FOCUS_CHECK(scores.ok(), scores.status().ToString());
    FOCUS_CHECK(scores.value().size() == kTestDocs);
    if (explain) {
      std::fprintf(stderr, "# --- %s plan ---\n%s", name,
                   plan.Format().c_str());
    }
    double per_doc = total.ElapsedSeconds() / kTestDocs;
    report.push_back(
        Row{name, per_doc,
            0.0,  // the bulk plan scans DOCUMENT inside its joins
            stats.join_seconds / kTestDocs,
            stats.finalize_seconds / kTestDocs,
            static_cast<double>(pool.stats().misses) / kTestDocs,
            per_doc / baseline, pool_hit_ratio(), pool_readahead_used()});
  };
  run_bulk(sql::ExecEngine::kScalar, "CLI");
  run_bulk(sql::ExecEngine::kVectorized, "CLI-VEC");

  if (json) {
    std::printf("[\n");
    for (size_t i = 0; i < report.size(); ++i) {
      const Row& r = report[i];
      std::printf("  {\"variant\":\"%s\",\"seconds_per_doc\":%.6f,"
                  "\"scan_doc_s\":%.6f,\"probe_s\":%.6f,\"cpu_s\":%.6f,"
                  "\"misses_per_doc\":%.1f,\"relative\":%.2f,"
                  "\"hit_ratio\":%.4f,\"readahead_used_frac\":%.4f}%s\n",
                  r.variant, r.per_doc, r.scan_doc_s, r.probe_s, r.cpu_s,
                  r.misses_per_doc, r.relative, r.hit_ratio,
                  r.readahead_used_frac,
                  i + 1 < report.size() ? "," : "");
    }
    std::printf("]\n");
  } else {
    std::printf("variant,seconds_per_doc,scan_doc_s,probe_s,cpu_s,"
                "misses_per_doc,relative,hit_ratio,readahead_used_frac\n");
    for (const Row& r : report) {
      std::printf("%s,%.6f,%.6f,%.6f,%.6f,%.1f,%.2f,%.4f,%.4f\n", r.variant,
                  r.per_doc, r.scan_doc_s, r.probe_s, r.cpu_s,
                  r.misses_per_doc, r.relative, r.hit_ratio,
                  r.readahead_used_frac);
    }
  }
  return 0;
}

}  // namespace
}  // namespace focus::bench

int main(int argc, char** argv) {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  bool json = false;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--explain") == 0) explain = true;
  }
  return focus::bench::Run(json, explain);
}
