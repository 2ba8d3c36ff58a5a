#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "classify/hierarchical_classifier.h"
#include "classify/model.h"
#include "classify/single_probe.h"
#include "classify/trainer.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "taxonomy/taxonomy.h"
#include "text/document.h"
#include "util/random.h"
#include "util/string_util.h"

namespace focus::classify {
namespace {

using taxonomy::Cid;
using taxonomy::Taxonomy;
using text::TermVector;

// A two-level taxonomy with distinctive vocabulary per leaf plus shared
// background vocabulary.
class ClassifyTest : public testing::Test {
 protected:
  ClassifyTest() : pool_(&disk_, 512), catalog_(&pool_), rng_(42) {
    Cid rec = tax_.AddTopic(taxonomy::kRootCid, "recreation").value();
    Cid biz = tax_.AddTopic(taxonomy::kRootCid, "business").value();
    cycling_ = tax_.AddTopic(rec, "cycling").value();
    gardening_ = tax_.AddTopic(rec, "gardening").value();
    funds_ = tax_.AddTopic(biz, "mutual_funds").value();
    stocks_ = tax_.AddTopic(biz, "stocks").value();
    leaves_ = {cycling_, gardening_, funds_, stocks_};
  }

  // Document of `n` tokens: 60% from the leaf's own vocabulary (20 terms),
  // 40% from a shared background vocabulary (50 terms).
  TermVector MakeDoc(Cid leaf, int n = 120) {
    std::vector<std::string> tokens;
    tokens.reserve(n);
    for (int i = 0; i < n; ++i) {
      if (rng_.Bernoulli(0.6)) {
        tokens.push_back(StrCat("w_", tax_.Name(leaf), "_",
                                rng_.Uniform(20)));
      } else {
        tokens.push_back(StrCat("bg_", rng_.Uniform(50)));
      }
    }
    return text::BuildTermVector(tokens);
  }

  std::vector<LabeledDocument> MakeTrainingSet(int docs_per_leaf) {
    std::vector<LabeledDocument> out;
    uint64_t did = 1;
    for (Cid leaf : leaves_) {
      for (int i = 0; i < docs_per_leaf; ++i) {
        out.push_back(LabeledDocument{did++, leaf, MakeDoc(leaf)});
      }
    }
    return out;
  }

  storage::MemDiskManager disk_;
  storage::BufferPool pool_;
  sql::Catalog catalog_;
  Rng rng_;
  Taxonomy tax_;
  Cid cycling_, gardening_, funds_, stocks_;
  std::vector<Cid> leaves_;
};

TEST_F(ClassifyTest, TrainerRequiresExamplesUnderEveryChild) {
  std::vector<LabeledDocument> only_cycling = {
      LabeledDocument{1, cycling_, MakeDoc(cycling_)}};
  Trainer trainer;
  auto model = trainer.Train(tax_, only_cycling);
  EXPECT_EQ(model.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ClassifyTest, TrainerProducesSparseModel) {
  Trainer trainer(TrainerOptions{.max_features_per_node = 100});
  auto model = trainer.Train(tax_, MakeTrainingSet(20));
  ASSERT_TRUE(model.ok()) << model.status();
  // One NodeModel per internal node (root + 2).
  EXPECT_EQ(model.value().nodes.size(), 3u);
  for (const auto& [cid, node] : model.value().nodes) {
    EXPECT_LE(node.stats.size(), 100u) << "node " << cid;
    EXPECT_GT(node.stats.size(), 0u) << "node " << cid;
  }
  // Priors of siblings sum to ~1.
  for (Cid c0 : tax_.InternalPreorder()) {
    double total = 0;
    for (Cid ci : tax_.Children(c0)) {
      total += std::exp(model.value().logprior[ci]);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(ClassifyTest, ClassifierRecoversGeneratingClass) {
  Trainer trainer;
  auto model = trainer.Train(tax_, MakeTrainingSet(30));
  ASSERT_TRUE(model.ok());
  HierarchicalClassifier clf(&tax_, &model.value());
  int correct = 0, total = 0;
  for (Cid leaf : leaves_) {
    for (int i = 0; i < 10; ++i) {
      ClassScores scores = clf.Classify(MakeDoc(leaf));
      if (scores.BestLeaf(tax_) == leaf) ++correct;
      ++total;
    }
  }
  EXPECT_GE(correct, total * 9 / 10) << correct << "/" << total;
}

TEST_F(ClassifyTest, ProbabilityMeasureProperty) {
  // §1.1: R_root = 1 and sum over children of R_ci equals R_c0.
  Trainer trainer;
  auto model = trainer.Train(tax_, MakeTrainingSet(15));
  ASSERT_TRUE(model.ok());
  HierarchicalClassifier clf(&tax_, &model.value());
  for (int i = 0; i < 5; ++i) {
    ClassScores scores = clf.Classify(MakeDoc(leaves_[i % 4]));
    EXPECT_DOUBLE_EQ(scores.Prob(taxonomy::kRootCid), 1.0);
    for (Cid c0 : tax_.InternalPreorder()) {
      double child_sum = 0;
      for (Cid ci : tax_.Children(c0)) child_sum += scores.Prob(ci);
      EXPECT_NEAR(child_sum, scores.Prob(c0), 1e-9);
    }
  }
}

TEST_F(ClassifyTest, SoftRelevanceMatchesGoodTopicMass) {
  Trainer trainer;
  auto model = trainer.Train(tax_, MakeTrainingSet(15));
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(tax_.MarkGood(cycling_).ok());
  HierarchicalClassifier clf(&tax_, &model.value());
  TermVector doc = MakeDoc(cycling_);
  ClassScores scores = clf.Classify(doc);
  EXPECT_NEAR(clf.Relevance(doc), scores.Prob(cycling_), 1e-12);
  EXPECT_GT(clf.Relevance(doc), 0.5);
  EXPECT_LT(clf.Relevance(MakeDoc(funds_)), 0.2);
}

TEST_F(ClassifyTest, BlobPayloadRoundTrip) {
  std::vector<ChildStat> stats = {{3, -1.5}, {4, -2.25}, {900, -0.125}};
  auto back = DecodeBlobPayload(EncodeBlobPayload(stats));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 3u);
  EXPECT_EQ(back.value()[2].kcid, 900);
  EXPECT_DOUBLE_EQ(back.value()[1].logtheta, -2.25);
  EXPECT_FALSE(DecodeBlobPayload("12345").ok());  // bad length
}

TEST_F(ClassifyTest, DocumentTableRoundTrip) {
  auto doc_table = CreateDocumentTable(&catalog_, "DOCUMENT");
  ASSERT_TRUE(doc_table.ok());
  TermVector terms = MakeDoc(cycling_);
  ASSERT_TRUE(InsertDocument(doc_table.value(), 77, terms).ok());
  auto back = FetchDocument(doc_table.value(), 77);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), terms);
  auto missing = FetchDocument(doc_table.value(), 78);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing.value().empty());
}

// The central equivalence property: the in-memory classifier, both
// SingleProbe variants and BulkProbe must produce identical posteriors.
class ProbeEquivalenceTest : public ClassifyTest,
                             public testing::WithParamInterface<int> {};

TEST_P(ProbeEquivalenceTest, AllFourClassifiersAgree) {
  rng_.Seed(GetParam() * 1000 + 7);
  Trainer trainer(TrainerOptions{.max_features_per_node = 150});
  auto model = trainer.Train(tax_, MakeTrainingSet(12));
  ASSERT_TRUE(model.ok());
  HierarchicalClassifier ref(&tax_, &model.value());
  auto tables = BuildClassifierTables(&catalog_, tax_, model.value());
  ASSERT_TRUE(tables.ok()) << tables.status();
  SingleProbeClassifier sql_probe(&ref, &tables.value(),
                                  SingleProbeClassifier::Variant::kSqlRows);
  SingleProbeClassifier blob_probe(&ref, &tables.value(),
                                   SingleProbeClassifier::Variant::kBlob);
  BulkProbeClassifier bulk(&ref, &tables.value());

  auto doc_table = CreateDocumentTable(&catalog_, "DOCUMENT");
  ASSERT_TRUE(doc_table.ok());
  std::vector<TermVector> docs;
  for (int i = 0; i < 8; ++i) {
    docs.push_back(MakeDoc(leaves_[i % 4]));
    ASSERT_TRUE(InsertDocument(doc_table.value(), i + 1, docs.back()).ok());
  }

  BulkProbeClassifier::Stats bulk_stats;
  auto bulk_scores = bulk.ClassifyAll(doc_table.value(), &bulk_stats);
  ASSERT_TRUE(bulk_scores.ok()) << bulk_scores.status();
  ASSERT_EQ(bulk_scores.value().size(), docs.size());

  for (size_t i = 0; i < docs.size(); ++i) {
    ClassScores expected = ref.Classify(docs[i]);
    auto s1 = sql_probe.Classify(docs[i]);
    auto s2 = blob_probe.Classify(docs[i]);
    ASSERT_TRUE(s1.ok());
    ASSERT_TRUE(s2.ok());
    const ClassScores& s3 = bulk_scores.value().at(i + 1);
    for (Cid c = 0; c < tax_.num_topics(); ++c) {
      EXPECT_NEAR(s1.value().logp[c], expected.logp[c], 1e-9)
          << "sql variant, cid " << c;
      EXPECT_NEAR(s2.value().logp[c], expected.logp[c], 1e-9)
          << "blob variant, cid " << c;
      EXPECT_NEAR(s3.logp[c], expected.logp[c], 1e-9)
          << "bulk variant, cid " << c;
    }
  }
  EXPECT_GT(sql_probe.stats().probes, 0u);
  EXPECT_GT(blob_probe.stats().probes, 0u);
  EXPECT_GT(bulk_stats.output_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeEquivalenceTest, testing::Range(1, 6));

TEST_F(ClassifyTest, SingleProbeRowCounts) {
  Trainer trainer;
  auto model = trainer.Train(tax_, MakeTrainingSet(10));
  ASSERT_TRUE(model.ok());
  HierarchicalClassifier ref(&tax_, &model.value());
  auto tables = BuildClassifierTables(&catalog_, tax_, model.value());
  ASSERT_TRUE(tables.ok());
  SingleProbeClassifier sql_probe(&ref, &tables.value(),
                                  SingleProbeClassifier::Variant::kSqlRows);
  SingleProbeClassifier blob_probe(&ref, &tables.value(),
                                   SingleProbeClassifier::Variant::kBlob);
  TermVector doc = MakeDoc(cycling_);
  ASSERT_TRUE(sql_probe.Classify(doc).ok());
  ASSERT_TRUE(blob_probe.Classify(doc).ok());
  // The SQL variant fetches one heap row per (child, term) stat; BLOB
  // fetches one packed row per term. Equal probes, fewer BLOB fetches.
  EXPECT_EQ(sql_probe.stats().probes, blob_probe.stats().probes);
  EXPECT_GE(sql_probe.stats().rows_fetched,
            blob_probe.stats().rows_fetched);
}

}  // namespace
}  // namespace focus::classify
