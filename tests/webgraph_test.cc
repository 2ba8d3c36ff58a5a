#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "taxonomy/taxonomy.h"
#include "util/random.h"
#include "webgraph/simulated_web.h"

namespace focus::webgraph {
namespace {

using taxonomy::Cid;
using taxonomy::Taxonomy;

Taxonomy MakeTax() {
  Taxonomy tax;
  Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  tax.AddTopic(rec, "cycling").value();
  tax.AddTopic(rec, "gardening").value();
  Cid health = tax.AddTopic(taxonomy::kRootCid, "health").value();
  tax.AddTopic(health, "first_aid").value();
  return tax;
}

WebConfig SmallConfig(uint64_t seed = 7) {
  WebConfig config;
  config.seed = seed;
  config.pages_per_topic = 200;
  config.background_pages = 2000;
  config.background_servers = 50;
  return config;
}

class WebTest : public testing::Test {
 protected:
  WebTest() : tax_(MakeTax()) {
    cycling_ = tax_.FindByName("cycling").value();
    first_aid_ = tax_.FindByName("first_aid").value();
    auto web = SimulatedWeb::Generate(
        tax_, SmallConfig(),
        {TopicAffinity{cycling_, first_aid_, 0.08}});
    EXPECT_TRUE(web.ok()) << web.status();
    web_.emplace(web.TakeValue());
  }

  Taxonomy tax_;
  Cid cycling_, first_aid_;
  std::optional<SimulatedWeb> web_;
};

TEST_F(WebTest, PageCountsAndTopics) {
  // 3 leaves x 200 + 2000 background.
  EXPECT_EQ(web_->num_pages(), 3u * 200 + 2000);
  EXPECT_EQ(web_->PagesOfTopic(cycling_).size(), 200u);
  size_t background = 0;
  for (uint32_t i = 0; i < web_->num_pages(); ++i) {
    if (web_->page(i).topic == kBackgroundTopic) ++background;
  }
  EXPECT_EQ(background, 2000u);
}

TEST_F(WebTest, UrlsAreUniqueAndResolvable) {
  std::set<std::string> urls;
  for (uint32_t i = 0; i < web_->num_pages(); ++i) {
    urls.insert(web_->page(i).url);
    auto idx = web_->PageIndexByUrl(web_->page(i).url);
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(idx.value(), i);
  }
  EXPECT_EQ(urls.size(), web_->num_pages());
  EXPECT_FALSE(web_->PageIndexByUrl("http://nowhere/").ok());
}

TEST_F(WebTest, GenerationIsDeterministic) {
  auto web2 = SimulatedWeb::Generate(
      tax_, SmallConfig(),
      {TopicAffinity{cycling_, first_aid_, 0.08}});
  ASSERT_TRUE(web2.ok());
  ASSERT_EQ(web2.value().num_pages(), web_->num_pages());
  for (uint32_t i = 0; i < web_->num_pages(); i += 97) {
    EXPECT_EQ(web2.value().page(i).url, web_->page(i).url);
    EXPECT_EQ(web2.value().page(i).outlinks, web_->page(i).outlinks);
  }
  // Same page fetched twice yields identical text.
  auto f1 = web_->Fetch(web_->page(5).url);
  auto f2 = web_->Fetch(web_->page(5).url);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1.value().tokens, f2.value().tokens);
}

TEST_F(WebTest, Radius1RuleHolds) {
  // Non-hub topic pages link to their own topic with ~p_same_topic.
  int64_t same = 0, total = 0;
  for (uint32_t idx : web_->PagesOfTopic(cycling_)) {
    const PageInfo& page = web_->page(idx);
    if (page.is_hub) continue;
    for (uint32_t t : page.outlinks) {
      same += (web_->page(t).topic == cycling_);
      ++total;
    }
  }
  double fraction = static_cast<double>(same) / total;
  EXPECT_NEAR(fraction, SmallConfig().p_same_topic, 0.05);
}

TEST_F(WebTest, Radius2RuleHolds) {
  // §2: given that a page has one link to topic T, the chance of a second
  // link to T vastly exceeds the unconditional chance for a random page.
  // Use a web where the background dominates, as on the real web.
  WebConfig config = SmallConfig(5);
  config.background_pages = 20000;
  auto web_or = SimulatedWeb::Generate(tax_, config, {});
  ASSERT_TRUE(web_or.ok());
  const SimulatedWeb& web = web_or.value();
  int64_t pages_with_one = 0, pages_with_two = 0;
  for (uint32_t i = 0; i < web.num_pages(); ++i) {
    const PageInfo& page = web.page(i);
    int links_to_cycling = 0;
    for (uint32_t t : page.outlinks) {
      links_to_cycling += (web.page(t).topic == cycling_);
    }
    if (links_to_cycling >= 1) {
      ++pages_with_one;
      if (links_to_cycling >= 2) ++pages_with_two;
    }
  }
  double p_unconditional =
      static_cast<double>(pages_with_one) / web.num_pages();
  double p_conditional =
      static_cast<double>(pages_with_two) / pages_with_one;
  EXPECT_GT(p_conditional, 5 * p_unconditional);
  EXPECT_GT(p_conditional, 0.3);  // the paper cites ~45% for Yahoo! topics
}

TEST_F(WebTest, BackgroundRarelyLinksInward) {
  int64_t inward = 0, total = 0;
  for (uint32_t i = 0; i < web_->num_pages(); ++i) {
    const PageInfo& page = web_->page(i);
    if (page.topic != kBackgroundTopic) continue;
    for (uint32_t t : page.outlinks) {
      inward += (web_->page(t).topic != kBackgroundTopic);
      ++total;
    }
  }
  EXPECT_LT(static_cast<double>(inward) / total, 0.02);
}

TEST_F(WebTest, FetchReturnsTextAndLinks) {
  const PageInfo& page = web_->page(10);
  VirtualClock clock;
  auto fetch = web_->Fetch(page.url, &clock);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch.value().url, page.url);
  EXPECT_EQ(fetch.value().outlink_urls.size(), page.outlinks.size());
  EXPECT_GE(fetch.value().tokens.size(), 30u);
  EXPECT_GT(clock.NowMicros(), 0);
}

TEST_F(WebTest, FetchFailuresHappenAtConfiguredRate) {
  WebConfig config = SmallConfig(11);
  config.fetch_failure_prob = 0.2;
  auto web = SimulatedWeb::Generate(tax_, config, {});
  ASSERT_TRUE(web.ok());
  int failures = 0;
  const int attempts = 1000;
  for (int i = 0; i < attempts; ++i) {
    auto fetch = web.value().Fetch(web.value().page(i % 500).url);
    if (!fetch.ok()) {
      EXPECT_EQ(fetch.status().code(), StatusCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_NEAR(failures / static_cast<double>(attempts), 0.2, 0.06);
}

TEST_F(WebTest, KeywordSeedsComeFromTheTopic) {
  auto seeds = web_->KeywordSeeds(cycling_, 20);
  ASSERT_EQ(seeds.size(), 20u);
  for (const auto& url : seeds) {
    auto idx = web_->PageIndexByUrl(url);
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(web_->page(idx.value()).topic, cycling_);
  }
  // Disjoint slices for the coverage experiment's S1/S2.
  auto s2 = web_->KeywordSeeds(cycling_, 20, /*first=*/20);
  std::unordered_set<std::string> s1_set(seeds.begin(), seeds.end());
  for (const auto& url : s2) EXPECT_FALSE(s1_set.contains(url));
}

TEST_F(WebTest, CommunityHasLargeEffectiveRadius) {
  // From the top keyword seeds, some cycling pages should be many links
  // away (locality-window linking) — the premise of Figure 7.
  auto seeds = web_->KeywordSeeds(cycling_, 10);
  std::vector<uint32_t> sources;
  for (const auto& url : seeds) {
    sources.push_back(web_->PageIndexByUrl(url).value());
  }
  auto dist = web_->ShortestDistances(sources);
  int max_dist = 0, reachable = 0;
  for (uint32_t idx : web_->PagesOfTopic(cycling_)) {
    if (dist[idx] >= 0) {
      ++reachable;
      max_dist = std::max(max_dist, dist[idx]);
    }
  }
  EXPECT_GT(reachable, 150);
  EXPECT_GE(max_dist, 4);
}

TEST_F(WebTest, AffinityCreatesCrossTopicCitations) {
  int64_t to_first_aid = 0, total = 0;
  for (uint32_t idx : web_->PagesOfTopic(cycling_)) {
    for (uint32_t t : web_->page(idx).outlinks) {
      to_first_aid += (web_->page(t).topic == first_aid_);
      ++total;
    }
  }
  double fraction = static_cast<double>(to_first_aid) / total;
  EXPECT_GT(fraction, 0.03);
  EXPECT_LT(fraction, 0.15);
}

TEST_F(WebTest, SampledTrainingDocsMatchPageText) {
  // Training documents and page text share the topic's vocabulary prefix.
  Rng rng(3);
  auto doc = web_->SampleDocumentForTopic(cycling_, &rng);
  EXPECT_GT(doc.size(), 10u);
  auto keywords = web_->TopicKeywords(cycling_, 3);
  EXPECT_EQ(keywords.size(), 3u);
}

TEST_F(WebTest, HubsExistAndConcentrateOnTopic) {
  int hubs = 0;
  for (uint32_t idx : web_->PagesOfTopic(cycling_)) {
    const PageInfo& page = web_->page(idx);
    if (!page.is_hub) continue;
    ++hubs;
    EXPECT_GE(page.outlinks.size(), 30u);
    int same = 0;
    for (uint32_t t : page.outlinks) {
      same += (web_->page(t).topic == cycling_);
    }
    EXPECT_GT(static_cast<double>(same) / page.outlinks.size(), 0.6);
  }
  EXPECT_GT(hubs, 2);
  EXPECT_LT(hubs, 40);
}

// One fetch, rendered for comparison: status, content and charged latency.
std::string FetchOutcome(const SimulatedWeb& web, uint32_t index,
                         int32_t attempt) {
  VirtualClock clock;
  auto r = web.Fetch(web.page(index).url, &clock, attempt);
  std::string out = std::to_string(static_cast<int>(r.status().code())) +
                    "@" + std::to_string(clock.NowMicros());
  if (r.ok()) {
    for (const std::string& t : r.value().tokens) out += " " + t;
    for (const std::string& u : r.value().outlink_urls) out += " >" + u;
    if (r.value().truncated) out += " [truncated]";
  }
  return out;
}

// Fetch and Backlinks are reentrant: eight threads fetching and querying
// the same pages at once, with no outside lock, see exactly the outcomes a
// serial pass sees, and the internal attempt counter hands each concurrent
// caller a distinct ordinal.
TEST_F(WebTest, ConcurrentFetchesMatchSerialOutcomes) {
  constexpr int kThreads = 8;
  constexpr uint32_t kPages = 300;
  constexpr int kAttempts = 2;
  std::vector<std::string> serial(kPages * kAttempts);
  std::vector<std::vector<std::string>> serial_citers(kPages);
  for (uint32_t i = 0; i < kPages; ++i) {
    for (int a = 0; a < kAttempts; ++a) {
      serial[i * kAttempts + a] = FetchOutcome(*web_, i, a + 1);
    }
    serial_citers[i] = web_->Backlinks(web_->page(i).url, 5).TakeValue();
  }

  const uint64_t count_before = web_->fetch_count();
  std::atomic<int> mismatches{0};
  std::vector<std::vector<std::string>> counted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t k = 0; k < kPages; ++k) {
        uint32_t i = (k + 37 * t) % kPages;  // threads collide on pages
        for (int a = 0; a < kAttempts; ++a) {
          if (FetchOutcome(*web_, i, a + 1) != serial[i * kAttempts + a]) {
            ++mismatches;
          }
        }
        if (web_->Backlinks(web_->page(i).url, 5).TakeValue() !=
            serial_citers[i]) {
          ++mismatches;
        }
      }
      // Internal numbering: every thread fetches page 0 once unnumbered.
      counted[t].push_back(FetchOutcome(*web_, 0, 0));
    });
  }
  for (std::thread& th : threads) th.join();
  const uint64_t fetched = web_->fetch_count() - count_before;
  EXPECT_EQ(mismatches.load(), 0);

  // The eight unnumbered fetches took attempts 1..8 in some order.
  std::vector<std::string> got, want;
  for (const auto& c : counted) got.insert(got.end(), c.begin(), c.end());
  for (int a = 1; a <= kThreads; ++a) want.push_back(FetchOutcome(*web_, 0, a));
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  // The fetch counter lost no increment: per thread, the serial pass's
  // successes plus its unnumbered fetch (if it succeeded).
  uint64_t serial_ok = 0;
  for (const std::string& o : serial) serial_ok += o.rfind("0@", 0) == 0;
  uint64_t counted_ok = 0;
  for (const std::string& o : got) counted_ok += o.rfind("0@", 0) == 0;
  EXPECT_EQ(fetched, kThreads * serial_ok + counted_ok);
}

}  // namespace
}  // namespace focus::webgraph
