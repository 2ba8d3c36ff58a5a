// The benchmark's timing decorators must forward every call unchanged: a
// 1-thread crawl through them visits the same pages, in the same order,
// with the same scores, and leaves the same CRAWL and LINK rows as one
// without them; a 4-thread crawl to exhaustion visits the same closure.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paper_config.h"
#include "storage/page.h"
#include "timing.h"

namespace focus::perfbench {
namespace {

TEST(TimedDiskTest, ForwardsEveryCall) {
  storage::MemDiskManager plain;
  storage::MemDiskManager wrapped;
  TimedDisk timed(&wrapped);
  std::vector<char> page(storage::kPageSize);
  for (int i = 0; i < 6; ++i) {
    auto a = plain.AllocatePage();
    auto b = timed.AllocatePage();
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value());
    std::memset(page.data(), 'a' + i, page.size());
    ASSERT_TRUE(plain.WritePage(a.value(), page.data()).ok());
    ASSERT_TRUE(timed.WritePage(b.value(), page.data()).ok());
  }
  EXPECT_EQ(timed.NumPages(), plain.NumPages());
  ASSERT_TRUE(timed.Sync().ok());

  std::vector<char> want(4 * storage::kPageSize);
  std::vector<char> got(4 * storage::kPageSize);
  ASSERT_TRUE(plain.ReadPages(1, 4, want.data()).ok());
  ASSERT_TRUE(timed.ReadPages(1, 4, got.data()).ok());
  EXPECT_EQ(want, got);
  ASSERT_TRUE(plain.ReadPage(5, want.data()).ok());
  ASSERT_TRUE(timed.ReadPage(5, got.data()).ok());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), storage::kPageSize));
  // Errors pass through too.
  EXPECT_FALSE(timed.ReadPage(99, got.data()).ok());

  IoSnapshot io = timed.Snapshot();
  EXPECT_EQ(io.allocs, 6u);
  EXPECT_EQ(io.writes, 6u);
  EXPECT_EQ(io.syncs, 1u);
  EXPECT_EQ(io.read_ops, 3u);
  EXPECT_EQ(io.pages_read, 6u);
  EXPECT_EQ(timed.SyncSamplesNs().size(), 1u);
  EXPECT_EQ(wrapped.stats().writes, plain.stats().writes);
}

// Counts which entry point the decorator reached.
class CountingEvaluator final : public crawl::RelevanceEvaluator {
 public:
  Result<crawl::PageJudgment> Judge(const text::TermVector& terms) override {
    ++judge_calls;
    crawl::PageJudgment j;
    j.relevance = static_cast<double>(terms.size()) / 10;
    return j;
  }
  Result<std::vector<crawl::PageJudgment>> JudgeBatch(
      const std::vector<text::TermVector>& docs) override {
    ++batch_calls;
    std::vector<crawl::PageJudgment> out(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) out[i].relevance = i + 0.5;
    return out;
  }
  int judge_calls = 0;
  int batch_calls = 0;
};

TEST(TimedEvaluatorTest, ForwardsBatchesAsBatches) {
  CountingEvaluator inner;
  TimedEvaluator timed(&inner);
  std::vector<text::TermVector> docs(3);
  auto batch = timed.JudgeBatch(docs);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 3u);
  EXPECT_EQ(batch.value()[2].relevance, 2.5);
  EXPECT_EQ(inner.batch_calls, 1);
  EXPECT_EQ(inner.judge_calls, 0);
  ASSERT_TRUE(timed.Judge(text::TermVector{}).ok());
  EXPECT_EQ(inner.judge_calls, 1);

  std::vector<JudgeCall> calls = timed.Calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].pages, 3u);
  EXPECT_EQ(calls[1].pages, 1u);
  for (const JudgeCall& c : calls) {
    EXPECT_LE(c.start_ns, c.end_ns);
    EXPECT_GE(c.cpu_ns, 0);
  }
}

struct CrawlImage {
  std::vector<crawl::Visit> visits;
  std::vector<std::string> crawl_rows;
  std::vector<std::string> link_rows;
};

// A 1-thread paper-configuration crawl on a small web, with or without
// the decorators (and the event log and trace spans traced runs add).
CrawlImage Crawl(World* world, const std::string& base, bool decorated) {
  Store::Options options;
  options.timed = decorated;
  auto store = Store::Open(base, options);
  EXPECT_TRUE(store.ok()) << store.status();
  obs::MetricsRegistry registry;
  obs::EventLog events;
  TimedEvaluator timed(world->evaluator.get());
  crawl::CrawlerOptions copts = PaperCrawlerOptions(1, 400, 150);
  copts.metrics_registry = &registry;
  if (decorated) {
    events.Enable(1 << 16);
    copts.event_log = &events;
    obs::TraceBuffer::Global().Enable();
  }
  crawl::Crawler crawler(
      &world->system->web(),
      decorated ? static_cast<crawl::RelevanceEvaluator*>(&timed)
                : world->evaluator.get(),
      &store.value()->db(), &store.value()->catalog(), copts);
  for (const std::string& url : world->seed_urls) {
    EXPECT_TRUE(crawler.AddSeed(url).ok());
  }
  EXPECT_TRUE(crawler.Crawl().ok());
  obs::TraceBuffer::Global().Disable();
  if (decorated) {
    EXPECT_EQ(timed.Calls().size(), crawler.visits().size());
    EXPECT_GT(store.value()->log_io()->Snapshot().syncs, 0u);
  }
  CrawlImage image;
  image.visits = crawler.visits();
  auto crawl_rows = DumpRows(*store.value()->db().crawl_table());
  auto link_rows = DumpRows(*store.value()->db().link_table());
  EXPECT_TRUE(crawl_rows.ok() && link_rows.ok());
  image.crawl_rows = crawl_rows.value();
  image.link_rows = link_rows.value();
  return image;
}

std::unique_ptr<World> SmallWorld() {
  WebScale scale;
  scale.pages_per_topic = 80;
  scale.background_pages = 1200;
  scale.background_servers = 80;
  scale.examples_per_topic = 10;
  auto world = BuildWorld(21, scale);
  EXPECT_TRUE(world.ok()) << world.status();
  return world.ok() ? world.TakeValue() : nullptr;
}

TEST(DecoratedCrawlTest, SameVisitsAndRowsAsUndecorated) {
  std::unique_ptr<World> world = SmallWorld();
  ASSERT_NE(world, nullptr);
  std::string dir = ::testing::TempDir() + "/perfbench_decorator_test";
  std::filesystem::create_directories(dir);

  CrawlImage plain = Crawl(world.get(), dir + "/plain", false);
  CrawlImage decorated = Crawl(world.get(), dir + "/decorated", true);
  std::filesystem::remove_all(dir);

  ASSERT_EQ(plain.visits.size(), 400u);
  ASSERT_EQ(decorated.visits.size(), plain.visits.size());
  for (size_t i = 0; i < plain.visits.size(); ++i) {
    EXPECT_EQ(decorated.visits[i].oid, plain.visits[i].oid) << "visit " << i;
    EXPECT_EQ(decorated.visits[i].relevance, plain.visits[i].relevance);
    EXPECT_EQ(decorated.visits[i].virtual_time_us,
              plain.visits[i].virtual_time_us);
  }
  EXPECT_FALSE(plain.link_rows.empty());
  EXPECT_EQ(decorated.crawl_rows, plain.crawl_rows);
  EXPECT_EQ(decorated.link_rows, plain.link_rows);
}

// Relevance by visited oid of a 4-thread crawl run to exhaustion: the
// visited set is then the link closure of the start pages, whatever the
// interleaving, so runs with and without the decorators must agree. Runs
// the decorators from concurrent workers (a race-detector target).
std::map<uint64_t, double> PipelineClosure(World* world,
                                           const std::string& base,
                                           bool decorated) {
  Store::Options options;
  options.timed = decorated;
  auto store = Store::Open(base, options);
  EXPECT_TRUE(store.ok()) << store.status();
  obs::MetricsRegistry registry;
  TimedEvaluator timed(world->evaluator.get());
  crawl::CrawlerOptions copts = PaperCrawlerOptions(4, 100000, 0);
  copts.metrics_registry = &registry;
  crawl::Crawler crawler(
      &world->system->web(),
      decorated ? static_cast<crawl::RelevanceEvaluator*>(&timed)
                : world->evaluator.get(),
      &store.value()->db(), &store.value()->catalog(), copts);
  for (const std::string& url : world->seed_urls) {
    EXPECT_TRUE(crawler.AddSeed(url).ok());
  }
  EXPECT_TRUE(crawler.Crawl().ok());
  EXPECT_TRUE(crawler.stats().stagnated);
  std::map<uint64_t, double> relevance;
  for (const crawl::Visit& v : crawler.visits()) relevance[v.oid] = v.relevance;
  EXPECT_EQ(relevance.size(), crawler.visits().size()) << "double visit";
  if (decorated) {
    size_t pages = 0;
    for (const JudgeCall& c : timed.Calls()) pages += c.pages;
    EXPECT_EQ(pages, crawler.visits().size());
  }
  return relevance;
}

TEST(DecoratedCrawlTest, PipelineVisitsSameClosure) {
  std::unique_ptr<World> world = SmallWorld();
  ASSERT_NE(world, nullptr);
  std::string dir = ::testing::TempDir() + "/perfbench_pipeline_test";
  std::filesystem::create_directories(dir);
  auto plain = PipelineClosure(world.get(), dir + "/plain", false);
  auto decorated = PipelineClosure(world.get(), dir + "/decorated", true);
  std::filesystem::remove_all(dir);
  EXPECT_GT(plain.size(), 400u);
  ASSERT_EQ(decorated.size(), plain.size());
  for (const auto& [oid, relevance] : plain) {
    auto it = decorated.find(oid);
    ASSERT_NE(it, decorated.end()) << "oid " << oid;
    // Batch composition varies run to run; BulkProbe and the in-memory
    // path (single-page batches) agree to 1e-9.
    EXPECT_NEAR(it->second, relevance, 1e-9) << "oid " << oid;
  }
}

}  // namespace
}  // namespace focus::perfbench
