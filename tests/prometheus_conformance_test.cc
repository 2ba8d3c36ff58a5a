// Prometheus text-exposition conformance for the metrics registry.
//
// A scraper is the consumer here, not a human, so shape bugs (missing HELP,
// non-cumulative buckets, unescaped label values, counters without the
// _total suffix) silently corrupt dashboards. This test renders a registry
// populated with the crawl layer's real metric families (StageMetrics) plus
// adversarial label/help strings, then re-parses the page line by line and
// checks the format invariants the exposition spec requires. A second
// suite checks that the metric catalog in OBSERVABILITY.md names exactly
// the families a WAL-backed crawl registers.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "crawl/metrics.h"
#include "crawl/relevance_evaluator.h"
#include "obs/metrics.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "taxonomy/taxonomy.h"
#include "webgraph/simulated_web.h"

namespace focus::obs {
namespace {

struct Family {
  std::string type;  // "counter" | "gauge" | "histogram"
  bool has_help = false;
  bool help_before_type = false;
};

struct Sample {
  std::string name;   // family or series name as written (with suffix)
  std::string labels; // raw text inside {...}, "" when absent
  double value = 0;
};

// Minimal exposition parser: records families from # HELP / # TYPE lines
// and splits samples into name / label-block / value. Fails the test on
// any line that fits neither shape.
class Exposition {
 public:
  explicit Exposition(const std::string& text) { Parse(text); }

 private:
  // ASSERT macros need a void function, so parsing lives outside the ctor.
  void Parse(const std::string& text) {
    std::string last_help;
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      ASSERT_NE(end, std::string::npos) << "page must end with a newline";
      std::string line = text.substr(start, end - start);
      start = end + 1;
      if (line.rfind("# HELP ", 0) == 0) {
        last_help = Word(line.substr(7));
        families_[last_help].has_help = true;
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string rest = line.substr(7);
        std::string name = Word(rest);
        Family& fam = families_[name];
        fam.type = rest.substr(name.size() + 1);
        fam.help_before_type = (last_help == name) && fam.has_help;
        continue;
      }
      ASSERT_NE(line.rfind("#", 0), 0) << "unknown comment line: " << line;
      ParseSample(line);
    }
  }

 public:
  const std::map<std::string, Family>& families() const { return families_; }
  const std::vector<Sample>& samples() const { return samples_; }

  std::vector<Sample> SeriesNamed(const std::string& name) const {
    std::vector<Sample> out;
    for (const Sample& s : samples_) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  }

 private:
  static std::string Word(const std::string& s) {
    return s.substr(0, s.find(' '));
  }

  void ParseSample(const std::string& line) {
    Sample s;
    size_t brace = line.find('{');
    size_t name_end = std::min(brace, line.find(' '));
    ASSERT_NE(name_end, std::string::npos) << "malformed sample: " << line;
    s.name = line.substr(0, name_end);
    size_t value_start;
    if (brace != std::string::npos && brace == name_end) {
      // The label block ends at the last '}' — label VALUES may contain
      // escaped quotes but never a raw unescaped '}' followed by space+num
      // in this format, and the writer always emits value after "} ".
      size_t close = line.rfind('}');
      ASSERT_NE(close, std::string::npos) << "unterminated labels: " << line;
      s.labels = line.substr(brace + 1, close - brace - 1);
      value_start = close + 2;
    } else {
      value_start = name_end + 1;
    }
    ASSERT_LT(value_start, line.size()) << "missing value: " << line;
    char* parse_end = nullptr;
    std::string value_text = line.substr(value_start);
    s.value = std::strtod(value_text.c_str(), &parse_end);
    ASSERT_EQ(*parse_end, '\0') << "non-numeric value in: " << line;
    samples_.push_back(std::move(s));
  }

  std::map<std::string, Family> families_;
  std::vector<Sample> samples_;
};

// The family a series belongs to: strips the histogram series suffixes.
std::string FamilyOf(const std::string& series,
                     const std::map<std::string, Family>& families) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    size_t len = std::strlen(suffix);
    if (series.size() > len &&
        series.compare(series.size() - len, len, suffix) == 0) {
      std::string base = series.substr(0, series.size() - len);
      auto it = families.find(base);
      if (it != families.end() && it->second.type == "histogram") return base;
    }
  }
  return series;
}

class ConformanceTest : public ::testing::Test {
 protected:
  ConformanceTest() : stage_(&registry_) {
    // Real crawl-layer traffic so every family carries samples.
    stage_.AddFetchMicros(1200);
    stage_.RecordBatch(8);
    stage_.ObserveClassifyBatchMicros(0);       // zero bucket
    stage_.ObserveClassifyBatchMicros(3);       // low bucket
    stage_.ObserveClassifyBatchMicros(900000);  // high bucket
    stage_.RecordPop();
    stage_.RecordFetchFailure(crawl::FailureClass::kTimeout);
    stage_.RecordRetry(crawl::FailureClass::kTimeout, 4.5);
    stage_.RecordDrop(true);
    stage_.RecordVisitRelevance(0.75);
    stage_.SetFrontierDepth(17);

    // Adversarial label value and help text exercising every escape the
    // format defines (backslash, double-quote, newline).
    registry_
        .GetCounter("conformance_nasty_total",
                    {{"path", "a\\b\"c\nd"}})
        ->Add(2);
    registry_.SetHelp("conformance_nasty_total", "line one\nline\\two");
  }

  MetricsRegistry registry_;
  crawl::StageMetrics stage_;
};

TEST_F(ConformanceTest, EveryTypeLineIsPrecededByItsHelpLine) {
  Exposition page(registry_.ToPrometheusText());
  ASSERT_FALSE(page.families().empty());
  for (const auto& [name, fam] : page.families()) {
    EXPECT_FALSE(fam.type.empty()) << name << " has HELP but no TYPE";
    EXPECT_TRUE(fam.has_help) << name << " is missing its # HELP line";
    EXPECT_TRUE(fam.help_before_type)
        << name << ": # HELP must immediately precede # TYPE";
  }
}

TEST_F(ConformanceTest, EverySampleBelongsToADeclaredFamily) {
  Exposition page(registry_.ToPrometheusText());
  ASSERT_FALSE(page.samples().empty());
  for (const Sample& s : page.samples()) {
    std::string family = FamilyOf(s.name, page.families());
    auto it = page.families().find(family);
    ASSERT_NE(it, page.families().end())
        << s.name << " has no # TYPE declaration";
    if (s.name != family) {
      EXPECT_EQ(it->second.type, "histogram");
    }
  }
}

TEST_F(ConformanceTest, CounterFamiliesEndWithTotal) {
  Exposition page(registry_.ToPrometheusText());
  int counters = 0;
  for (const auto& [name, fam] : page.families()) {
    if (fam.type != "counter") continue;
    ++counters;
    ASSERT_GE(name.size(), 6u);
    EXPECT_EQ(name.substr(name.size() - 6), "_total")
        << "counter family " << name << " must end in _total";
  }
  EXPECT_GT(counters, 5);  // the StageMetrics families are all present
}

TEST_F(ConformanceTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  Exposition page(registry_.ToPrometheusText());
  int histograms = 0;
  for (const auto& [name, fam] : page.families()) {
    if (fam.type != "histogram") continue;
    ++histograms;
    std::vector<Sample> buckets = page.SeriesNamed(name + "_bucket");
    std::vector<Sample> counts = page.SeriesNamed(name + "_count");
    std::vector<Sample> sums = page.SeriesNamed(name + "_sum");
    ASSERT_EQ(counts.size(), 1u) << name;
    ASSERT_EQ(sums.size(), 1u) << name;
    ASSERT_FALSE(buckets.empty()) << name;

    double prev = -1;
    double prev_le = -1;
    bool saw_inf = false;
    for (const Sample& b : buckets) {
      EXPECT_FALSE(saw_inf) << name << ": +Inf must be the last bucket";
      EXPECT_GE(b.value, prev) << name << ": buckets must be cumulative";
      prev = b.value;
      size_t le_pos = b.labels.find("le=\"");
      ASSERT_NE(le_pos, std::string::npos) << name << ": bucket without le";
      std::string le =
          b.labels.substr(le_pos + 4,
                          b.labels.find('"', le_pos + 4) - le_pos - 4);
      if (le == "+Inf") {
        saw_inf = true;
        EXPECT_EQ(b.value, counts[0].value)
            << name << ": +Inf bucket must equal _count";
      } else {
        double bound = std::strtod(le.c_str(), nullptr);
        EXPECT_GT(bound, prev_le) << name << ": le bounds must increase";
        prev_le = bound;
      }
    }
    EXPECT_TRUE(saw_inf) << name << " is missing its +Inf bucket";
    EXPECT_GE(sums[0].value, 0) << name;
  }
  // batch_pages, batch_micros and backoff_delay_ms at minimum.
  EXPECT_GE(histograms, 3);
}

TEST_F(ConformanceTest, LabelValuesAndHelpTextAreEscaped) {
  std::string page = registry_.ToPrometheusText();
  // The raw backslash, quote and newline must appear escaped in the
  // sample line...
  EXPECT_NE(page.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
  // ...and the help newline (plus the literal backslash) likewise.
  EXPECT_NE(page.find("# HELP conformance_nasty_total line one\\nline\\\\two"),
            std::string::npos);
  // No physical line may start inside a label block: every line is either
  // a comment or starts with a metric-name character.
  size_t start = 0;
  while (start < page.size()) {
    size_t end = page.find('\n', start);
    if (end == std::string::npos) end = page.size();
    std::string line = page.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    char c = line[0];
    EXPECT_TRUE(c == '#' || std::isalpha(static_cast<unsigned char>(c)) ||
                c == '_')
        << "line starts mid-record (unescaped newline?): " << line;
  }
}

TEST_F(ConformanceTest, EscapeHelpersMatchTheSpecExactly) {
  EXPECT_EQ(PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\nb"), "a\\nb");
  // Unlike JSON: control chars and UTF-8 pass through verbatim.
  EXPECT_EQ(PrometheusEscapeLabelValue("tab\there"), "tab\there");
  EXPECT_EQ(PrometheusEscapeLabelValue("caf\xc3\xa9"), "caf\xc3\xa9");
  // HELP escaping touches backslash and newline only.
  EXPECT_EQ(PrometheusEscapeHelp("a\"b"), "a\"b");
  EXPECT_EQ(PrometheusEscapeHelp("a\nb\\c"), "a\\nb\\\\c");
}

// ---- metric catalog drift ----

// The layers whose every family OBSERVABILITY.md catalogs; a crawl
// registers all of them.
const char* const kCatalogedPrefixes[] = {"focus_crawl_", "focus_distill_",
                                          "focus_wal_", "focus_bufferpool_",
                                          "focus_disk_"};

bool Cataloged(const std::string& name) {
  for (const char* prefix : kCatalogedPrefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// Metric names of the catalog's table rows: the first backticked cell of
// every row that starts with "| `focus_".
std::set<std::string> CatalogRows() {
  std::ifstream in(std::string(FOCUS_SOURCE_DIR) + "/OBSERVABILITY.md");
  EXPECT_TRUE(in.good()) << "cannot read OBSERVABILITY.md";
  std::set<std::string> names;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| `focus_", 0) != 0) continue;
    size_t end = line.find('`', 3);
    std::string name = line.substr(3, end - 3);
    if (Cataloged(name)) names.insert(name);
  }
  return names;
}

// Every family a registry renders, from its "# TYPE" lines.
std::set<std::string> RegisteredFamilies(const MetricsRegistry& registry) {
  std::istringstream text(registry.ToPrometheusText());
  std::set<std::string> names;
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    std::string name = line.substr(7, line.find(' ', 7) - 7);
    if (Cataloged(name)) names.insert(name);
  }
  return names;
}

class AllRelevantEvaluator final : public crawl::RelevanceEvaluator {
 public:
  Result<crawl::PageJudgment> Judge(const text::TermVector&) override {
    crawl::PageJudgment j;
    j.relevance = 1.0;
    j.best_leaf_is_good = true;
    return j;
  }
};

TEST(MetricCatalogTest, CrawlRegistersExactlyTheCatalogRows) {
  // A WAL-backed 4-thread crawl with distillation boosts, its pool and
  // WAL collectors bound to a private registry.
  taxonomy::Taxonomy tax;
  taxonomy::Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  ASSERT_TRUE(tax.AddTopic(rec, "cycling").ok());
  webgraph::WebConfig config;
  config.seed = 5;
  config.pages_per_topic = 150;
  config.background_pages = 400;
  auto web = webgraph::SimulatedWeb::Generate(tax, config, {});
  ASSERT_TRUE(web.ok()) << web.status();

  MetricsRegistry registry;
  storage::MemDiskManager data, log;
  auto wal = storage::WalDiskManager::Open(&data, &log).TakeValue();
  wal->BindMetrics(&registry, "crawl");
  storage::BufferPool pool(wal.get(), 512);
  pool.BindMetrics(&registry, "crawl");
  sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Open(&catalog, wal.get()).TakeValue();
  AllRelevantEvaluator evaluator;
  crawl::CrawlerOptions options;
  options.max_fetches = 200;
  options.num_threads = 4;
  options.classify_batch_size = 8;
  options.distill_every = 50;
  options.metrics_registry = &registry;
  crawl::Crawler crawler(&web.value(), &evaluator, &db, &catalog, options);
  ASSERT_TRUE(crawler.AddSeed(web.value().page(0).url).ok());
  ASSERT_TRUE(crawler.Crawl().ok());
  ASSERT_EQ(crawler.visits().size(), 200u);

  std::set<std::string> registered = RegisteredFamilies(registry);
  std::set<std::string> cataloged = CatalogRows();
  for (const std::string& name : registered) {
    EXPECT_TRUE(cataloged.count(name)) << name << " has no catalog row";
  }
  for (const std::string& name : cataloged) {
    EXPECT_TRUE(registered.count(name))
        << name << " is cataloged but the crawl never registers it";
  }
  // Not vacuous: every cataloged layer is present.
  for (const char* prefix : kCatalogedPrefixes) {
    EXPECT_TRUE(std::any_of(registered.begin(), registered.end(),
                            [&](const std::string& name) {
                              return name.rfind(prefix, 0) == 0;
                            }))
        << prefix;
  }
}

}  // namespace
}  // namespace focus::obs
