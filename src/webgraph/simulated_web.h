// The simulated distributed hypertext graph G (§1.1) and its fetch API.
//
// Structure (topics, servers, links) is generated eagerly and
// deterministically from the seed; page *text* is generated lazily on fetch
// from a per-page RNG, so unvisited pages cost nothing — mirroring the
// non-trivial cost of visiting a vertex that motivates focused crawling.
#ifndef FOCUS_WEBGRAPH_SIMULATED_WEB_H_
#define FOCUS_WEBGRAPH_SIMULATED_WEB_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "taxonomy/taxonomy.h"
#include "text/document.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"
#include "webgraph/web_config.h"

namespace focus::webgraph {

struct PageInfo {
  std::string url;
  int32_t server_id = 0;
  taxonomy::Cid topic = kBackgroundTopic;  // ground-truth leaf topic
  bool is_hub = false;
  std::vector<uint32_t> outlinks;  // page indices
};

class SimulatedWeb {
 public:
  struct FetchResult {
    std::string url;
    int32_t server_id = 0;
    std::vector<std::string> tokens;        // page text
    std::vector<std::string> outlink_urls;  // scanned hyperlinks
    // The transfer was cut short: tokens/outlinks are a prefix of the real
    // page plus a malformed tail fragment.
    bool truncated = false;
  };

  // Generates a web for the leaf topics of `tax`.
  static Result<SimulatedWeb> Generate(const taxonomy::Taxonomy& tax,
                                       const WebConfig& config,
                                       std::vector<TopicAffinity> affinities);

  // --- the crawler-facing API ---

  // Fetches a page, charging latency to `clock` when provided. Failures
  // follow the config's fault model, deterministic per (page, attempt):
  //   kUnavailable       transient 5xx (fetch_failure_prob; elevated on
  //                      flaky servers)
  //   kNotFound          unknown URL, or a permanent 404-style loss
  //   kDeadlineExceeded  timeout after faults.timeout_ms (always, on dead
  //                      servers)
  //   kResourceExhausted scheduled server outage on the virtual clock;
  //                      consumes no attempt ordinal and no RNG draw, so
  //                      when a retry lands never changes its outcome
  // Truncated transfers succeed with FetchResult::truncated set.
  //
  // `attempt` <= 0 numbers attempts with an internal per-page counter.
  // A positive `attempt` supplies the ordinal explicitly and leaves the
  // internal counter untouched: a crawler that persists its retry count
  // (CRAWL.numtries) can key outcomes off durable state, so refetching a
  // page whose attempt bookkeeping a crash destroyed replays the exact
  // outcome of the lost attempt instead of drawing a fresh one.
  //
  // Reentrant: concurrent fetches (and Backlinks calls) need no outside
  // lock, and each outcome depends only on (seed, url, attempt).
  Result<FetchResult> Fetch(std::string_view url,
                            VirtualClock* clock = nullptr,
                            int32_t attempt = 0) const;

  // Server behaviours, deterministic in (seed, server_id).
  bool ServerIsFlaky(int32_t server_id) const;
  bool ServerIsSlow(int32_t server_id) const;
  bool ServerIsDead(int32_t server_id) const;
  // True when `server_id` has a scheduled outage covering virtual time
  // `now_s`.
  bool InOutage(int32_t server_id, double now_s) const;

  // Pages that link to `url` (up to `max_results`, deterministic order) —
  // the backlink metadata service of §3.2's backward-crawling device
  // (citing "Surfing the web backwards"). Citers come in ascending page
  // order, from the reverse adjacency Generate builds.
  Result<std::vector<std::string>> Backlinks(std::string_view url,
                                             int max_results) const;

  // A keyword-search seeder: ranks pages of `topic` by occurrences of the
  // topic's characteristic keywords in their text and returns
  // [first, first+count) of that ranking — disjoint slices give the
  // disjoint start sets S1, S2 of the coverage experiment (§3.5).
  std::vector<std::string> KeywordSeeds(taxonomy::Cid topic, int count,
                                        int first = 0) const;

  // --- ground truth (evaluation only; the crawler never calls these) ---

  size_t num_pages() const { return pages_.size(); }
  const PageInfo& page(uint32_t index) const { return pages_[index]; }
  Result<uint32_t> PageIndexByUrl(std::string_view url) const;
  std::vector<uint32_t> PagesOfTopic(taxonomy::Cid topic) const;

  // BFS shortest link distance (in the full graph) from `sources` to every
  // page; unreachable pages get -1.
  std::vector<int> ShortestDistances(
      const std::vector<uint32_t>& sources) const;

  // Samples a held-out document with topic `leaf`'s language model (used
  // as classifier training examples D(c); never a crawlable page).
  text::TermVector SampleDocumentForTopic(taxonomy::Cid leaf, Rng* rng) const;

  // Tokens most characteristic of `leaf` (its top vocabulary), e.g. for
  // building keyword queries.
  std::vector<std::string> TopicKeywords(taxonomy::Cid leaf,
                                         int count = 3) const;

  uint64_t fetch_count() const {
    return fetch_state_->fetch_count.load(std::memory_order_relaxed);
  }

 private:
  SimulatedWeb(const taxonomy::Taxonomy* tax, WebConfig config)
      : tax_(tax), config_(config) {}

  // Deterministic token stream for page `index`.
  std::vector<std::string> GenerateText(uint32_t index) const;
  std::vector<std::string> GenerateTopicText(taxonomy::Cid leaf,
                                             Rng* rng) const;
  std::string TopicToken(taxonomy::Cid owner, size_t rank) const;

  const taxonomy::Taxonomy* tax_;
  WebConfig config_;
  std::vector<PageInfo> pages_;
  std::unordered_map<std::string, uint32_t> url_index_;
  std::unordered_map<taxonomy::Cid, std::vector<uint32_t>> topic_pages_;
  std::vector<ZipfTable> zipfs_;  // [0]=topic vocab, [1]=parent, [2]=shared
  // Fetch bookkeeping, behind a pointer so the web stays movable (Generate
  // returns it by value). The per-page attempt counter is used only when a
  // caller passes no attempt ordinal, under its own lock.
  struct FetchState {
    std::atomic<uint64_t> fetch_count{0};
    std::mutex attempts_mutex;
    std::unordered_map<uint32_t, int> attempt_counts;  // per-page tries
  };
  std::unique_ptr<FetchState> fetch_state_ = std::make_unique<FetchState>();
  // Reverse adjacency for Backlinks() in CSR form: the citers of page i are
  // inlinks_[inlink_begin_[i] .. inlink_begin_[i + 1]).
  std::vector<uint32_t> inlink_begin_;
  std::vector<uint32_t> inlinks_;
};

}  // namespace focus::webgraph

#endif  // FOCUS_WEBGRAPH_SIMULATED_WEB_H_
