#include "webgraph/simulated_web.h"

#include <algorithm>
#include <deque>

#include "util/hash.h"
#include "util/string_util.h"

namespace focus::webgraph {

namespace {
constexpr int kMinDocLen = 30;

// Deterministic per-(seed, server) uniform in [0,1): selects flaky / slow /
// dead servers without consuming any per-attempt RNG draw.
double ServerHash01(uint64_t seed, int32_t server_id, uint64_t salt) {
  uint64_t h = Mix64(
      seed ^ Mix64(salt ^ (static_cast<uint64_t>(
                               static_cast<uint32_t>(server_id)) +
                           1)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr uint64_t kFlakySalt = 0x464c414b59ULL;
constexpr uint64_t kSlowSalt = 0x534c4f57ULL;
constexpr uint64_t kDeadSalt = 0x44454144ULL;
}  // namespace

Result<SimulatedWeb> SimulatedWeb::Generate(
    const taxonomy::Taxonomy& tax, const WebConfig& config,
    std::vector<TopicAffinity> affinities) {
  if (config.pages_per_topic < 2 || config.background_pages < 1) {
    return Status::InvalidArgument("web too small to generate");
  }
  SimulatedWeb web(&tax, config);
  web.zipfs_.emplace_back(config.topic_vocab, config.zipf_exponent);
  web.zipfs_.emplace_back(config.parent_vocab, config.zipf_exponent);
  web.zipfs_.emplace_back(config.shared_vocab, config.zipf_exponent);

  std::vector<taxonomy::Cid> leaves = tax.LeavesUnder(taxonomy::kRootCid);
  Rng rng(config.seed);

  // --- pages and servers ---
  int32_t next_server = 0;
  for (taxonomy::Cid leaf : leaves) {
    int32_t server_base = next_server;
    next_server += config.servers_per_topic;
    auto& members = web.topic_pages_[leaf];
    for (int i = 0; i < config.pages_per_topic; ++i) {
      PageInfo page;
      page.topic = leaf;
      page.server_id = server_base + (i % config.servers_per_topic);
      page.url = StrCat("http://s", page.server_id, ".", tax.Name(leaf),
                        ".example/p", i);
      page.is_hub = rng.Bernoulli(config.hub_fraction);
      members.push_back(static_cast<uint32_t>(web.pages_.size()));
      web.pages_.push_back(std::move(page));
    }
  }
  uint32_t background_start = static_cast<uint32_t>(web.pages_.size());
  int32_t background_server_base = next_server;
  for (int i = 0; i < config.background_pages; ++i) {
    PageInfo page;
    page.topic = kBackgroundTopic;
    page.server_id = background_server_base + (i % config.background_servers);
    page.url = StrCat("http://b", page.server_id, ".web.example/p", i);
    web.pages_.push_back(std::move(page));
  }
  // Per-server index pages at the host root ("http://host/"), reachable
  // via the §3.2 URL-truncation device. They list a sample of the
  // server's pages.
  if (config.generate_server_index_pages) {
    std::unordered_map<int32_t, std::vector<uint32_t>> by_server;
    for (uint32_t i = 0; i < web.pages_.size(); ++i) {
      by_server[web.pages_[i].server_id].push_back(i);
    }
    for (auto& [server_id, members] : by_server) {
      const PageInfo& sample = web.pages_[members.front()];
      size_t path = sample.url.find('/', 7);  // after "http://"
      PageInfo index_page;
      index_page.url = sample.url.substr(0, path + 1);
      index_page.server_id = server_id;
      index_page.topic = sample.topic;
      index_page.is_hub = true;  // a resource list by construction
      int take = std::min<int>(config.index_page_links,
                               static_cast<int>(members.size()));
      for (int i = 0; i < take; ++i) {
        index_page.outlinks.push_back(
            members[rng.Uniform(members.size())]);
      }
      web.pages_.push_back(std::move(index_page));
    }
  }
  for (uint32_t i = 0; i < web.pages_.size(); ++i) {
    web.url_index_.emplace(web.pages_[i].url, i);
  }

  // --- links ---
  // Affinities by source topic.
  std::unordered_map<taxonomy::Cid, std::vector<TopicAffinity>> affinity_of;
  for (const auto& a : affinities) affinity_of[a.from].push_back(a);

  // A background link target; a share of them concentrate on a few
  // universally popular portals (the §2.2.2 leakage hazard).
  auto pick_background = [&]() -> uint32_t {
    int popular = std::min(config.popular_background_pages,
                           config.background_pages);
    if (popular > 0 && rng.Bernoulli(config.popular_background_share)) {
      return background_start + static_cast<uint32_t>(rng.Uniform(popular));
    }
    return background_start +
           static_cast<uint32_t>(rng.Uniform(config.background_pages));
  };

  auto pick_same_topic = [&](taxonomy::Cid leaf, int local_index,
                             int window) -> uint32_t {
    const auto& members = web.topic_pages_.at(leaf);
    int n = static_cast<int>(members.size());
    int target;
    if (rng.Bernoulli(config.p_long_range)) {
      target = static_cast<int>(rng.Uniform(n));
    } else {
      int lo = std::max(0, local_index - window);
      int hi = std::min(n - 1, local_index + window);
      target = lo + static_cast<int>(rng.Uniform(hi - lo + 1));
    }
    if (rng.Bernoulli(config.authority_bias)) {
      // Snap to the nearest designated authority index.
      target = (target / config.authority_every) * config.authority_every;
    }
    if (target == local_index) target = (target + 1) % n;
    return members[static_cast<uint32_t>(target)];
  };

  std::vector<taxonomy::Cid> sibling_buf;
  for (taxonomy::Cid leaf : leaves) {
    const auto& members = web.topic_pages_.at(leaf);
    // Sibling leaf topics (same parent), the generic "related" targets.
    sibling_buf.clear();
    for (taxonomy::Cid s : tax.Children(tax.Parent(leaf))) {
      if (s != leaf && tax.IsLeaf(s)) sibling_buf.push_back(s);
    }
    const auto* affs = affinity_of.contains(leaf) ? &affinity_of.at(leaf)
                                                  : nullptr;
    for (int li = 0; li < static_cast<int>(members.size()); ++li) {
      PageInfo& page = web.pages_[members[li]];
      int outdeg =
          page.is_hub
              ? config.hub_outdegree
              : static_cast<int>(rng.UniformInt(config.outdegree_min,
                                                config.outdegree_max));
      double p_same = page.is_hub ? config.hub_same_topic
                                  : config.p_same_topic;
      int window = page.is_hub ? config.hub_locality_window
                               : config.locality_window;
      for (int l = 0; l < outdeg; ++l) {
        double u = rng.NextDouble();
        if (u < p_same) {
          page.outlinks.push_back(pick_same_topic(leaf, li, window));
          continue;
        }
        u -= p_same;
        bool linked = false;
        if (affs != nullptr) {
          for (const auto& a : *affs) {
            if (u < a.weight) {
              const auto& targets = web.topic_pages_.at(a.to);
              page.outlinks.push_back(
                  targets[rng.Uniform(targets.size())]);
              linked = true;
              break;
            }
            u -= a.weight;
          }
        }
        if (linked) continue;
        if (u < config.p_related_topic && !sibling_buf.empty()) {
          taxonomy::Cid sib = sibling_buf[rng.Uniform(sibling_buf.size())];
          const auto& targets = web.topic_pages_.at(sib);
          page.outlinks.push_back(targets[rng.Uniform(targets.size())]);
          continue;
        }
        page.outlinks.push_back(pick_background());
      }
    }
  }
  // Background pages link almost exclusively among themselves.
  for (uint32_t i = background_start; i < web.pages_.size(); ++i) {
    PageInfo& page = web.pages_[i];
    int outdeg = static_cast<int>(
        rng.UniformInt(config.outdegree_min, config.outdegree_max));
    for (int l = 0; l < outdeg; ++l) {
      if (rng.Bernoulli(config.background_to_topic)) {
        taxonomy::Cid leaf = leaves[rng.Uniform(leaves.size())];
        const auto& targets = web.topic_pages_.at(leaf);
        page.outlinks.push_back(targets[rng.Uniform(targets.size())]);
      } else {
        page.outlinks.push_back(pick_background());
      }
    }
  }
  // Reverse adjacency, built once here so Backlinks() stays read-only.
  web.inlink_begin_.assign(web.pages_.size() + 1, 0);
  for (const PageInfo& page : web.pages_) {
    for (uint32_t t : page.outlinks) ++web.inlink_begin_[t + 1];
  }
  for (size_t i = 0; i < web.pages_.size(); ++i) {
    web.inlink_begin_[i + 1] += web.inlink_begin_[i];
  }
  web.inlinks_.resize(web.inlink_begin_.back());
  std::vector<uint32_t> fill(web.inlink_begin_.begin(),
                             web.inlink_begin_.end() - 1);
  for (uint32_t i = 0; i < web.pages_.size(); ++i) {
    for (uint32_t t : web.pages_[i].outlinks) web.inlinks_[fill[t]++] = i;
  }
  return web;
}

std::string SimulatedWeb::TopicToken(taxonomy::Cid owner, size_t rank) const {
  return StrCat("w", owner, "_", rank);
}

std::vector<std::string> SimulatedWeb::GenerateTopicText(taxonomy::Cid leaf,
                                                         Rng* rng) const {
  int len = std::max<int>(
      kMinDocLen, static_cast<int>(rng->Gaussian(config_.doc_len_mean,
                                                 config_.doc_len_stddev)));
  taxonomy::Cid parent = tax_->Parent(leaf);
  // Pages differ in topical purity; relevance judgments then vary
  // continuously instead of saturating.
  double topic_fraction = std::clamp(
      rng->Gaussian(config_.topic_token_fraction,
                    config_.topic_fraction_jitter),
      0.15, 0.85);
  std::vector<std::string> tokens;
  tokens.reserve(len);
  for (int i = 0; i < len; ++i) {
    double u = rng->NextDouble();
    if (u < topic_fraction) {
      tokens.push_back(TopicToken(leaf, zipfs_[0].Sample(rng)));
    } else if (u < config_.topic_token_fraction +
                       config_.parent_token_fraction) {
      tokens.push_back(
          StrCat("p", parent, "_", zipfs_[1].Sample(rng)));
    } else {
      tokens.push_back(StrCat("bg_", zipfs_[2].Sample(rng)));
    }
  }
  return tokens;
}

std::vector<std::string> SimulatedWeb::GenerateText(uint32_t index) const {
  Rng rng(Mix64(config_.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
  const PageInfo& page = pages_[index];
  if (page.topic == kBackgroundTopic) {
    int len = std::max<int>(
        kMinDocLen, static_cast<int>(rng.Gaussian(config_.doc_len_mean,
                                                  config_.doc_len_stddev)));
    std::vector<std::string> tokens;
    tokens.reserve(len);
    for (int i = 0; i < len; ++i) {
      tokens.push_back(StrCat("bg_", zipfs_[2].Sample(&rng)));
    }
    return tokens;
  }
  return GenerateTopicText(page.topic, &rng);
}

bool SimulatedWeb::ServerIsFlaky(int32_t server_id) const {
  return ServerHash01(config_.seed, server_id, kFlakySalt) <
         config_.faults.flaky_server_fraction;
}

bool SimulatedWeb::ServerIsSlow(int32_t server_id) const {
  return ServerHash01(config_.seed, server_id, kSlowSalt) <
         config_.faults.slow_server_fraction;
}

bool SimulatedWeb::ServerIsDead(int32_t server_id) const {
  return ServerHash01(config_.seed, server_id, kDeadSalt) <
         config_.faults.dead_server_fraction;
}

bool SimulatedWeb::InOutage(int32_t server_id, double now_s) const {
  for (const ServerOutage& o : config_.faults.outages) {
    if (o.server_id == server_id && now_s >= o.start_s && now_s < o.end_s) {
      return true;
    }
  }
  return false;
}

Result<SimulatedWeb::FetchResult> SimulatedWeb::Fetch(std::string_view url,
                                                      VirtualClock* clock,
                                                      int32_t attempt) const {
  auto it = url_index_.find(std::string(url));
  if (it == url_index_.end()) {
    return Status::NotFound(StrCat("no such url: ", url));
  }
  uint32_t index = it->second;
  const FetchSimulation& faults = config_.faults;
  const PageInfo& page = pages_[index];
  // A server in a scheduled outage window refuses before the request
  // counts: no attempt ordinal is consumed and no RNG draw happens, so the
  // outcome of each *real* attempt is independent of when outages delay it.
  if (clock != nullptr && InOutage(page.server_id, clock->NowSeconds())) {
    clock->AdvanceSeconds(faults.timeout_ms * 1e-3);
    return Status::ResourceExhausted(StrCat("server outage: ", url));
  }
  if (attempt <= 0) {
    std::lock_guard<std::mutex> lock(fetch_state_->attempts_mutex);
    attempt = ++fetch_state_->attempt_counts[index];
  }
  if (ServerIsDead(page.server_id)) {
    if (clock != nullptr) clock->AdvanceSeconds(faults.timeout_ms * 1e-3);
    return Status::DeadlineExceeded(
        StrCat("fetch timed out (dead server): ", url));
  }
  Rng rng(Mix64(config_.seed ^ (index * 31ULL + attempt)));
  double latency_ms = 0;
  if (clock != nullptr) {
    latency_ms = config_.fetch_latency_mean_ms * (0.5 + rng.NextDouble());
    if (ServerIsSlow(page.server_id)) {
      latency_ms *= faults.slow_latency_multiplier;
    }
  }
  // One uniform draw classifies the attempt. The legacy transient band
  // [0, fetch_failure_prob) comes first so configs that never touch
  // `faults` reproduce the exact historical RNG stream and outcomes.
  double u = rng.NextDouble();
  double transient = config_.fetch_failure_prob;
  if (ServerIsFlaky(page.server_id)) {
    transient = std::max(transient, faults.flaky_failure_prob);
  }
  if (u < transient) {
    if (clock != nullptr) clock->AdvanceSeconds(latency_ms * 1e-3);
    return Status::Unavailable(StrCat("fetch failed: ", url));
  }
  u -= transient;
  if (u < faults.permanent_prob) {
    if (clock != nullptr) clock->AdvanceSeconds(latency_ms * 1e-3);
    return Status::NotFound(StrCat("gone: ", url));
  }
  u -= faults.permanent_prob;
  if (u < faults.timeout_prob) {
    if (clock != nullptr) clock->AdvanceSeconds(faults.timeout_ms * 1e-3);
    return Status::DeadlineExceeded(StrCat("fetch timed out: ", url));
  }
  u -= faults.timeout_prob;
  bool truncated = u < faults.truncate_prob;
  if (clock != nullptr) clock->AdvanceSeconds(latency_ms * 1e-3);
  fetch_state_->fetch_count.fetch_add(1, std::memory_order_relaxed);
  FetchResult result;
  result.url = page.url;
  result.server_id = page.server_id;
  result.tokens = GenerateText(index);
  result.outlink_urls.reserve(page.outlinks.size());
  for (uint32_t t : page.outlinks) {
    result.outlink_urls.push_back(pages_[t].url);
  }
  if (truncated) {
    // The transfer dies partway: keep a deterministic prefix of the body
    // and the links scanned so far, and leave malformed tail fragments the
    // tokenizer/classifier must shrug off.
    result.truncated = true;
    double keep = 0.15 + 0.55 * rng.NextDouble();
    result.tokens.resize(std::max<size_t>(
        1, static_cast<size_t>(result.tokens.size() * keep)));
    result.outlink_urls.resize(
        static_cast<size_t>(result.outlink_urls.size() * keep));
    result.tokens.push_back("<!trunc");
    result.tokens.push_back("&#x");
  }
  return result;
}

Result<std::vector<std::string>> SimulatedWeb::Backlinks(
    std::string_view url, int max_results) const {
  FOCUS_ASSIGN_OR_RETURN(uint32_t index, PageIndexByUrl(url));
  std::vector<std::string> out;
  for (uint32_t k = inlink_begin_[index]; k < inlink_begin_[index + 1]; ++k) {
    if (static_cast<int>(out.size()) >= max_results) break;
    out.push_back(pages_[inlinks_[k]].url);
  }
  return out;
}

std::vector<std::string> SimulatedWeb::KeywordSeeds(taxonomy::Cid topic,
                                                    int count,
                                                    int first) const {
  std::vector<std::string> keywords = TopicKeywords(topic, 3);
  auto members_it = topic_pages_.find(topic);
  if (members_it == topic_pages_.end()) return {};
  // Rank pages by keyword occurrences — a stand-in for a search engine.
  std::vector<std::pair<int, uint32_t>> ranked;
  for (uint32_t index : members_it->second) {
    auto tokens = GenerateText(index);
    int hits = 0;
    for (const auto& tok : tokens) {
      for (const auto& kw : keywords) {
        if (tok == kw) {
          ++hits;
          break;
        }
      }
    }
    ranked.emplace_back(-hits, index);  // negative: descending by hits
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> seeds;
  for (int i = first;
       i < std::min<int>(first + count, static_cast<int>(ranked.size()));
       ++i) {
    seeds.push_back(pages_[ranked[i].second].url);
  }
  return seeds;
}

Result<uint32_t> SimulatedWeb::PageIndexByUrl(std::string_view url) const {
  auto it = url_index_.find(std::string(url));
  if (it == url_index_.end()) {
    return Status::NotFound(StrCat("no such url: ", url));
  }
  return it->second;
}

std::vector<uint32_t> SimulatedWeb::PagesOfTopic(taxonomy::Cid topic) const {
  auto it = topic_pages_.find(topic);
  return it == topic_pages_.end() ? std::vector<uint32_t>{} : it->second;
}

std::vector<int> SimulatedWeb::ShortestDistances(
    const std::vector<uint32_t>& sources) const {
  std::vector<int> dist(pages_.size(), -1);
  std::deque<uint32_t> queue;
  for (uint32_t s : sources) {
    if (dist[s] == -1) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    uint32_t u = queue.front();
    queue.pop_front();
    for (uint32_t v : pages_[u].outlinks) {
      if (dist[v] == -1) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

text::TermVector SimulatedWeb::SampleDocumentForTopic(taxonomy::Cid leaf,
                                                      Rng* rng) const {
  return text::BuildTermVector(GenerateTopicText(leaf, rng));
}

std::vector<std::string> SimulatedWeb::TopicKeywords(taxonomy::Cid leaf,
                                                     int count) const {
  std::vector<std::string> keywords;
  keywords.reserve(count);
  for (int r = 0; r < count; ++r) {
    keywords.push_back(TopicToken(leaf, r));
  }
  return keywords;
}

}  // namespace focus::webgraph
