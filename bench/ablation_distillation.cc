// Ablation: what the §2.2.2 distillation enhancements actually buy.
//
// "w.r.t. almost any topic, relevant pages refer to irrelevant pages and
// vice versa... Pages of all topics point to Netscape and Free Speech
// Online." The paper prevents leakage of endorsement with (1) relevance-
// derived edge weights EF/EB, (2) the authority relevance threshold rho,
// and (3) the same-server nepotism filter. We run HITS over the same
// crawl graph with each enhancement removed and measure, against ground
// truth, how many of the top-20 authorities/hubs are actually on topic
// and whether the universal portals ("b*.web.example") invade the top.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "distill/hits.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace focus::bench {
namespace {

int Run() {
  taxonomy::Taxonomy tax = core::BuildSampleTaxonomy();
  core::FocusOptions options;
  options.seed = 47;
  options.web.pages_per_topic = 1000;
  options.web.background_pages = 40000;
  options.web.background_servers = 1000;
  // Make the §2.2.2 hazard pronounced: strong universal portals.
  options.web.popular_background_pages = 10;
  options.web.popular_background_share = 0.35;
  auto system = core::FocusSystem::Create(std::move(tax), options)
                    .TakeValue();
  FOCUS_CHECK(system->MarkGood("cycling").ok());
  FOCUS_CHECK(system->Train().ok());
  auto cycling = system->tax().FindByName("cycling").value();

  crawl::CrawlerOptions copts;
  copts.max_fetches = 3000;
  auto session =
      system->NewCrawl(system->web().KeywordSeeds(cycling, 15), copts)
          .TakeValue();
  FOCUS_CHECK(session->crawler().Crawl().ok());

  // Edge list + relevance from the crawl state.
  std::vector<distill::WeightedEdge> edges;
  std::unordered_map<uint64_t, double> relevance;
  std::unordered_map<uint64_t, std::string> url_of;
  {
    auto it = session->db().crawl_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      uint64_t oid = static_cast<uint64_t>(row.Get(0).AsInt64());
      url_of[oid] = row.Get(1).AsString();
      if (row.Get(8).AsInt32() != 0) {  // visited pages carry their own R
        relevance[oid] = row.Get(4).AsDouble();
      }
    }
    FOCUS_CHECK(it.status().ok());
  }
  {
    auto it = session->db().link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      edges.push_back(distill::WeightedEdge{
          static_cast<uint64_t>(row.Get(0).AsInt64()), row.Get(1).AsInt32(),
          static_cast<uint64_t>(row.Get(2).AsInt64()), row.Get(3).AsInt32(),
          0, 0});
    }
    FOCUS_CHECK(it.status().ok());
  }

  auto evaluate = [&](const char* name, bool relevance_weights, double rho,
                      bool nepotism) {
    auto weighted = edges;
    if (relevance_weights) {
      distill::AssignRelevanceWeights(relevance, &weighted);
    } else {
      for (auto& e : weighted) e.wgt_fwd = e.wgt_rev = 1.0;
    }
    distill::HitsEngine engine(weighted, relevance);
    auto scores = engine.Run({.iterations = 25,
                              .rho = rho,
                              .nepotism_filter = nepotism});
    auto top_auth = distill::HitsEngine::TopAuthorities(scores, 20);
    auto top_hubs = distill::HitsEngine::TopHubs(scores, 20);
    auto on_topic = [&](const std::vector<std::pair<uint64_t, double>>& top,
                        int* portals) {
      int good = 0;
      *portals = 0;
      for (const auto& [oid, score] : top) {
        auto it = url_of.find(oid);
        if (it == url_of.end()) continue;
        auto idx = system->web().PageIndexByUrl(it->second);
        if (!idx.ok()) continue;
        const auto& page = system->web().page(idx.value());
        if (page.topic == cycling) ++good;
        if (page.topic == webgraph::kBackgroundTopic) ++(*portals);
      }
      return good;
    };
    int auth_portals = 0, hub_portals = 0;
    int auth_good = on_topic(top_auth, &auth_portals);
    int hub_good = on_topic(top_hubs, &hub_portals);
    std::printf("%s,%d,%d,%d,%d\n", name, auth_good, auth_portals, hub_good,
                hub_portals);
  };

  Note("ablation: distillation enhancements of section 2.2.2 "
       "(top-20 membership, ground truth)");
  Note("crawl: ", session->crawler().visits().size(), " pages; links: ",
       session->db().num_links());
  std::printf("variant,auth_on_topic,auth_background,hub_on_topic,"
              "hub_background\n");
  evaluate("paper (weights + rho + nepotism)", true, 0.2, true);
  evaluate("no edge weights", false, 0.2, true);
  evaluate("no rho filter", true, 0.0, true);
  evaluate("no nepotism filter", true, 0.2, false);
  evaluate("plain HITS (none)", false, 0.0, false);
  return 0;
}

}  // namespace
}  // namespace focus::bench

int main() {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  return focus::bench::Run();
}
