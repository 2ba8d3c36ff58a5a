// Hierarchical naive-Bayes model structures (§2.1.1).
//
// For every internal taxonomy node c0 the model holds, per feature term
// t in F(c0), the sparse vector of logtheta(ci, t) over children ci with
// non-zero training counts, plus per-child logprior(ci) and logdenom(ci).
// Terms absent from a child's statistics take the smoothed default
// theta = 1/denom(ci), i.e. logtheta = -logdenom(ci) (Equation 1 with a
// zero count).
#ifndef FOCUS_CLASSIFY_MODEL_H_
#define FOCUS_CLASSIFY_MODEL_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "taxonomy/taxonomy.h"
#include "text/document.h"

namespace focus::classify {

// A training example: a document attached to a leaf topic (the paper's
// D(c) example sets).
struct LabeledDocument {
  uint64_t did = 0;
  taxonomy::Cid label = 0;  // leaf topic
  text::TermVector terms;
};

// Statistics record for one (c0, t) probe result entry.
struct ChildStat {
  taxonomy::Cid kcid;
  double logtheta;
};

// Model at one internal node c0: the map (t -> [(ci, logtheta)]) restricted
// to the selected features F(c0).
struct NodeModel {
  taxonomy::Cid cid = 0;
  // Keys are exactly the effective feature set F(c0): every stored feature
  // has at least one child record.
  std::unordered_map<uint32_t, std::vector<ChildStat>> stats;
};

struct ClassifierModel {
  // Indexed by cid. logprior(ci) = log Pr[ci | parent(ci)];
  // logdenom(ci) = log of Equation 1's denominator. Root entries are 0.
  std::vector<double> logprior;
  std::vector<double> logdenom;
  // Keyed by internal node cid.
  std::unordered_map<taxonomy::Cid, NodeModel> nodes;

  const NodeModel* NodeFor(taxonomy::Cid cid) const {
    auto it = nodes.find(cid);
    return it == nodes.end() ? nullptr : &it->second;
  }
};

// Posterior log-probabilities log Pr[c|d] for every taxonomy node.
struct ClassScores {
  std::vector<double> logp;  // indexed by cid; logp[root] == 0

  double Prob(taxonomy::Cid cid) const { return std::exp(logp[cid]); }

  // Soft-focus relevance (Equation 3): R(d) = sum over good topics of
  // Pr[c|d].
  double Relevance(const taxonomy::Taxonomy& tax) const {
    double r = 0;
    for (taxonomy::Cid c : tax.GoodTopics()) r += Prob(c);
    return r > 1.0 ? 1.0 : r;
  }

  // Highest-probability leaf (the paper's "best leaf class" used by the
  // hard focus rule).
  taxonomy::Cid BestLeaf(const taxonomy::Taxonomy& tax) const {
    taxonomy::Cid best = taxonomy::kRootCid;
    double best_lp = -std::numeric_limits<double>::infinity();
    for (taxonomy::Cid c = 0; c < tax.num_topics(); ++c) {
      if (!tax.IsLeaf(c)) continue;
      if (logp[c] > best_lp) {
        best_lp = logp[c];
        best = c;
      }
    }
    return best;
  }
};

}  // namespace focus::classify

#endif  // FOCUS_CLASSIFY_MODEL_H_
