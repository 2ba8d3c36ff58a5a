// The hierarchical topic directory C (§1.1).
//
// A tree of topics with 16-bit class ids (cid). The user marks a subset of
// topics "good" (C*); ancestors of good topics become "path" topics and
// descendants "subsumed". The invariant from the paper holds by
// construction: no good topic is an ancestor of another good topic.
#ifndef FOCUS_TAXONOMY_TAXONOMY_H_
#define FOCUS_TAXONOMY_TAXONOMY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace focus::taxonomy {

using Cid = uint16_t;
inline constexpr Cid kRootCid = 0;

enum class Mark : uint8_t { kNull = 0, kGood, kPath, kSubsumed };

const char* MarkName(Mark mark);

class Taxonomy {
 public:
  // Constructs a taxonomy containing only the root topic.
  Taxonomy();

  // Adds a child topic under `parent`. Names must be unique.
  Result<Cid> AddTopic(Cid parent, std::string name);

  int num_topics() const { return static_cast<int>(nodes_.size()); }
  bool IsValidCid(Cid cid) const { return cid < nodes_.size(); }

  const std::string& Name(Cid cid) const { return nodes_[cid].name; }
  Cid Parent(Cid cid) const { return nodes_[cid].parent; }
  const std::vector<Cid>& Children(Cid cid) const {
    return nodes_[cid].children;
  }
  bool IsLeaf(Cid cid) const { return nodes_[cid].children.empty(); }

  // Cid by exact name, or NotFound.
  Result<Cid> FindByName(std::string_view name) const;

  // True if `ancestor` is a proper ancestor of `cid` (or equal when
  // `or_self`).
  bool IsAncestor(Cid ancestor, Cid cid, bool or_self = false) const;

  // cids from the root down to `cid`, inclusive.
  std::vector<Cid> PathFromRoot(Cid cid) const;

  // All leaves under `cid` (including `cid` itself when it is a leaf).
  std::vector<Cid> LeavesUnder(Cid cid) const;

  // Internal (non-leaf) topics in preorder from the root — the
  // "topological order" in which BulkProbe is evaluated (Figure 3).
  std::vector<Cid> InternalPreorder() const;

  // --- good/path/subsumed marking (§1.1, §2.1.2) ---

  // Marks `cid` good. Fails if an ancestor or descendant is already good.
  Status MarkGood(Cid cid);
  // Clears all marks back to kNull.
  void ClearMarks();
  Mark mark(Cid cid) const { return nodes_[cid].mark; }
  // True if `cid` or any ancestor is good — pages classified here count as
  // relevant under the soft focus rule.
  bool IsGoodOrSubsumed(Cid cid) const;
  std::vector<Cid> GoodTopics() const;

 private:
  struct Node {
    std::string name;
    Cid parent;
    std::vector<Cid> children;
    Mark mark = Mark::kNull;
  };

  void RefreshDerivedMarks();

  std::vector<Node> nodes_;
};

}  // namespace focus::taxonomy

#endif  // FOCUS_TAXONOMY_TAXONOMY_H_
