#include "sql/exec/analyze.h"

#include <cstdio>
#include <utility>

#include "util/clock.h"
#include "util/string_util.h"

namespace focus::sql {

namespace {

std::string FormatMicros(uint64_t micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms",
                static_cast<double>(micros) / 1000.0);
  return buf;
}

}  // namespace

// Declared a friend of PlanStats under this exact name.
class AnalyzedOperator final : public Operator {
 public:
  AnalyzedOperator(PlanStats* stats, std::string label, OperatorPtr child)
      : stats_(stats),
        node_(stats->NewNode(std::move(label))),
        child_(std::move(child)) {}

  Status Open() override {
    // Link under the wrapper currently opening (parent-before-child).
    if (!linked_) {
      linked_ = true;
      if (!stats_->open_stack_.empty()) {
        node_->has_parent = true;
        stats_->open_stack_.back()->children.push_back(node_);
      }
    }
    stats_->PushOpen(node_);
    Stopwatch timer;
    Status s = child_->Open();
    node_->open_micros += static_cast<uint64_t>(timer.ElapsedMicros());
    stats_->PopOpen();
    return s;
  }

  Result<bool> Next(Tuple* out) override {
    ++node_->next_calls;
    Stopwatch timer;
    Result<bool> more = child_->Next(out);
    node_->next_micros += static_cast<uint64_t>(timer.ElapsedMicros());
    if (more.ok() && more.value()) ++node_->rows_out;
    return more;
  }

  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  PlanStats* stats_;
  PlanStats::Node* node_;
  OperatorPtr child_;
  bool linked_ = false;
};

// Batch-engine wrapper; passes nullptr as op_name so the wrapper itself
// records no obs metrics (the wrapped child still does).
class AnalyzedBatchOperator final : public BatchOperator {
 public:
  AnalyzedBatchOperator(PlanStats* stats, std::string label,
                        BatchOperatorPtr child)
      : BatchOperator(nullptr),
        stats_(stats),
        node_(stats->NewNode(std::move(label))),
        child_(std::move(child)) {
    node_->is_batch = true;
  }

  Status Open() override {
    if (!linked_) {
      linked_ = true;
      if (!stats_->open_stack_.empty()) {
        node_->has_parent = true;
        stats_->open_stack_.back()->children.push_back(node_);
      }
    }
    stats_->PushOpen(node_);
    Stopwatch timer;
    Status s = child_->Open();
    node_->open_micros += static_cast<uint64_t>(timer.ElapsedMicros());
    stats_->PopOpen();
    return s;
  }

  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 protected:
  Result<bool> DoNextBatch(Batch* out) override {
    ++node_->next_calls;
    Stopwatch timer;
    Result<bool> more = child_->NextBatch(out);
    node_->next_micros += static_cast<uint64_t>(timer.ElapsedMicros());
    if (more.ok() && more.value()) {
      ++node_->batches;
      node_->rows_out += out->num_rows();
    }
    return more;
  }

 private:
  PlanStats* stats_;
  PlanStats::Node* node_;
  BatchOperatorPtr child_;
  bool linked_ = false;
};

PlanStats::Node* PlanStats::NewNode(std::string label) {
  Node& node = nodes_.emplace_back();
  node.label = std::move(label);
  return &node;
}

void PlanStats::PushOpen(Node* node) { open_stack_.push_back(node); }

void PlanStats::PopOpen() { open_stack_.pop_back(); }

std::vector<const PlanStats::Node*> PlanStats::Roots() const {
  std::vector<const Node*> roots;
  for (const Node& node : nodes_) {
    if (!node.has_parent) roots.push_back(&node);
  }
  return roots;
}

namespace {

uint64_t ChildMicros(const PlanStats::Node& node) {
  uint64_t total = 0;
  for (const PlanStats::Node* child : node.children) {
    total += child->open_micros + child->next_micros;
  }
  return total;
}

void FormatNode(const PlanStats::Node& node, const std::string& prefix,
                bool last, bool root, std::string* out) {
  uint64_t total = node.open_micros + node.next_micros;
  uint64_t children = ChildMicros(node);
  uint64_t self = total > children ? total - children : 0;
  std::string line = root ? "" : StrCat(prefix, last ? "`- " : "|- ");
  if (node.is_batch) {
    *out += StrCat(line, node.label, "  rows=", node.rows_out,
                   " batches=", node.batches, " total=", FormatMicros(total),
                   " self=", FormatMicros(self), "\n");
  } else {
    *out += StrCat(line, node.label, "  rows=", node.rows_out,
                   " next=", node.next_calls, " total=", FormatMicros(total),
                   " self=", FormatMicros(self), "\n");
  }
  std::string child_prefix =
      root ? "" : StrCat(prefix, last ? "   " : "|  ");
  for (size_t i = 0; i < node.children.size(); ++i) {
    FormatNode(*node.children[i], child_prefix,
               i + 1 == node.children.size(), false, out);
  }
}

void NodeToJson(const PlanStats::Node& node, obs::JsonWriter* w) {
  uint64_t total = node.open_micros + node.next_micros;
  uint64_t children = ChildMicros(node);
  w->BeginObject()
      .Field("operator", node.label)
      .Field("rows", node.rows_out)
      .Field("next_calls", node.next_calls)
      .Field("total_micros", total)
      .Field("self_micros", total > children ? total - children : 0);
  if (node.is_batch) w->Field("batches", node.batches);
  w->Key("children").BeginArray();
  for (const PlanStats::Node* child : node.children) NodeToJson(*child, w);
  w->EndArray().EndObject();
}

}  // namespace

std::string PlanStats::Format() const {
  std::string out;
  for (const Node* root : Roots()) {
    FormatNode(*root, "", true, true, &out);
  }
  return out;
}

std::string PlanStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginArray();
  for (const Node* root : Roots()) NodeToJson(*root, &w);
  w.EndArray();
  return w.TakeString();
}

OperatorPtr Analyze(PlanStats* stats, std::string label, OperatorPtr child) {
  if (stats == nullptr) return child;
  return std::make_unique<AnalyzedOperator>(stats, std::move(label),
                                            std::move(child));
}

BatchOperatorPtr AnalyzeBatch(PlanStats* stats, std::string label,
                              BatchOperatorPtr child) {
  if (stats == nullptr) return child;
  return std::make_unique<AnalyzedBatchOperator>(stats, std::move(label),
                                                 std::move(child));
}

}  // namespace focus::sql
