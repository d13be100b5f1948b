// Network Information Base (§6): the controller's view of topology and
// routing. Crucially, this view can be *stale or wrong* (§4, [69, 71]) —
// scenarios exercise exactly that by letting the believed path diverge from
// what the data plane actually installed. The NIB never reads switch state
// directly; it only learns through UFM/FRM messages, like the paper's
// controller.
//
// Storage is flat (ROADMAP: million-flow state): flow ids intern into a
// net::FlowIndex and the FlowViews live in a dense pool addressed by the
// handle, so a controller tracking 10^6 flows pays one contiguous row per
// flow instead of a hash node, and whole-NIB scans are cache-linear.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/flow.hpp"
#include "net/flow_index.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "p4rt/packet.hpp"

namespace p4u::control {

struct FlowView {
  net::Flow flow;
  net::Path believed_path;      // what the controller thinks is installed
  p4rt::Version version = 0;    // highest version the controller issued
  bool update_in_progress = false;
};

class Nib {
 public:
  explicit Nib(const net::Graph& graph) : graph_(&graph) {}

  [[nodiscard]] const net::Graph& graph() const { return *graph_; }

  /// Pre-sizes the index and the view pool for `expected` flows.
  void reserve(std::size_t expected);

  /// Registers a flow. `initial_version` 1 = already deployed in the data
  /// plane; 0 = rules not yet installed (the first update deploys them).
  void record_flow(const net::Flow& f, net::Path initial_path,
                   p4rt::Version initial_version = 1);
  [[nodiscard]] bool knows(net::FlowId id) const {
    return index_.find(id) != net::kNoFlowHandle;
  }
  [[nodiscard]] FlowView& view(net::FlowId id) { return views_[handle_of(id)]; }
  [[nodiscard]] const FlowView& view(net::FlowId id) const {
    return views_[handle_of(id)];
  }

  /// The flow's dense handle, or net::kNoFlowHandle when it was never
  /// recorded. The NIB never releases handles, so controller-side per-flow
  /// rows keyed by it (DESIGN.md §9) stay valid for the whole run.
  [[nodiscard]] net::FlowHandle find_handle(net::FlowId id) const {
    return index_.find(id);
  }
  /// As find_handle, but throws std::out_of_range for an unknown flow.
  [[nodiscard]] net::FlowHandle handle_of(net::FlowId id) const;
  /// Generation of handle `h`, the stamp net::FlowPool rows keyed by it
  /// carry.
  [[nodiscard]] std::uint32_t generation(net::FlowHandle h) const {
    return index_.generation(h);
  }

  /// Next version for a flow update; versions are globally unique per flow
  /// and strictly increasing (§3).
  p4rt::Version next_version(net::FlowId id) {
    return ++views_[handle_of(id)].version;
  }

  /// Marks an update as deployed in the controller's belief. The belief may
  /// be wrong — that is the point of the verification experiments. Copies
  /// into the view's own path, reusing its capacity.
  void believe_path(net::FlowId id, std::span<const net::NodeId> p) {
    net::Path& believed = views_[handle_of(id)].believed_path;
    believed.assign(p.begin(), p.end());
  }

  [[nodiscard]] std::size_t flow_count() const { return index_.size(); }

  /// Every known flow id, sorted. Recovery scans ("which flows cross this
  /// dead link?") iterate this so their side effects — repair updates, give-
  /// ups — happen in a deterministic order regardless of insertion history.
  [[nodiscard]] std::vector<net::FlowId> sorted_flow_ids() const;

  /// Believed residual capacity of directed link (from -> to): capacity
  /// minus sizes of flows whose believed path uses that directed edge.
  [[nodiscard]] double believed_residual(net::NodeId from, net::NodeId to) const;

 private:
  const net::Graph* graph_;
  net::FlowIndex index_;
  // Dense by handle; the NIB never releases handles, so rows_[h] is live
  // exactly when h < index_.slot_count().
  std::vector<FlowView> views_;
};

/// Per-flow rows addressed by a Nib's handles: the controller-side home of
/// per-flow state beside the NIB (DESIGN.md §9). A net::FlowPool stamped
/// with the NIB's generations; the NIB never releases a handle, so a row
/// belongs to one flow for the whole run. Rows are created on first use.
template <typename Row>
class FlowRows {
 public:
  /// The flow's row, created on first use; throws for a flow the NIB does
  /// not know.
  Row& at(const Nib& nib, net::FlowId id) {
    const net::FlowHandle h = nib.handle_of(id);
    return pool_.row(h, nib.generation(h));
  }
  /// The flow's row, or nullptr when it has none yet.
  [[nodiscard]] const Row* find(const Nib& nib, net::FlowId id) const {
    const net::FlowHandle h = nib.find_handle(id);
    if (h == net::kNoFlowHandle || !pool_.set(h, nib.generation(h))) {
      return nullptr;
    }
    return &pool_.get(h, nib.generation(h));
  }
  [[nodiscard]] Row* find(const Nib& nib, net::FlowId id) {
    const net::FlowHandle h = nib.find_handle(id);
    if (h == net::kNoFlowHandle || !pool_.set(h, nib.generation(h))) {
      return nullptr;
    }
    return &pool_.row(h, nib.generation(h));
  }

 private:
  net::FlowPool<Row> pool_;
};

}  // namespace p4u::control
