// ForwardingTable: every switch's forwarding rules, one row per flow.
//
// The Fabric owns one table for all of its switches (DESIGN.md §10). A flow
// is interned once into a net::FlowIndex, and its row lists the switches
// that hold anything for it: a rule, an install still pending, or an
// install tail that can still delay a later install. Each SwitchDevice
// answers its own lookups from its hop in the row.
//
// Per-flow rows are what the writers and readers of this state work in:
// bring-up writes a flow's hops back to back (one hash probe per flow
// through the last-row cache, not one per (switch, flow)), and the
// invariant monitor resolves a flow's row once per check and walks it, so
// its work follows the path, not the switch count. The two per-switch
// questions pay for it: a crash and a switch's id-ordered rule view scan
// every row (crash chaos and congestion mode only).
#pragma once

#include <cstdint>
#include <limits>

#include "net/flow.hpp"
#include "net/flow_index.hpp"
#include "sim/append_log.hpp"
#include "sim/small_vec.hpp"
#include "sim/time.hpp"

namespace p4u::p4rt {

using net::FlowId;
using net::NodeId;

class ForwardingTable {
 public:
  /// Port value of a hop that holds no rule (a blackhole at that switch).
  static constexpr std::int32_t kNoPort =
      std::numeric_limits<std::int32_t>::min();
  /// Tail value of a hop that never had a timed install.
  static constexpr sim::Time kNoTail = std::numeric_limits<sim::Time>::min();

  /// One switch's state for one flow.
  struct Hop {
    NodeId node = net::kNoNode;
    std::int32_t port = kNoPort;
    // Completions not yet retired; the hop is kept while any is pending.
    std::uint32_t pending = 0;
    // Latest scheduled install completion: register writes retire in issue
    // order, so a straggling older install can never overwrite a faster
    // newer one (fast-forward safety).
    sim::Time tail = kNoTail;
  };
  /// A flow's hops, unordered. Six fit inline, which covers every fat-tree
  /// path (at most five switches); a longer path spills the row to the heap.
  using Row = sim::SmallVec<Hop, 6>;

  /// The flow's row, or nullptr when no switch holds anything for it.
  [[nodiscard]] const Row* row(FlowId flow) const;

  /// `node`'s hop in `row`, or nullptr.
  [[nodiscard]] static const Hop* hop_in(const Row& row, NodeId node) {
    for (const Hop& h : row) {
      if (h.node == node) return &h;
    }
    return nullptr;
  }

  /// `node`'s hop for `flow`, or nullptr.
  [[nodiscard]] Hop* find(FlowId flow, NodeId node);
  [[nodiscard]] const Hop* find(FlowId flow, NodeId node) const;

  /// `node`'s hop for `flow`, added without a rule or tail when missing.
  /// The reference is valid until the next call that adds or drops a hop.
  Hop& hop(FlowId flow, NodeId node);

  /// Drops `node`'s hop for `flow`; the flow's handle goes with its last hop.
  void drop(FlowId flow, NodeId node);

  /// Drops every hop at `node` (a crash): scans every row.
  void drop_node(NodeId node);

  /// Calls fn(flow, hop) for each of `node`'s hops, in handle order: scans
  /// every row.
  template <typename Fn>
  void for_each_at(NodeId node, Fn&& fn) const {
    index_.for_each([&](net::FlowHandle h, FlowId flow) {
      if (const Hop* hop = hop_in(rows_[h], node)) fn(flow, *hop);
    });
  }

 private:
  /// Handle of `flow`, interned when missing.
  net::FlowHandle intern(FlowId flow);
  /// Releases an empty row's handle.
  void release(net::FlowHandle h);
  /// Drops `node`'s hop from row `h`, if it has one.
  void remove(net::FlowHandle h, NodeId node);

  net::FlowIndex index_;
  // Rows by handle; a released handle's row is empty. Chunked, so growing
  // the table never copies a row or holds two copies of it.
  sim::AppendLog<Row, 512> rows_;
  // The flow intern() resolved last: bring-up and a switch's install path
  // touch one flow several times in a row.
  FlowId last_flow_ = 0;
  net::FlowHandle last_handle_ = net::kNoFlowHandle;
};

}  // namespace p4u::p4rt
