// InvariantMonitor: the oracle that checks the paper's three consistency
// properties (§5) against the *actual* data-plane state after every rule
// install:
//   - loop freedom: the per-flow forwarding graph is acyclic,
//   - blackhole freedom: walking from the flow ingress always reaches a
//     rule, ending at local delivery,
//   - congestion freedom: per directed link, the flow size bounds of rules
//     routed over it never exceed capacity.
// The systems under test never see the monitor — it reads switch tables the
// way an omniscient observer would.
//
// Every check resolves the flow's row of the fabric's forwarding table once
// and reads only that row: the loop check walks from each switch in it, the
// blackhole check from the ingress. Every switch with a rule for the flow
// has a hop in the row, and a walk that leaves the row has reached a switch
// without a rule, where it ends; so the row scan finds every cycle, in
// O(row²) steps on a row of a few hops, not O(switches). has_loop scans
// every switch through the SwitchDevice API: the reference the row scan
// agrees with exactly. Removals and crash wipes, which the monitor is not
// told about, need no check of their own: they can only break cycles, and a
// blackhole they open shows at the flow's next install.
//
// Under a FaultPlan the oracle distinguishes *violations* (the update system
// broke an invariant) from *faulted walks* (the physical fault broke the
// path): a flow whose walk crossed a downed link or crashed switch is
// excused while the fault bites, and a broken walk counts as faulted, not as
// a blackhole violation. Loops are never excused — no fault creates one; the
// update logic does.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/fabric_observer.hpp"

namespace p4u::harness {

class InvariantMonitor : public p4rt::FabricObserver {
 public:
  struct Violations {
    std::uint64_t loops = 0;
    std::uint64_t blackholes = 0;
    std::uint64_t capacity = 0;
    /// Walks that broke because of a live fault (excused; not a violation).
    std::uint64_t faulted_walks = 0;
    [[nodiscard]] std::uint64_t total() const {
      return loops + blackholes + capacity;
    }
  };

  explicit InvariantMonitor(p4rt::Fabric& fabric, bool check_capacity = false)
      : fabric_(&fabric), check_capacity_(check_capacity) {}

  /// Declares a flow the monitor should watch (its ingress anchors the
  /// blackhole walk; its size feeds the capacity sums). Watching a flow
  /// again keeps its fault excuse.
  void watch_flow(const net::Flow& f);

  /// Subscribes to the fabric (rule installs trigger checks; fault events
  /// mark affected flows excused). Idempotent per monitor instance.
  void attach();

  /// Runs all checks for one flow right now (an unwatched flow gets only
  /// the loop and capacity checks); increments counters and logs trace
  /// entries for anything found.
  void check_flow(net::FlowId flow);

  /// Runs all checks for all watched flows.
  void check_all();

  [[nodiscard]] const Violations& violations() const { return violations_; }
  [[nodiscard]] const std::vector<std::string>& findings() const {
    return findings_;
  }

  /// Tops up "monitor.violation"{kind=loop|blackhole|capacity} plus
  /// "monitor.faulted_walks" to the current totals, so every run report
  /// attributes explorer/chaos failures per invariant without reading
  /// traces. Zero cells are exported too: a clean run visibly reports
  /// zeroes rather than omitting the family. Idempotent (top-up pattern,
  /// like FlowDb::export_outcomes).
  void export_violations(obs::MetricsRegistry& m) const;

  // Direct predicates (used by tests). has_loop scans every switch table:
  // the reference the row scan must agree with.
  [[nodiscard]] bool has_loop(net::FlowId flow) const;
  [[nodiscard]] bool has_blackhole(net::FlowId flow) const;
  [[nodiscard]] std::vector<std::string> capacity_overloads() const;

  // FabricObserver:
  void on_rule_installed(net::NodeId node, net::FlowId flow,
                         std::int32_t port) override;
  void on_link_state(net::LinkId link, net::NodeId a, net::NodeId b,
                     bool up) override;
  void on_switch_state(net::NodeId node, bool up) override;

 private:
  /// How a walk from the flow ingress along installed rules ends.
  enum class WalkEnd {
    kDelivered,  // reached a kLocalPort rule
    kBlackhole,  // reached a rule-less switch or a dangling port
    kLoop,       // revisited a node
    kFaulted,    // hit a crashed switch or a downed link
  };

  using Row = p4rt::ForwardingTable::Row;

  /// A watched flow and its fault excuse.
  struct Watched {
    net::Flow flow;
    /// A live fault broke the flow's path; cleared by the next clean walk.
    bool excused = false;
  };

  /// The flow's row in the fabric's forwarding table, or nullptr.
  [[nodiscard]] const Row* row_of(net::FlowId flow) const;

  /// How the walk from `flow`'s ingress along the rules in `row` (the
  /// flow's row, or nullptr) ends.
  [[nodiscard]] WalkEnd walk_flow(const net::Flow& flow, const Row* row) const;

  /// The loop check: true when following the rules in `row` from some
  /// switch in it comes back to a switch already on that walk.
  bool has_cycle(const Row* row);

  /// Checks `flow` against its row, resolved once, and counts and logs what
  /// it found in the fixed order loop, walk, capacity. `watched` is nullptr
  /// for a flow not watched.
  void check(net::FlowId flow, Watched* watched);

  /// The node a rule on `port` at `node` forwards to; kNoNode when there is
  /// no rule, the rule delivers locally, or its port leads nowhere.
  [[nodiscard]] net::NodeId next_node(net::NodeId node,
                                      std::optional<std::int32_t> port) const;

  /// next_node for the rule at `node` in `row` (nullptr: the flow has none).
  [[nodiscard]] net::NodeId successor(const Row* row, net::NodeId node) const;

  /// The node sequence of the flow's current walk, up to its first
  /// repeated node (pre-fault when called from a state-change notification,
  /// which fires before the fabric applies the effect).
  [[nodiscard]] std::vector<net::NodeId> walk_nodes(net::FlowId flow) const;

  /// Watched flow ids in ascending order. All iteration over the watched
  /// set goes through this so findings, trace entries, and float
  /// accumulations are independent of hash order.
  [[nodiscard]] std::vector<net::FlowId> watched_ids_sorted() const;

  p4rt::Fabric* fabric_;
  bool check_capacity_;
  std::unordered_map<net::FlowId, Watched> flows_;
  /// has_cycle's per-hop walk stamps, reused across calls.
  std::vector<std::uint32_t> walk_of_;
  Violations violations_;
  std::vector<std::string> findings_;
  p4rt::ObserverHandle handle_;
};

}  // namespace p4u::harness
