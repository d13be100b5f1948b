// Transient-state lattice enumeration (DESIGN.md §12).
//
// Per-flow version monotonicity means a transient state is exactly an
// "applied set" S ⊆ touched: switches in S forward with their new rule,
// switches on the from-path outside S with their old rule, everything else
// drops. The full lattice is the 2^|touched| hypercube; the plan's ordering
// discipline carves out the reachable sub-lattice (e.g. an SL chain leaves
// only the |touched|+1 suffixes). The engine enumerates reachable states
// breadth-first by cardinality, walks the instantaneous forwarding function
// from every traffic source in each one, and reports the first unsafe layer
// — which makes the witness minimum-cardinality by construction.
//
// Everything here is a pure function of the plan: iteration orders are
// index-based, ties break on sorted node lists, and no clock, RNG, or hash
// order is consulted — verdicts are byte-identical across runs and --jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "verify/plan.hpp"
#include "verify/verdict.hpp"

namespace p4u::verify {

struct VerifyOptions {
  /// Reachable-state budget; exceeding it yields Unknown, never a guess.
  std::uint64_t max_states = 1u << 20;
};

class LatticeWorkspace;

/// Enumerates the reachable lattice of `plan` and proves loop-freedom and
/// blackhole-freedom over every state, or produces the minimized witness.
/// Assumes a well-formed plan (verify_plan() is the checked entry point).
/// Runs in `ws`, which the caller owns and may reuse for any later plan.
Verdict analyze_lattice(const FlowPlan& plan, LatticeWorkspace& ws,
                        const VerifyOptions& opt = {});

/// analyze_lattice in a workspace of its own.
Verdict analyze_lattice(const FlowPlan& plan, const VerifyOptions& opt = {});

/// The verifier's scratch: node-indexed lookup arrays, the walk's trace, the
/// two BFS layers and the running minimum witness. A plan binds its touched
/// nodes and from-state rules into the arrays for the duration of one call
/// and resets exactly those entries afterwards, so a workspace carries no
/// verdict-relevant state from one plan to the next; it only keeps its
/// capacity. The arrays grow to the largest node id a plan names as a
/// touched node or a from-state rule; any other id (a next hop or source
/// beyond them, or a negative id, which no plan builder produces) reads as
/// rule-less and is never used as an index. Not thread-safe: one plan at
/// a time.
class LatticeWorkspace {
 public:
  LatticeWorkspace() = default;

 private:
  friend Verdict analyze_lattice(const FlowPlan&, LatticeWorkspace&,
                                 const VerifyOptions&);
  // verifier.hpp: the checked entry point uses seen_.
  friend Verdict verify_plan(const FlowPlan&, LatticeWorkspace&,
                             const VerifyOptions&);

  enum class WalkKind : std::uint8_t { kClean, kLoop, kBlackhole };
  struct WalkEnd {
    WalkKind kind = WalkKind::kClean;
    net::NodeId offender = net::kNoNode;
  };

  /// Binds `plan`, enumerates its lattice into `v` (touched count and
  /// lattice size already set) and unbinds it.
  void enumerate(const FlowPlan& plan, const VerifyOptions& opt, Verdict& v);
  void bind(const FlowPlan& plan);
  void unbind(const FlowPlan& plan);
  /// Walks state `m` from `source`, leaving the visited nodes in trace_.
  WalkEnd walk(const FlowPlan& plan, std::uint64_t m, net::NodeId source);
  /// Keeps the unsafe state `m`, just walked to `end`, if it is the layer's
  /// first or sorts below the minimum so far.
  void offer_unsafe(const FlowPlan& plan, std::uint64_t m, WalkEnd end,
                    bool first);
  void applied_nodes(const FlowPlan& plan, std::uint64_t m,
                     std::vector<net::NodeId>& out) const;

  /// Lookup state of one node id.
  struct NodeSlot {
    std::int32_t touched = -1;  // touched index of this node, -1: none
    bool has_old = false;       // holds a from-state rule
    net::NodeId old_next = net::kNoNode;
    std::uint64_t visited = 0;  // walk stamp of the last visit
  };

  std::vector<NodeSlot> nodes_;
  std::uint64_t walk_ = 0;             // stamp of the current walk
  std::vector<net::NodeId> trace_;     // nodes of the current walk, in order
  std::vector<std::uint64_t> layer_;   // BFS layer k (applied-set masks)
  std::vector<std::uint64_t> next_;    // BFS layer k + 1
  // Minimum unsafe state of the current layer so far.
  WalkEnd best_end_;
  std::vector<net::NodeId> best_applied_;
  std::vector<net::NodeId> best_trace_;
  std::vector<net::NodeId> applied_;   // candidate state's sorted nodes
  std::vector<net::NodeId> seen_;      // verify_plan's duplicate check
};

}  // namespace p4u::verify
