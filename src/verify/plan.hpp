// Static update-plan IR (DESIGN.md §12).
//
// A FlowPlan is everything the verifier needs to enumerate the transient
// states of one flow update: which switches receive a new rule, what that
// rule forwards to, and the *ordering discipline* — the acceptance
// conditions that constrain which apply-orders the data plane can exhibit.
// Each supported system compiles to its own discipline:
//
//   kVerifiedChain   SL-P4Update (Alg. 1): a switch accepts only the UNM of
//                    its P_n successor with matching distance, so applied
//                    sets are exactly the suffixes of the new path.
//   kVerifiedDual    DL-P4Update (Alg. 2): intra-segment suffix chains plus
//                    the gateway condition D_old(v) > inherited old
//                    distance, evaluated against the data plane's actual
//                    registers (not the controller's beliefs).
//   kCausalSegments  ez-Segway: bottom-up install chains inside each
//                    non-trivial segment; in_loop segments wait for every
//                    non-trivial downstream segment to finish first.
//   kRoundBarriers   the Central baseline: the controller computes global
//                    rounds from its *believed* paths; within a round,
//                    installs land in any order.
//   kVerifiedTree    §11 destination trees: the UNM wave fans from the
//                    root outward, so a node applies only after its new
//                    parent did.
//
// The split between `believed_old` (what the plan was computed from) and
// `actual_from` (what the data plane really forwards) is the point of the
// exercise: it lets the verifier replay a Fig. 2-style misinformed NIB and
// show which disciplines stay safe when the two disagree.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "control/dest_tree.hpp"
#include "control/segmentation.hpp"
#include "net/flow.hpp"
#include "net/paths.hpp"
#include "p4rt/packet.hpp"

namespace p4u::verify {

enum class Discipline : std::uint8_t {
  kVerifiedChain,
  kVerifiedDual,
  kCausalSegments,
  kRoundBarriers,
  kVerifiedTree,
};

const char* to_string(Discipline d);

/// One switch that receives a new rule under this plan.
struct TouchedNode {
  net::NodeId node = net::kNoNode;
  net::NodeId new_next = net::kNoNode;  // kNoNode = local delivery
  /// Chain/tree/causal disciplines: touched indices that must ALL be
  /// applied before this one may apply.
  std::vector<std::int32_t> prereqs;
  /// kVerifiedDual: touched index of the P_n successor (-1 at the egress).
  std::int32_t dl_succ = -1;
  /// kVerifiedDual: carries the is_segment_egress role, i.e. proposes its
  /// own old distance upstream before applying (second layer).
  bool seg_egress = false;
  /// Hop distance to the egress on the *actual* from-state, kNoDistance
  /// when the switch holds no rule for this flow (fresh node).
  p4rt::Distance d_from = p4rt::kNoDistance;
};

struct FlowPlan {
  net::FlowId flow = 0;
  Discipline discipline = Discipline::kVerifiedChain;
  std::vector<TouchedNode> touched;
  /// From-state rules (node, next); next == kNoNode means local delivery.
  /// A node absent from both `old_rules` and the applied set holds no rule.
  std::vector<std::pair<net::NodeId, net::NodeId>> old_rules;
  /// Walk origins: the flow ingress for path plans, every member node for
  /// tree plans. A source holding no rule in a state emits no traffic yet.
  std::vector<net::NodeId> sources;
  net::NodeId egress = net::kNoNode;
  /// kRoundBarriers: controller rounds as touched-index lists, in order.
  std::vector<std::vector<std::int32_t>> rounds;
};

/// Shared inputs of the per-system plan builders. `actual_from` empty means
/// the data plane matches the controller's belief (the truthful case).
struct PlanInputs {
  net::FlowId flow = 0;
  net::Path believed_old;
  net::Path actual_from;
  net::Path new_path;
};

/// Mirrors P4UpdateController::prepare: segmentation of (believed_old,
/// new_path), §7.5 SL/DL choice (or `force_type`), one new rule per P_n
/// node. Distances in the guards come from `actual_from`. The plan itself
/// is written by fill_p4update_plan.
FlowPlan plan_p4update(
    const PlanInputs& in, std::size_t sl_node_budget = 5,
    std::optional<p4rt::UpdateType> force_type = std::nullopt);

/// Writes the P4Update plan moving `flow` from the data plane's from-state
/// `from` onto `new_path` into `plan`, reusing its storage, under the
/// already decided segmentation and update type. A from-state of fewer
/// than 2 nodes is a fresh deploy: rules install egress-first along the UNM
/// chain over an empty from-state (an SL chain whatever `type` says).
/// Throws std::invalid_argument when `new_path` has fewer than 2 nodes.
void fill_p4update_plan(FlowPlan& plan, net::FlowId flow,
                        const net::Path& from, const net::Path& new_path,
                        const control::Segmentation& segmentation,
                        p4rt::UpdateType type);

/// Mirrors EzSegwayController::prepare: non-trivial segments, bottom-up
/// intra-segment chains, in_loop segments awaiting every non-trivial
/// downstream segment's top node.
FlowPlan plan_ezsegway(const PlanInputs& in);

/// Mirrors CentralController's round computation (central_safe_to_update
/// over the believed paths, global ack barrier between rounds).
FlowPlan plan_central(const PlanInputs& in);

/// §11 destination tree: new parents apply root-first; the old tree is the
/// from-state. Walks start from every node of either tree.
FlowPlan plan_tree(net::FlowId flow, const control::DestTree& old_tree,
                   const control::DestTree& new_tree);

}  // namespace p4u::verify
