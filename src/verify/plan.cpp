#include "verify/plan.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "baselines/dependency_graph.hpp"
#include "control/labeling.hpp"
#include "control/segmentation.hpp"

namespace p4u::verify {

namespace {

/// The data plane's believed-or-actual from-state for the builders.
const net::Path& from_of(const PlanInputs& in) {
  return in.actual_from.empty() ? in.believed_old : in.actual_from;
}

void fill_old_rules(FlowPlan& plan, const net::Path& from) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    const net::NodeId next =
        i + 1 < from.size() ? from[i + 1] : net::kNoNode;
    plan.old_rules.emplace_back(from[i], next);
  }
}

void require_update_shape(const PlanInputs& in, const char* who) {
  if (in.new_path.size() < 2) {
    throw std::invalid_argument(std::string(who) +
                                ": new path needs at least 2 nodes");
  }
  if (in.believed_old.size() < 2) {
    throw std::invalid_argument(std::string(who) +
                                ": believed old path needs at least 2 nodes");
  }
}

void require_p4update_path(const net::Path& new_path) {
  if (new_path.size() < 2) {
    throw std::invalid_argument("plan_p4update: new path needs >= 2 nodes");
  }
}

/// What P4Update decides before it plans an update: the segmentation of
/// (believed_old, new_path) and the §7.5 SL/DL type (or `force_type`).
struct P4UpdateDecision {
  control::Segmentation segmentation;
  p4rt::UpdateType type = p4rt::UpdateType::kSingleLayer;
};

P4UpdateDecision p4update_decision(const PlanInputs& in,
                                   std::size_t sl_node_budget,
                                   std::optional<p4rt::UpdateType> force_type) {
  P4UpdateDecision d;
  d.segmentation = control::segment_paths(in.believed_old, in.new_path);
  d.type = force_type ? *force_type
                      : control::choose_update_type(d.segmentation,
                                                    sl_node_budget);
  return d;
}

}  // namespace

const char* to_string(Discipline d) {
  switch (d) {
    case Discipline::kVerifiedChain:  return "verified-chain";
    case Discipline::kVerifiedDual:   return "verified-dual";
    case Discipline::kCausalSegments: return "causal-segments";
    case Discipline::kRoundBarriers:  return "round-barriers";
    case Discipline::kVerifiedTree:   return "verified-tree";
  }
  return "?";
}

FlowPlan plan_p4update(const PlanInputs& in, std::size_t sl_node_budget,
                       std::optional<p4rt::UpdateType> force_type) {
  require_p4update_path(in.new_path);
  FlowPlan plan;
  // Fresh deploy: no believed old path, and so no segmentation either.
  if (in.believed_old.size() < 2) {
    fill_p4update_plan(plan, in.flow, in.believed_old, in.new_path, {},
                       p4rt::UpdateType::kSingleLayer);
    return plan;
  }
  const P4UpdateDecision d = p4update_decision(in, sl_node_budget, force_type);
  fill_p4update_plan(plan, in.flow, from_of(in), in.new_path, d.segmentation,
                     d.type);
  return plan;
}

void fill_p4update_plan(FlowPlan& plan, net::FlowId flow,
                        const net::Path& from, const net::Path& new_path,
                        const control::Segmentation& segmentation,
                        p4rt::UpdateType type) {
  require_p4update_path(new_path);
  const bool fresh = from.size() < 2;
  plan.flow = flow;
  plan.sources.assign(1, new_path.front());
  plan.egress = new_path.back();
  plan.old_rules.clear();
  plan.rounds.clear();
  if (!fresh) fill_old_rules(plan, from);

  // Every P_n node gets a UIM; the egress rule is local delivery.
  const auto n = new_path.size();
  plan.touched.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    TouchedNode& t = plan.touched[i];
    std::vector<std::int32_t> prereqs = std::move(t.prereqs);  // keep storage
    prereqs.clear();
    t = TouchedNode{};
    t.prereqs = std::move(prereqs);
    t.node = new_path[i];
    t.new_next = i + 1 < n ? new_path[i + 1] : net::kNoNode;
    if (!fresh) t.d_from = control::distance_on_path(from, t.node);
  }

  if (fresh || type == p4rt::UpdateType::kSingleLayer) {
    plan.discipline = Discipline::kVerifiedChain;
    // Alg. 1: accept only the successor's UNM with D_n(v) = D_n(u) + 1 —
    // applied sets are suffixes of P_n.
    for (std::size_t i = 0; i + 1 < n; ++i) {
      plan.touched[i].prereqs.push_back(static_cast<std::int32_t>(i + 1));
    }
    return;
  }

  plan.discipline = Discipline::kVerifiedDual;
  for (std::size_t i = 0; i < n; ++i) {
    plan.touched[i].dl_succ =
        i + 1 < n ? static_cast<std::int32_t>(i + 1) : -1;
  }
  for (const control::Segment& s : segmentation.segments) {
    for (std::size_t i = 0; i < n; ++i) {
      if (plan.touched[i].node == s.egress_gateway) {
        plan.touched[i].seg_egress = true;
      }
    }
  }
}

FlowPlan plan_ezsegway(const PlanInputs& in) {
  require_update_shape(in, "plan_ezsegway");
  FlowPlan plan;
  plan.flow = in.flow;
  plan.discipline = Discipline::kCausalSegments;
  plan.sources = {in.new_path.front()};
  plan.egress = in.new_path.back();
  fill_old_rules(plan, from_of(in));

  const control::Segmentation seg =
      control::segment_paths(in.believed_old, in.new_path);
  std::vector<bool> nontrivial(seg.segments.size(), false);
  for (std::size_t i = 0; i < seg.segments.size(); ++i) {
    const control::Segment& s = seg.segments[i];
    nontrivial[i] =
        s.nodes.size() > 2 ||
        net::next_hop(in.believed_old, s.ingress_gateway) != s.egress_gateway;
  }

  // Touched nodes in P_n order (rule-change role only), then the chain and
  // wait edges mirroring EzSegwayController::prepare.
  std::map<net::NodeId, std::int32_t> index_of;
  for (net::NodeId node : in.new_path) {
    for (std::size_t i = 0; i < seg.segments.size(); ++i) {
      if (!nontrivial[i]) continue;
      const auto& nodes = seg.segments[i].nodes;
      for (std::size_t pos = 0; pos + 1 < nodes.size(); ++pos) {
        if (nodes[pos] != node || index_of.count(node) != 0) continue;
        index_of[node] = static_cast<std::int32_t>(plan.touched.size());
        TouchedNode t;
        t.node = node;
        t.new_next = nodes[pos + 1];
        t.d_from = control::distance_on_path(from_of(in), node);
        plan.touched.push_back(std::move(t));
      }
    }
  }

  for (std::size_t i = 0; i < seg.segments.size(); ++i) {
    if (!nontrivial[i]) continue;
    const auto& nodes = seg.segments[i].nodes;
    const auto k = nodes.size();
    // Bottom-up chain: nodes[pos] installs only after nodes[pos + 1] did.
    for (std::size_t pos = 0; pos + 2 < k; ++pos) {
      plan.touched[static_cast<std::size_t>(index_of.at(nodes[pos]))]
          .prereqs.push_back(index_of.at(nodes[pos + 1]));
    }
    // in_loop: the chain start waits for every non-trivial downstream
    // segment to finish — its top (first) node is the last to install.
    if (!seg.segments[i].forward) {
      auto& bottom =
          plan.touched[static_cast<std::size_t>(index_of.at(nodes[k - 2]))];
      for (std::size_t j = i + 1; j < seg.segments.size(); ++j) {
        if (!nontrivial[j]) continue;
        bottom.prereqs.push_back(index_of.at(seg.segments[j].nodes.front()));
      }
    }
  }
  return plan;
}

FlowPlan plan_central(const PlanInputs& in) {
  require_update_shape(in, "plan_central");
  FlowPlan plan;
  plan.flow = in.flow;
  plan.discipline = Discipline::kRoundBarriers;
  plan.sources = {in.new_path.front()};
  plan.egress = in.new_path.back();
  fill_old_rules(plan, from_of(in));

  // Pending = rules that actually change against the *believed* old path
  // (CentralController::schedule_update).
  std::vector<net::NodeId> pending;
  for (std::size_t i = 0; i + 1 < in.new_path.size(); ++i) {
    const net::NodeId n = in.new_path[i];
    if (net::next_hop(in.believed_old, n) != in.new_path[i + 1]) {
      pending.push_back(n);
    }
  }

  // Replay the controller's global round barrier: each round collects every
  // pending node central_safe_to_update deems safe against the believed
  // paths, then waits for all acks before the next round. A round that
  // comes up empty while work remains is a stall — a liveness problem, so
  // the untouched nodes simply never enter the lattice.
  std::map<net::NodeId, std::int32_t> index_of;
  std::vector<net::NodeId> updated;
  for (;;) {
    std::vector<net::NodeId> round;
    for (auto it = in.new_path.rbegin(); it != in.new_path.rend(); ++it) {
      const net::NodeId n = *it;
      if (std::find(pending.begin(), pending.end(), n) == pending.end()) {
        continue;
      }
      if (std::find(updated.begin(), updated.end(), n) != updated.end()) {
        continue;
      }
      if (baseline::central_safe_to_update(in.believed_old, in.new_path, n,
                                           updated, round)) {
        round.push_back(n);
      }
    }
    if (round.empty()) break;
    std::vector<std::int32_t> indices;
    for (net::NodeId n : round) {
      index_of[n] = static_cast<std::int32_t>(plan.touched.size());
      indices.push_back(index_of[n]);
      TouchedNode t;
      t.node = n;
      t.new_next = net::next_hop(in.new_path, n);
      t.d_from = control::distance_on_path(from_of(in), n);
      plan.touched.push_back(std::move(t));
      updated.push_back(n);
    }
    plan.rounds.push_back(std::move(indices));
  }
  return plan;
}

FlowPlan plan_tree(net::FlowId flow, const control::DestTree& old_tree,
                   const control::DestTree& new_tree) {
  FlowPlan plan;
  plan.flow = flow;
  plan.discipline = Discipline::kVerifiedTree;
  plan.egress = new_tree.root;

  // Touched: every member of the new tree, in node-id order; the root's
  // rule is local delivery. Prereq: the node's new parent (the UNM wave
  // fans from the root outward, depths standing in for distances).
  std::map<net::NodeId, std::int32_t> index_of;
  const auto tree_members = [](const control::DestTree& t) {
    std::vector<net::NodeId> out;
    for (std::size_t n = 0; n < t.parent.size(); ++n) {
      const auto id = static_cast<net::NodeId>(n);
      if (t.contains(id)) out.push_back(id);
    }
    return out;
  };
  for (net::NodeId n : tree_members(new_tree)) {
    index_of[n] = static_cast<std::int32_t>(plan.touched.size());
    TouchedNode t;
    t.node = n;
    t.new_next =
        n == new_tree.root ? net::kNoNode
                           : new_tree.parent[static_cast<std::size_t>(n)];
    plan.touched.push_back(std::move(t));
  }
  for (TouchedNode& t : plan.touched) {
    if (t.node == new_tree.root) continue;
    const auto parent = index_of.find(t.new_next);
    if (parent != index_of.end()) t.prereqs.push_back(parent->second);
  }

  for (net::NodeId n : tree_members(old_tree)) {
    plan.old_rules.emplace_back(
        n, n == old_tree.root ? net::kNoNode
                              : old_tree.parent[static_cast<std::size_t>(n)]);
  }

  // Destination-based forwarding: traffic can enter at any member of
  // either tree, so every one is a walk source.
  std::vector<net::NodeId> sources = tree_members(new_tree);
  for (net::NodeId n : tree_members(old_tree)) sources.push_back(n);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  plan.sources = std::move(sources);
  return plan;
}

}  // namespace p4u::verify
