#include "verify/lattice.hpp"

#include <algorithm>
#include <limits>

namespace p4u::verify {

namespace {

using Mask = std::uint64_t;

bool applied(Mask m, std::int32_t i) {
  return ((m >> static_cast<unsigned>(i)) & 1u) != 0;
}

/// DL old-distance inheritance: the value available to the predecessor of
/// applied node `j` is found by walking the applied run downstream — 0 if
/// it reaches the egress, else the first unapplied node's from-distance
/// (the proposal a segment-egress gateway sent before applying). Computed
/// against the current state; the run only grows, so this is the smallest
/// (most permissive) value the protocol could have granted — an
/// over-approximation of reachability, which is the safe direction.
p4rt::Distance inherited_old_distance(const FlowPlan& plan, Mask m,
                                      std::int32_t j) {
  std::int32_t cur = plan.touched[static_cast<std::size_t>(j)].dl_succ;
  while (cur >= 0 && applied(m, cur)) {
    cur = plan.touched[static_cast<std::size_t>(cur)].dl_succ;
  }
  if (cur < 0) return 0;  // the applied run reaches the egress
  const p4rt::Distance d =
      plan.touched[static_cast<std::size_t>(cur)].d_from;
  return d == p4rt::kNoDistance
             ? std::numeric_limits<p4rt::Distance>::max()
             : d;
}

bool may_apply_dual(const FlowPlan& plan, Mask m, std::int32_t i) {
  const TouchedNode& t = plan.touched[static_cast<std::size_t>(i)];
  if (t.dl_succ < 0) return true;  // flow egress applies directly
  const TouchedNode& s = plan.touched[static_cast<std::size_t>(t.dl_succ)];
  p4rt::Distance avail = 0;
  if (applied(m, t.dl_succ)) {
    avail = inherited_old_distance(plan, m, t.dl_succ);
  } else if (s.seg_egress && s.d_from != p4rt::kNoDistance) {
    // Second layer: a stateful segment-egress gateway proposes its own
    // from-distance upstream before applying itself.
    avail = s.d_from;
  } else {
    return false;  // no UNM to verify against yet
  }
  // Alg. 2 gateway condition; fresh nodes (no flow state) take the inner-
  // update branch, which has no old-distance condition.
  if (t.d_from == p4rt::kNoDistance) return true;
  return t.d_from > avail;
}

bool may_apply_rounds(const FlowPlan& plan, Mask m, std::int32_t i) {
  // The global ack barrier: only members of the first incomplete round are
  // in flight; everything before it has fully applied.
  for (const auto& round : plan.rounds) {
    bool complete = true;
    for (std::int32_t member : round) {
      if (!applied(m, member)) complete = false;
    }
    if (complete) continue;
    for (std::int32_t member : round) {
      if (member == i) return true;
    }
    return false;
  }
  return false;
}

bool may_apply(const FlowPlan& plan, Mask m, std::int32_t i) {
  switch (plan.discipline) {
    case Discipline::kVerifiedDual:
      return may_apply_dual(plan, m, i);
    case Discipline::kRoundBarriers:
      return may_apply_rounds(plan, m, i);
    case Discipline::kVerifiedChain:
    case Discipline::kCausalSegments:
    case Discipline::kVerifiedTree: {
      for (std::int32_t p : plan.touched[static_cast<std::size_t>(i)].prereqs) {
        if (!applied(m, p)) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

const char* to_string(VerdictKind k) {
  switch (k) {
    case VerdictKind::kSafe:    return "safe";
    case VerdictKind::kUnsafe:  return "unsafe";
    case VerdictKind::kUnknown: return "unknown";
  }
  return "?";
}

void LatticeWorkspace::bind(const FlowPlan& plan) {
  net::NodeId top = net::kNoNode;
  for (const TouchedNode& t : plan.touched) top = std::max(top, t.node);
  for (const auto& rule : plan.old_rules) top = std::max(top, rule.first);
  if (top >= 0 && nodes_.size() <= static_cast<std::size_t>(top)) {
    nodes_.resize(static_cast<std::size_t>(top) + 1);
  }
  // A duplicated touched node answers with its last index, a duplicated
  // from-state rule with its first (tests/verify/verifier_golden_test.cpp
  // pins both). Negative ids are never indexed: they read as rule-less.
  for (std::size_t i = 0; i < plan.touched.size(); ++i) {
    const net::NodeId node = plan.touched[i].node;
    if (node >= 0) {
      nodes_[static_cast<std::size_t>(node)].touched =
          static_cast<std::int32_t>(i);
    }
  }
  for (const auto& [node, next] : plan.old_rules) {
    if (node < 0) continue;
    NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
    if (slot.has_old) continue;
    slot.has_old = true;
    slot.old_next = next;
  }
}

void LatticeWorkspace::unbind(const FlowPlan& plan) {
  for (const TouchedNode& t : plan.touched) {
    if (t.node >= 0) nodes_[static_cast<std::size_t>(t.node)].touched = -1;
  }
  for (const auto& rule : plan.old_rules) {
    if (rule.first < 0) continue;
    NodeSlot& slot = nodes_[static_cast<std::size_t>(rule.first)];
    slot.has_old = false;
    slot.old_next = net::kNoNode;
  }
}

/// Walks the instantaneous forwarding function of state `m` from `source`.
/// A source holding no rule emits no traffic yet (fresh deploys, new tree
/// members); a rule-less node *reached* mid-walk is a blackhole. A node id
/// outside the arrays holds no rule, so it always ends the walk.
LatticeWorkspace::WalkEnd LatticeWorkspace::walk(const FlowPlan& plan, Mask m,
                                                 net::NodeId source) {
  trace_.clear();
  const std::uint64_t stamp = ++walk_;
  const std::size_t node_budget = plan.touched.size() + plan.old_rules.size();
  net::NodeId cur = source;
  for (std::size_t step = 0; step <= node_budget + 1; ++step) {
    NodeSlot* slot = cur >= 0 && static_cast<std::size_t>(cur) < nodes_.size()
                         ? &nodes_[static_cast<std::size_t>(cur)]
                         : nullptr;
    if (slot != nullptr && slot->visited == stamp) {
      trace_.push_back(cur);
      return {WalkKind::kLoop, cur};
    }
    if (slot != nullptr) slot->visited = stamp;
    trace_.push_back(cur);

    net::NodeId next = net::kNoNode;
    bool has_rule = false;
    if (slot != nullptr) {
      if (slot->touched >= 0 && applied(m, slot->touched)) {
        next = plan.touched[static_cast<std::size_t>(slot->touched)].new_next;
        has_rule = true;
      } else if (slot->has_old) {
        next = slot->old_next;
        has_rule = true;
      }
    }
    if (!has_rule) {
      if (cur == source) {
        trace_.clear();  // no ingress rule yet: no traffic to misroute
        return {};
      }
      return {WalkKind::kBlackhole, cur};
    }
    if (next == net::kNoNode) return {};  // local delivery
    cur = next;
  }
  // Budget exhausted without revisit/delivery — only possible if the rule
  // maps name nodes outside the plan; treat as a loop-grade anomaly.
  return {WalkKind::kLoop, cur};
}

void LatticeWorkspace::applied_nodes(const FlowPlan& plan, Mask m,
                                     std::vector<net::NodeId>& out) const {
  out.clear();
  for (std::size_t i = 0; i < plan.touched.size(); ++i) {
    if (applied(m, static_cast<std::int32_t>(i))) {
      out.push_back(plan.touched[i].node);
    }
  }
  std::sort(out.begin(), out.end());
}

void LatticeWorkspace::offer_unsafe(const FlowPlan& plan, Mask m, WalkEnd end,
                                    bool first) {
  applied_nodes(plan, m, applied_);
  if (!first && !(applied_ < best_applied_)) return;
  best_applied_.swap(applied_);
  best_end_ = end;
  best_trace_ = trace_;
}

void LatticeWorkspace::enumerate(const FlowPlan& plan,
                                 const VerifyOptions& opt, Verdict& v) {
  // The plan's entries leave the arrays on every exit, exceptions included.
  struct Binding {
    LatticeWorkspace& ws;
    const FlowPlan& plan;
    ~Binding() { ws.unbind(plan); }
  };
  bind(plan);
  const Binding binding{*this, plan};

  const std::size_t n = plan.touched.size();
  // BFS by cardinality: every reachable state with k applied rules sits in
  // layer k, so the first unsafe layer holds the minimum witness.
  layer_.assign(1, 0);
  while (!layer_.empty()) {
    bool unsafe = false;
    for (Mask m : layer_) {
      ++v.stats.states_enumerated;
      for (net::NodeId source : plan.sources) {
        ++v.stats.walks;
        const WalkEnd end = walk(plan, m, source);
        if (end.kind != WalkKind::kClean) {
          // Minimal layer reached; tie-break on the sorted applied-node list.
          offer_unsafe(plan, m, end, !unsafe);
          unsafe = true;
          break;
        }
      }
    }
    if (unsafe) {
      v.kind = VerdictKind::kUnsafe;
      Witness w;
      w.flow = plan.flow;
      w.loop = best_end_.kind == WalkKind::kLoop;
      w.applied = best_applied_;
      w.walk = best_trace_;
      w.offender = best_end_.offender;
      v.witness = std::move(w);
      v.stats.states_pruned = v.stats.lattice_size - v.stats.states_enumerated;
      return;
    }
    if (v.stats.states_enumerated > opt.max_states) {
      v.kind = VerdictKind::kUnknown;
      v.reason = "state budget exceeded";
      v.stats.states_pruned =
          v.stats.lattice_size - v.stats.states_enumerated;
      return;
    }

    next_.clear();
    for (Mask m : layer_) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto idx = static_cast<std::int32_t>(i);
        if (applied(m, idx) || !may_apply(plan, m, idx)) continue;
        next_.push_back(m | (1ull << i));
      }
    }
    std::sort(next_.begin(), next_.end());
    next_.erase(std::unique(next_.begin(), next_.end()), next_.end());
    layer_.swap(next_);
  }

  v.kind = VerdictKind::kSafe;
  v.stats.states_pruned = v.stats.lattice_size - v.stats.states_enumerated;
}

Verdict analyze_lattice(const FlowPlan& plan, LatticeWorkspace& ws,
                        const VerifyOptions& opt) {
  Verdict v;
  const std::size_t n = plan.touched.size();
  v.stats.touched = n;
  if (n > 63) {
    v.kind = VerdictKind::kUnknown;
    v.reason = "plan touches more than 63 switches";
    return v;
  }
  v.stats.lattice_size = 1ull << n;
  ws.enumerate(plan, opt, v);
  return v;
}

Verdict analyze_lattice(const FlowPlan& plan, const VerifyOptions& opt) {
  LatticeWorkspace ws;
  return analyze_lattice(plan, ws, opt);
}

}  // namespace p4u::verify
