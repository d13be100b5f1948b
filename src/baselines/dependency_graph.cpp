#include "baselines/dependency_graph.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "sim/small_vec.hpp"

namespace p4u::baseline {

namespace {

/// Directed edge id within the dependency graph's link-vertex space.
std::int64_t dlink_key(net::NodeId a, net::NodeId b) {
  return (static_cast<std::int64_t>(a) << 32) |
         static_cast<std::uint32_t>(b);
}

struct DepGraph {
  // Vertices: [0, n_moves) are flow moves, [n_moves, n) are directed links.
  std::size_t n_moves = 0;
  std::vector<std::vector<std::int32_t>> adj;
};

DepGraph build(const std::vector<FlowMove>& moves) {
  DepGraph g;
  g.n_moves = moves.size();
  std::map<std::int64_t, std::int32_t> link_vertex;
  auto vertex_of = [&](net::NodeId a, net::NodeId b) {
    const auto key = dlink_key(a, b);
    auto it = link_vertex.find(key);
    if (it != link_vertex.end()) return it->second;
    const auto v = static_cast<std::int32_t>(g.n_moves + link_vertex.size());
    link_vertex.emplace(key, v);
    return v;
  };
  // First pass: discover all link vertices.
  for (const FlowMove& m : moves) {
    for (std::size_t i = 0; i + 1 < m.new_path.size(); ++i) {
      vertex_of(m.new_path[i], m.new_path[i + 1]);
    }
    for (std::size_t i = 0; i + 1 < m.old_path.size(); ++i) {
      vertex_of(m.old_path[i], m.old_path[i + 1]);
    }
  }
  g.adj.assign(g.n_moves + link_vertex.size(), {});
  for (std::size_t mi = 0; mi < moves.size(); ++mi) {
    const FlowMove& m = moves[mi];
    const std::set<net::NodeId> new_nodes(m.new_path.begin(),
                                          m.new_path.end());
    // The move needs capacity on every new directed link it did not hold.
    for (std::size_t i = 0; i + 1 < m.new_path.size(); ++i) {
      g.adj[mi].push_back(vertex_of(m.new_path[i], m.new_path[i + 1]));
    }
    // The move frees capacity on every old directed link it leaves.
    for (std::size_t i = 0; i + 1 < m.old_path.size(); ++i) {
      const auto v = vertex_of(m.old_path[i], m.old_path[i + 1]);
      g.adj[static_cast<std::size_t>(v)].push_back(
          static_cast<std::int32_t>(mi));
    }
  }
  return g;
}

/// Iterative Tarjan SCC; returns component id per vertex and per-component
/// size.
void tarjan_scc(const DepGraph& g, std::vector<std::int32_t>& comp,
                std::vector<std::int32_t>& comp_size) {
  const auto n = g.adj.size();
  comp.assign(n, -1);
  std::vector<std::int32_t> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::int32_t> stack;
  std::int32_t next_index = 0, next_comp = 0;

  struct Frame {
    std::int32_t v;
    std::size_t child;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> call{{static_cast<std::int32_t>(root), 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(static_cast<std::int32_t>(root));
    on_stack[root] = true;
    while (!call.empty()) {
      Frame& f = call.back();
      const auto v = static_cast<std::size_t>(f.v);
      if (f.child < g.adj[v].size()) {
        const auto w = static_cast<std::size_t>(g.adj[v][f.child++]);
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(static_cast<std::int32_t>(w));
          on_stack[w] = true;
          call.push_back({static_cast<std::int32_t>(w), 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        std::int32_t size = 0;
        for (;;) {
          const auto w = static_cast<std::size_t>(stack.back());
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = next_comp;
          ++size;
          if (w == v) break;
        }
        comp_size.push_back(size);
        ++next_comp;
      }
      call.pop_back();
      if (!call.empty()) {
        const auto p = static_cast<std::size_t>(call.back().v);
        low[p] = std::min(low[p], low[v]);
      }
    }
  }
}

}  // namespace

std::map<net::FlowId, EzPriority> compute_ez_priorities(
    const net::Graph& g, const std::vector<FlowMove>& moves,
    std::uint64_t* work_units) {
  (void)g;
  std::map<net::FlowId, EzPriority> out;
  std::uint64_t units = 0;
  if (work_units != nullptr) *work_units = 0;
  if (moves.empty()) return out;
  const DepGraph dep = build(moves);
  for (const auto& adj : dep.adj) units += 1 + adj.size();
  units *= 1 + moves.size();  // SCC + per-move reachability passes
  if (work_units != nullptr) *work_units = units;
  std::vector<std::int32_t> comp, comp_size;
  tarjan_scc(dep, comp, comp_size);

  std::vector<bool> cyclic(dep.adj.size(), false);
  for (std::size_t v = 0; v < dep.adj.size(); ++v) {
    cyclic[v] = comp_size[static_cast<std::size_t>(comp[v])] > 1;
  }

  // Per-move reachability: can this move's freed capacity reach a cycle?
  // (This pass is deliberately per-move — the realistic cost a centralized
  // scheduler pays on every reconfiguration.)
  for (std::size_t mi = 0; mi < moves.size(); ++mi) {
    EzPriority prio = EzPriority::kLow;
    if (cyclic[mi]) {
      prio = EzPriority::kInCycle;
    } else {
      std::vector<bool> seen(dep.adj.size(), false);
      std::vector<std::int32_t> stack{static_cast<std::int32_t>(mi)};
      seen[mi] = true;
      bool feeds = false;
      while (!stack.empty() && !feeds) {
        const auto v = static_cast<std::size_t>(stack.back());
        stack.pop_back();
        for (std::int32_t w : dep.adj[v]) {
          const auto wu = static_cast<std::size_t>(w);
          if (seen[wu]) continue;
          seen[wu] = true;
          if (cyclic[wu]) {
            feeds = true;
            break;
          }
          stack.push_back(w);
        }
      }
      if (feeds) prio = EzPriority::kFeedsCycle;
    }
    out[moves[mi].flow] = prio;
  }
  return out;
}

bool central_safe_to_update(const net::Path& old_path,
                            const net::Path& new_path, net::NodeId node,
                            const std::vector<net::NodeId>& updated,
                            const std::vector<net::NodeId>& candidates) {
  // Linear scans: the node lists are path-sized (at most 5 nodes on a
  // fat-tree(8)), and Central calls this for every pending node of every
  // job in every round.
  const auto contains = [](const std::vector<net::NodeId>& nodes,
                           net::NodeId n) {
    return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
  };
  const net::NodeId egress = new_path.back();

  const net::NodeId target = net::next_hop(new_path, node);
  if (target == net::kNoNode) return false;  // not on the path / is egress
  // Blackhole check: the new next hop must already hold forwarding state —
  // its old rule (on the old path / egress) or an acknowledged new rule.
  const bool target_has_rule =
      target == egress || contains(updated, target) ||
      net::next_hop(old_path, target) != net::kNoNode;
  if (!target_has_rule) return false;

  // Loop check over the uncertainty multigraph: updated nodes follow their
  // new rule; pending nodes may still follow their old rule; candidates of
  // this round (and `node` itself) may follow either. The walk visits path
  // nodes only, so both buffers stay inline for path-sized inputs.
  sim::SmallVec<net::NodeId, 16> visited;
  sim::SmallVec<net::NodeId, 16> stack{target};
  while (!stack.empty()) {
    const net::NodeId cur = stack.back();
    stack.pop_back();
    if (cur == node) return false;  // can walk back: potential loop
    if (cur == egress ||
        std::find(visited.begin(), visited.end(), cur) != visited.end()) {
      continue;
    }
    visited.push_back(cur);
    const net::NodeId old_succ = net::next_hop(old_path, cur);
    const net::NodeId new_succ = net::next_hop(new_path, cur);
    if (contains(updated, cur)) {
      if (new_succ != net::kNoNode) stack.push_back(new_succ);
    } else if (contains(candidates, cur) || cur == node) {
      if (new_succ != net::kNoNode) stack.push_back(new_succ);
      if (old_succ != net::kNoNode) stack.push_back(old_succ);
    } else {
      if (old_succ != net::kNoNode) stack.push_back(old_succ);
    }
  }
  return true;
}

std::vector<net::NodeId> central_next_round(
    const net::Path& old_path, const net::Path& new_path,
    const std::vector<net::NodeId>& updated) {
  const std::set<net::NodeId> done(updated.begin(), updated.end());
  std::vector<net::NodeId> round;
  // Deterministic order: egress side first (downstream rules enable
  // upstream ones within the same dependency chain across rounds).
  for (auto it = new_path.rbegin(); it != new_path.rend(); ++it) {
    const net::NodeId n = *it;
    if (n == new_path.back() || done.count(n) != 0) continue;
    if (central_safe_to_update(old_path, new_path, n, updated, round)) {
      round.push_back(n);
    }
  }
  return round;
}

}  // namespace p4u::baseline
