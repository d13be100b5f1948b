// Path computation for the control plane: Dijkstra shortest paths and Yen's
// k-shortest loopless paths. The paper's multi-flow scenarios route the old
// flow on the shortest path and the new flow on the 2nd-shortest (§9.1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/graph.hpp"

namespace p4u::net {

/// A simple (loop-free) node path: path.front() = ingress, back() = egress.
using Path = std::vector<NodeId>;

enum class Metric {
  kHops,     // unit edge weight
  kLatency,  // link propagation latency
};

/// Shortest-path tree from `src`. Returns per-node distance (in metric units;
/// latency in nanoseconds) and predecessor (kNoNode for src/unreachable).
struct SpTree {
  std::vector<double> dist;
  std::vector<NodeId> parent;
};
SpTree dijkstra(const Graph& g, NodeId src, Metric metric = Metric::kLatency);

/// Shortest path src -> dst; nullopt if unreachable.
std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  Metric metric = Metric::kLatency);

/// Per destination, the port on `src` of the first hop of shortest_path(g,
/// src, dst), read off one shortest-path tree; -1 for `src` itself and for
/// unreachable destinations.
std::vector<std::int32_t> first_hop_ports(const Graph& g, NodeId src);

/// Shortest path src -> dst that avoids `banned` nodes entirely (src/dst
/// must not be banned); nullopt if none exists.
std::optional<Path> shortest_path_avoiding(const Graph& g, NodeId src,
                                           NodeId dst,
                                           const std::vector<NodeId>& banned,
                                           Metric metric = Metric::kLatency);

/// Shortest path src -> dst avoiding both `banned_links` (in either
/// direction) and `banned_nodes` — the repair-path query of the failure
/// domain: route around dead links and crashed switches. nullopt if the
/// fault set disconnects src from dst (or bans one of them).
std::optional<Path> shortest_path_avoiding_elements(
    const Graph& g, NodeId src, NodeId dst,
    const std::vector<LinkId>& banned_links,
    const std::vector<NodeId>& banned_nodes,
    Metric metric = Metric::kLatency);

/// Yen's algorithm: up to k shortest loopless paths, ascending cost.
std::vector<Path> k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                   std::size_t k,
                                   Metric metric = Metric::kLatency);

/// Total metric cost of a path (nanoseconds for kLatency, hops for kHops).
double path_cost(const Graph& g, const Path& p, Metric metric);

/// The node after `n` on `path`; kNoNode when `n` is the path's last node
/// or not on it.
inline NodeId next_hop(const Path& path, NodeId n) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] == n) return path[i + 1];
  }
  return kNoNode;
}

/// True if `p` is a valid simple path in `g` (adjacent hops, no repeats).
bool valid_simple_path(const Graph& g, const Path& p);

/// The node minimizing the worst-case shortest-path latency to all others —
/// where the paper places the WAN controller ("centroid node", §9.1).
NodeId centroid_node(const Graph& g);

}  // namespace p4u::net
