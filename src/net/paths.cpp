#include "net/paths.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace p4u::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t idx(std::int32_t id) { return static_cast<std::size_t>(id); }

double edge_weight(const Graph& g, LinkId l, Metric metric) {
  if (metric == Metric::kHops) return 1.0;
  return static_cast<double>(g.link(l).latency);
}

/// The one search kernel every query below runs (DESIGN.md §15): Dijkstra
/// over the nodes and links whose ban bit is clear, with its buffers kept
/// for the next search. Yen's spur searches and centroid_node's all-sources
/// sweep reuse one Search per call.
struct Search {
  std::vector<double> dist;
  std::vector<NodeId> parent;
  std::vector<std::pair<double, NodeId>> heap;  // min-heap by (dist, node)
  std::vector<std::uint8_t> node_banned;        // by NodeId
  std::vector<std::uint8_t> link_banned;        // by LinkId

  explicit Search(const Graph& g)
      : dist(g.node_count(), kInf),
        parent(g.node_count(), kNoNode),
        node_banned(g.node_count(), 0),
        link_banned(g.link_count(), 0) {}

  /// Searches from `src`. With `dst` == kNoNode it builds the full tree;
  /// otherwise it stops once no later pop can change dst's path: pops come
  /// in non-decreasing distance d and no edge weighs less than `floor`, so
  /// once dist[dst] <= d + floor neither dst nor a settled node on its
  /// parent chain can still strictly improve.
  void run(const Graph& g, NodeId src, Metric metric, NodeId dst = kNoNode) {
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(parent.begin(), parent.end(), kNoNode);
    heap.clear();
    if (node_banned[idx(src)] != 0) return;
    const double floor = metric == Metric::kHops ? 1.0 : 0.0;
    // A node is pushed only when its distance strictly improves, so the
    // (dist, node) items are distinct and every binary min-heap pops them
    // in one order, which fixes the choice among equal-cost paths.
    const std::greater<> later;
    dist[idx(src)] = 0.0;
    heap.emplace_back(0.0, src);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > dist[idx(u)]) continue;
      for (const Adjacency& adj : g.neighbors(u)) {
        const NodeId v = adj.neighbor;
        if (node_banned[idx(v)] != 0 || link_banned[idx(adj.link)] != 0) {
          continue;
        }
        const double nd = d + edge_weight(g, adj.link, metric);
        if (nd < dist[idx(v)]) {
          dist[idx(v)] = nd;
          parent[idx(v)] = u;
          heap.emplace_back(nd, v);
          std::push_heap(heap.begin(), heap.end(), later);
        }
      }
      if (dst != kNoNode && dist[idx(dst)] <= d + floor) return;
    }
  }

  /// Shortest path src -> dst over the unbanned graph; nullopt if none.
  std::optional<Path> shortest(const Graph& g, NodeId src, NodeId dst,
                               Metric metric) {
    run(g, src, metric, dst);
    if (dist[idx(dst)] == kInf) return std::nullopt;
    Path p;
    for (NodeId cur = dst; cur != kNoNode; cur = parent[idx(cur)]) {
      p.push_back(cur);
      if (cur == src) break;
    }
    std::reverse(p.begin(), p.end());
    if (p.front() != src) return std::nullopt;
    return p;
  }

  /// Sets the node bans; false if `src` or `dst` is among them.
  bool ban_nodes(const std::vector<NodeId>& banned, NodeId src, NodeId dst) {
    for (NodeId b : banned) {
      if (b == src || b == dst) return false;
      node_banned[idx(b)] = 1;
    }
    return true;
  }
};

}  // namespace

SpTree dijkstra(const Graph& g, NodeId src, Metric metric) {
  Search search(g);
  search.run(g, src, metric);
  return SpTree{std::move(search.dist), std::move(search.parent)};
}

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  Metric metric) {
  return Search(g).shortest(g, src, dst, metric);
}

std::vector<std::int32_t> first_hop_ports(const Graph& g, NodeId src) {
  const SpTree t = dijkstra(g, src);
  std::vector<std::int32_t> ports(g.node_count(), -1);
  for (std::size_t dst = 0; dst < g.node_count(); ++dst) {
    if (static_cast<NodeId>(dst) == src || t.dist[dst] == kInf) continue;
    // Climb the parent chain to the child of `src` on the way to dst.
    auto hop = static_cast<NodeId>(dst);
    while (t.parent[static_cast<std::size_t>(hop)] != src) {
      hop = t.parent[static_cast<std::size_t>(hop)];
    }
    ports[dst] = g.port_of(src, hop);
  }
  return ports;
}

std::optional<Path> shortest_path_avoiding(const Graph& g, NodeId src,
                                           NodeId dst,
                                           const std::vector<NodeId>& banned,
                                           Metric metric) {
  Search search(g);
  if (!search.ban_nodes(banned, src, dst)) return std::nullopt;
  return search.shortest(g, src, dst, metric);
}

std::optional<Path> shortest_path_avoiding_elements(
    const Graph& g, NodeId src, NodeId dst,
    const std::vector<LinkId>& banned_links,
    const std::vector<NodeId>& banned_nodes, Metric metric) {
  Search search(g);
  if (!search.ban_nodes(banned_nodes, src, dst)) return std::nullopt;
  for (LinkId l : banned_links) {
    static_cast<void>(g.link(l));  // std::out_of_range on an unknown id
    search.link_banned[idx(l)] = 1;
  }
  return search.shortest(g, src, dst, metric);
}

double path_cost(const Graph& g, const Path& p, Metric metric) {
  double cost = 0.0;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const auto l = g.find_link(p[i], p[i + 1]);
    if (!l) throw std::invalid_argument("path_cost: non-adjacent hop");
    cost += edge_weight(g, *l, metric);
  }
  return cost;
}

bool valid_simple_path(const Graph& g, const Path& p) {
  if (p.empty()) return false;
  std::set<NodeId> seen;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!seen.insert(p[i]).second) return false;
    if (i + 1 < p.size() && !g.find_link(p[i], p[i + 1])) return false;
  }
  return true;
}

std::vector<Path> k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                   std::size_t k, Metric metric) {
  std::vector<Path> result;
  Search search(g);
  auto first = search.shortest(g, src, dst, metric);
  if (!first) return result;
  result.push_back(*first);

  // Candidate set ordered by (cost, path) for deterministic ties.
  auto cmp = [](const std::pair<double, Path>& a,
                const std::pair<double, Path>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  };
  std::set<std::pair<double, Path>, decltype(cmp)> candidates(cmp);
  std::vector<LinkId> spur_bans;

  while (result.size() < k) {
    const Path& prev = result.back();
    // Spur from every node of the previous path except the last; the root
    // prev[0..i] keeps all its nodes but the spur node banned.
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const auto root_end = prev.begin() + static_cast<long>(i) + 1;
      if (i > 0) search.node_banned[idx(prev[i - 1])] = 1;

      // Ban the link each found path sharing this root leaves the spur by.
      // Links are never parallel, so this bans exactly both directed node
      // pairs (p[i], p[i+1]) and (p[i+1], p[i]).
      for (const Path& p : result) {
        if (p.size() > i + 1 && std::equal(prev.begin(), root_end, p.begin())) {
          const LinkId l = *g.find_link(p[i], p[i + 1]);
          search.link_banned[idx(l)] = 1;
          spur_bans.push_back(l);
        }
      }
      auto spur_path = search.shortest(g, spur, dst, metric);
      for (LinkId l : spur_bans) search.link_banned[idx(l)] = 0;
      spur_bans.clear();
      if (!spur_path) continue;

      Path total(prev.begin(), root_end);
      total.insert(total.end(), spur_path->begin() + 1, spur_path->end());
      if (!valid_simple_path(g, total)) continue;
      if (std::find(result.begin(), result.end(), total) != result.end()) {
        continue;
      }
      candidates.insert({path_cost(g, total, metric), total});
    }
    for (NodeId n : prev) search.node_banned[idx(n)] = 0;
    if (candidates.empty()) break;
    result.push_back(candidates.begin()->second);
    candidates.erase(candidates.begin());
  }
  return result;
}

NodeId centroid_node(const Graph& g) {
  NodeId best = 0;
  double best_worst = kInf;
  Search search(g);
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    search.run(g, static_cast<NodeId>(n), Metric::kLatency);
    double worst = 0.0;
    for (double d : search.dist) worst = std::max(worst, d);
    if (worst < best_worst) {
      best_worst = worst;
      best = static_cast<NodeId>(n);
    }
  }
  return best;
}

}  // namespace p4u::net
