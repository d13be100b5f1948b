#include "net/paths.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

namespace p4u::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double edge_weight(const Graph& g, LinkId l, Metric metric) {
  if (metric == Metric::kHops) return 1.0;
  return static_cast<double>(g.link(l).latency);
}

/// Dijkstra that can mask out nodes/links (needed by Yen's spur searches).
SpTree dijkstra_masked(const Graph& g, NodeId src, Metric metric,
                       const std::vector<bool>* node_banned,
                       const std::set<std::pair<NodeId, NodeId>>* edge_banned) {
  const std::size_t n = g.node_count();
  SpTree t;
  t.dist.assign(n, kInf);
  t.parent.assign(n, kNoNode);
  if (node_banned && (*node_banned)[static_cast<std::size_t>(src)]) return t;

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  t.dist[static_cast<std::size_t>(src)] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > t.dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& adj : g.neighbors(u)) {
      const NodeId v = adj.neighbor;
      if (node_banned && (*node_banned)[static_cast<std::size_t>(v)]) continue;
      if (edge_banned && (edge_banned->count({u, v}) != 0)) continue;
      const double nd = d + edge_weight(g, adj.link, metric);
      if (nd < t.dist[static_cast<std::size_t>(v)]) {
        t.dist[static_cast<std::size_t>(v)] = nd;
        t.parent[static_cast<std::size_t>(v)] = u;
        pq.push({nd, v});
      }
    }
  }
  return t;
}

std::optional<Path> extract_path(const SpTree& t, NodeId src, NodeId dst) {
  if (t.dist[static_cast<std::size_t>(dst)] == kInf) return std::nullopt;
  Path p;
  for (NodeId cur = dst; cur != kNoNode; cur = t.parent[static_cast<std::size_t>(cur)]) {
    p.push_back(cur);
    if (cur == src) break;
  }
  std::reverse(p.begin(), p.end());
  if (p.front() != src) return std::nullopt;
  return p;
}

}  // namespace

SpTree dijkstra(const Graph& g, NodeId src, Metric metric) {
  return dijkstra_masked(g, src, metric, nullptr, nullptr);
}

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  Metric metric) {
  const SpTree t = dijkstra(g, src, metric);
  return extract_path(t, src, dst);
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
  std::vector<bool> mask(g.node_count(), false);
  for (NodeId b : banned) {
    if (b == src || b == dst) return std::nullopt;
    mask[static_cast<std::size_t>(b)] = true;
  }
  const SpTree t = dijkstra_masked(g, src, metric, &mask, nullptr);
  return extract_path(t, src, dst);
}

std::optional<Path> shortest_path_avoiding_elements(
    const Graph& g, NodeId src, NodeId dst,
    const std::vector<LinkId>& banned_links,
    const std::vector<NodeId>& banned_nodes, Metric metric) {
  std::vector<bool> node_mask(g.node_count(), false);
  for (NodeId b : banned_nodes) {
    if (b == src || b == dst) return std::nullopt;
    node_mask[static_cast<std::size_t>(b)] = true;
  }
  std::set<std::pair<NodeId, NodeId>> edge_banned;
  for (LinkId l : banned_links) {
    const Link& link = g.link(l);
    edge_banned.insert({link.a, link.b});
    edge_banned.insert({link.b, link.a});
  }
  const SpTree t = dijkstra_masked(g, src, metric, &node_mask, &edge_banned);
  return extract_path(t, src, dst);
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
  auto first = shortest_path(g, src, dst, metric);
  if (!first) return result;
  result.push_back(*first);

  // Candidate set ordered by (cost, path) for deterministic ties.
  auto cmp = [](const std::pair<double, Path>& a,
                const std::pair<double, Path>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  };
  std::set<std::pair<double, Path>, decltype(cmp)> candidates(cmp);

  while (result.size() < k) {
    const Path& prev = result.back();
    // Spur from every node of the previous path except the last.
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const Path root(prev.begin(), prev.begin() + static_cast<long>(i) + 1);

      std::set<std::pair<NodeId, NodeId>> edge_banned;
      for (const Path& p : result) {
        if (p.size() > i &&
            std::equal(root.begin(), root.end(), p.begin())) {
          if (p.size() > i + 1) {
            edge_banned.insert({p[i], p[i + 1]});
            edge_banned.insert({p[i + 1], p[i]});
          }
        }
      }
      std::vector<bool> node_banned(g.node_count(), false);
      for (std::size_t j = 0; j < i; ++j) {
        node_banned[static_cast<std::size_t>(root[j])] = true;
      }

      const SpTree t =
          dijkstra_masked(g, spur, metric, &node_banned, &edge_banned);
      auto spur_path = extract_path(t, spur, dst);
      if (!spur_path) continue;

      Path total = root;
      total.insert(total.end(), spur_path->begin() + 1, spur_path->end());
      if (!valid_simple_path(g, total)) continue;
      if (std::find(result.begin(), result.end(), total) != result.end()) {
        continue;
      }
      candidates.insert({path_cost(g, total, metric), total});
    }
    if (candidates.empty()) break;
    result.push_back(candidates.begin()->second);
    candidates.erase(candidates.begin());
  }
  return result;
}

NodeId centroid_node(const Graph& g) {
  NodeId best = 0;
  double best_worst = kInf;
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    const SpTree t = dijkstra(g, static_cast<NodeId>(n), Metric::kLatency);
    double worst = 0.0;
    for (double d : t.dist) worst = std::max(worst, d);
    if (worst < best_worst) {
      best_worst = worst;
      best = static_cast<NodeId>(n);
    }
  }
  return best;
}

}  // namespace p4u::net
