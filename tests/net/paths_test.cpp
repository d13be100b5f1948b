#include "net/paths.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "net/fattree.hpp"
#include "net/topologies.hpp"
#include "net/topology_zoo.hpp"

namespace p4u::net {
namespace {

/// A 2x3 grid:
///   0 - 1 - 2
///   |   |   |
///   3 - 4 - 5
Graph grid() {
  Graph g;
  for (int i = 0; i < 6; ++i) g.add_node("n" + std::to_string(i));
  g.add_link(0, 1, sim::milliseconds(1));
  g.add_link(1, 2, sim::milliseconds(1));
  g.add_link(3, 4, sim::milliseconds(1));
  g.add_link(4, 5, sim::milliseconds(1));
  g.add_link(0, 3, sim::milliseconds(1));
  g.add_link(1, 4, sim::milliseconds(1));
  g.add_link(2, 5, sim::milliseconds(1));
  return g;
}

TEST(DijkstraTest, ShortestPathByHops) {
  const Graph g = grid();
  const auto p = shortest_path(g, 0, 5, Metric::kHops);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size(), 4u);
  EXPECT_EQ(p->front(), 0);
  EXPECT_EQ(p->back(), 5);
  EXPECT_TRUE(valid_simple_path(g, *p));
}

TEST(DijkstraTest, LatencyMetricPrefersFastEdges) {
  Graph g;
  for (int i = 0; i < 3; ++i) g.add_node("n");
  g.add_link(0, 2, sim::milliseconds(10));               // direct, slow
  g.add_link(0, 1, sim::milliseconds(1));
  g.add_link(1, 2, sim::milliseconds(1));                // detour, fast
  const auto p = shortest_path(g, 0, 2, Metric::kLatency);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Path{0, 1, 2}));
  EXPECT_EQ(*shortest_path(g, 0, 2, Metric::kHops), (Path{0, 2}));
}

TEST(DijkstraTest, UnreachableReturnsNullopt) {
  Graph g;
  g.add_node("a");
  g.add_node("b");
  EXPECT_FALSE(shortest_path(g, 0, 1).has_value());
}

TEST(KShortestTest, ProducesDistinctLooplessPathsInOrder) {
  const Graph g = grid();
  const auto ks = k_shortest_paths(g, 0, 5, 4, Metric::kHops);
  ASSERT_GE(ks.size(), 3u);
  for (const auto& p : ks) {
    EXPECT_TRUE(valid_simple_path(g, p));
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), 5);
  }
  for (std::size_t i = 1; i < ks.size(); ++i) {
    EXPECT_NE(ks[i - 1], ks[i]);
    EXPECT_LE(path_cost(g, ks[i - 1], Metric::kHops),
              path_cost(g, ks[i], Metric::kHops));
  }
}

TEST(KShortestTest, SecondShortestDiffersFromFirst) {
  const Graph g = grid();
  const auto ks = k_shortest_paths(g, 0, 2, 2, Metric::kHops);
  ASSERT_EQ(ks.size(), 2u);
  EXPECT_EQ(ks[0].size(), 3u);   // 0-1-2
  EXPECT_EQ(ks[1].size(), 5u);   // 0-3-4-5-2 (or symmetric)
}

TEST(KShortestTest, ExhaustsWhenFewPathsExist) {
  Graph g;
  g.add_node("a");
  g.add_node("b");
  g.add_link(0, 1, 1);
  const auto ks = k_shortest_paths(g, 0, 1, 5);
  EXPECT_EQ(ks.size(), 1u);
}

TEST(PathCostTest, SumsEdgeWeights) {
  const Graph g = grid();
  EXPECT_DOUBLE_EQ(path_cost(g, {0, 1, 4}, Metric::kHops), 2.0);
  EXPECT_DOUBLE_EQ(path_cost(g, {0, 1, 4}, Metric::kLatency),
                   static_cast<double>(sim::milliseconds(2)));
  EXPECT_THROW(path_cost(g, {0, 5}, Metric::kHops), std::invalid_argument);
}

TEST(ValidSimplePathTest, RejectsRepeatsAndGaps) {
  const Graph g = grid();
  EXPECT_TRUE(valid_simple_path(g, {0, 1, 2}));
  EXPECT_FALSE(valid_simple_path(g, {0, 1, 0}));   // repeat
  EXPECT_FALSE(valid_simple_path(g, {0, 2}));      // not adjacent
  EXPECT_FALSE(valid_simple_path(g, {}));          // empty
}

TEST(FirstHopPortsTest, MatchShortestPathFirstHops) {
  const std::vector<std::pair<const char*, Graph>> graphs = {
      {"fig1", fig1_topology().graph},
      {"fat-tree(4)", fattree_topology(4).graph},
      {"fat-tree(8)", fattree_topology(8).graph},
      {"B4", b4_topology()},
      {"Chinanet", chinanet_topology()},
  };
  for (const auto& [name, g] : graphs) {
    for (const Metric metric : {Metric::kLatency, Metric::kHops}) {
      for (std::size_t s = 0; s < g.node_count(); ++s) {
        const auto src = static_cast<NodeId>(s);
        const std::vector<std::int32_t> ports = first_hop_ports(g, src);
        const SpTree tree = dijkstra(g, src, metric);
        ASSERT_EQ(ports.size(), g.node_count()) << name;
        EXPECT_EQ(ports[s], -1) << name << " src " << s;
        for (std::size_t d = 0; d < g.node_count(); ++d) {
          if (d == s) continue;
          const auto path =
              shortest_path(g, src, static_cast<NodeId>(d), metric);
          ASSERT_TRUE(path.has_value()) << name;
          // The single-destination search must return the path the full
          // tree holds, whatever point it stops at.
          Path chain;
          for (auto n = static_cast<NodeId>(d); n != kNoNode;
               n = tree.parent[static_cast<std::size_t>(n)]) {
            chain.insert(chain.begin(), n);
          }
          EXPECT_EQ(*path, chain) << name << " " << s << " -> " << d;
          // first_hop_ports reads the latency tree.
          if (metric == Metric::kLatency) {
            EXPECT_EQ(ports[d], g.port_of(src, (*path)[1]))
                << name << " " << s << " -> " << d;
          }
        }
      }
    }
  }
}

TEST(FirstHopPortsTest, UnreachableDestinationsGetNoPort) {
  Graph g;
  for (int i = 0; i < 3; ++i) g.add_node("n");
  g.add_link(0, 1, sim::milliseconds(1));  // node 2 is isolated
  EXPECT_EQ(first_hop_ports(g, 0), (std::vector<std::int32_t>{-1, 0, -1}));
  EXPECT_EQ(first_hop_ports(g, 2), (std::vector<std::int32_t>{-1, -1, -1}));
}

/// True if `p` crosses the a-b link in either direction.
bool crosses(const Path& p, NodeId a, NodeId b) {
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if ((p[i] == a && p[i + 1] == b) || (p[i] == b && p[i + 1] == a)) {
      return true;
    }
  }
  return false;
}

TEST(AvoidingElementsTest, BannedLinkIsAvoidedInBothDirections) {
  const Graph g = grid();
  const LinkId l01 = *g.find_link(0, 1);
  for (const auto& [s, d] : {std::pair<NodeId, NodeId>{0, 2}, {2, 0},
                             {0, 1}, {1, 0}}) {
    const auto p = shortest_path_avoiding_elements(g, s, d, {l01}, {},
                                                   Metric::kHops);
    ASSERT_TRUE(p.has_value()) << s << " -> " << d;
    EXPECT_TRUE(valid_simple_path(g, *p));
    EXPECT_EQ(p->front(), s);
    EXPECT_EQ(p->back(), d);
    EXPECT_FALSE(crosses(*p, 0, 1)) << s << " -> " << d;
  }
  // 0 -> 1 around the dead link is the three-hop detour.
  EXPECT_EQ(*shortest_path_avoiding_elements(g, 0, 1, {l01}, {}),
            (Path{0, 3, 4, 1}));
}

TEST(AvoidingElementsTest, BannedNodeIsAvoided) {
  const Graph g = grid();
  EXPECT_EQ(*shortest_path_avoiding_elements(g, 0, 2, {}, {1}),
            (Path{0, 3, 4, 5, 2}));
  EXPECT_EQ(*shortest_path_avoiding_elements(g, 2, 0, {}, {1}),
            (Path{2, 5, 4, 3, 0}));
}

TEST(AvoidingElementsTest, BannedEndpointReturnsNullopt) {
  const Graph g = grid();
  EXPECT_FALSE(shortest_path_avoiding_elements(g, 0, 5, {}, {0}).has_value());
  EXPECT_FALSE(shortest_path_avoiding_elements(g, 0, 5, {}, {5}).has_value());
}

TEST(AvoidingElementsTest, DisconnectingFaultSetReturnsNullopt) {
  const Graph g = grid();
  // Both links of node 0 down.
  EXPECT_FALSE(shortest_path_avoiding_elements(
                   g, 0, 5, {*g.find_link(0, 1), *g.find_link(0, 3)}, {})
                   .has_value());
  // The middle column crashed: {0, 3} cannot reach {2, 5}.
  EXPECT_FALSE(
      shortest_path_avoiding_elements(g, 3, 2, {}, {1, 4}).has_value());
  // A dead link plus a crashed switch that together cut the grid.
  EXPECT_FALSE(shortest_path_avoiding_elements(g, 0, 2, {*g.find_link(1, 2)},
                                               {4})
                   .has_value());
}

TEST(AvoidingElementsTest, OutOfRangeLinkThrows) {
  const Graph g = grid();
  const auto past_end = static_cast<LinkId>(g.link_count());
  EXPECT_THROW(shortest_path_avoiding_elements(g, 0, 5, {past_end}, {}),
               std::out_of_range);
  EXPECT_THROW(shortest_path_avoiding_elements(g, 0, 5, {kNoLink}, {}),
               std::out_of_range);
}

TEST(CentroidTest, PicksMinimaxNode) {
  // Chain 0-1-2-3-4: centroid is node 2.
  Graph g;
  for (int i = 0; i < 5; ++i) g.add_node("n");
  for (int i = 0; i < 4; ++i) g.add_link(i, i + 1, sim::milliseconds(1));
  EXPECT_EQ(centroid_node(g), 2);
}

}  // namespace
}  // namespace p4u::net
