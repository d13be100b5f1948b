// Golden paths: every ordered node pair's k_shortest_paths result, folded
// into one FNV-1a-64 digest per (graph set, k, metric), must match the
// digest captured before the search kernel was last rewritten.
//
// Every workload roll, fig7's long-detour choice, the scale and gravity
// campaigns and recovery's repair paths read their routes off these
// functions, so a path that moves here moves every downstream report. The
// cases cover the rolls' fat-tree(8) values, the four Topology-Zoo WANs
// and random graphs whose 0-3 ns latencies make zero weights and cost ties
// common, where a different heap pop order would pick a different path.
//
// The digests must never be re-pinned to make a kernel change pass: a
// mismatch means some caller now gets a different path.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topology_zoo.hpp"
#include "sim/random.hpp"

namespace p4u::net {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xffu;
    h *= kFnvPrime;
    v >>= 8;
  }
}

void mix_path(std::uint64_t& h, const Path& p) {
  mix_u64(h, p.size());
  for (NodeId n : p) mix_u64(h, static_cast<std::uint64_t>(n));
}

/// Folds k_shortest_paths(s, d, k, metric) of every ordered pair s != d.
void mix_all_pairs(std::uint64_t& h, const Graph& g, std::size_t k,
                   Metric metric) {
  for (std::size_t s = 0; s < g.node_count(); ++s) {
    for (std::size_t d = 0; d < g.node_count(); ++d) {
      if (s == d) continue;
      const std::vector<Path> ks = k_shortest_paths(
          g, static_cast<NodeId>(s), static_cast<NodeId>(d), k, metric);
      mix_u64(h, ks.size());
      for (const Path& p : ks) mix_path(h, p);
    }
  }
}

std::uint64_t all_pairs_digest(const Graph& g, std::size_t k, Metric metric) {
  std::uint64_t h = kFnvOffset;
  mix_all_pairs(h, g, k, metric);
  return h;
}

const char* metric_name(Metric m) {
  return m == Metric::kHops ? "hops" : "latency";
}

/// A connected graph of 6-25 nodes: a random spanning tree plus up to 2n
/// random chords, each link 0-3 ns long.
Graph random_graph(std::uint64_t seed) {
  sim::Rng rng(seed);
  const std::uint64_t n = 6 + rng.uniform(20);
  Graph g;
  for (std::uint64_t i = 0; i < n; ++i) g.add_node("r" + std::to_string(i));
  for (std::uint64_t i = 1; i < n; ++i) {
    const auto parent = static_cast<NodeId>(rng.uniform(i));
    const auto latency = static_cast<sim::Duration>(rng.uniform(4));
    g.add_link(parent, static_cast<NodeId>(i), latency);
  }
  const std::uint64_t chords = rng.uniform(2 * n);
  for (std::uint64_t c = 0; c < chords; ++c) {
    const auto a = static_cast<NodeId>(rng.uniform(n));
    const auto b = static_cast<NodeId>(rng.uniform(n));
    const auto latency = static_cast<sim::Duration>(rng.uniform(4));
    if (a == b || g.find_link(a, b)) continue;
    g.add_link(a, b, latency);
  }
  return g;
}

struct ZooGraph {
  const char* name;
  Graph (*build)();
};

constexpr ZooGraph kZoo[] = {
    {"B4", b4_topology},
    {"Internet2", internet2_topology},
    {"AttMpls", attmpls_topology},
    {"Chinanet", chinanet_topology},
};

struct GoldenCase {
  const char* graph;
  std::size_t k;
  Metric metric;
  std::uint64_t digest;
};

// All digests were captured before the one-kernel search replaced
// dijkstra_masked.
constexpr GoldenCase kFatTreeGolden[] = {
    {"fat-tree(8)", 2, Metric::kHops, 0x4142b01c1ec45f25ull},
    {"fat-tree(8)", 2, Metric::kLatency, 0x4142b01c1ec45f25ull},
    {"fat-tree(8)", 3, Metric::kHops, 0xc7c8d7e3cb1b4ca5ull},
    {"fat-tree(8)", 3, Metric::kLatency, 0xc7c8d7e3cb1b4ca5ull},
};

TEST(PathsGoldenTest, FatTree8AllPairs) {
  const Graph g = fattree_topology(8).graph;
  for (const GoldenCase& c : kFatTreeGolden) {
    const std::uint64_t got = all_pairs_digest(g, c.k, c.metric);
    EXPECT_EQ(got, c.digest) << c.graph << " k=" << c.k << " "
                             << metric_name(c.metric) << ": got 0x"
                             << std::hex << got;
  }
}

constexpr GoldenCase kZooGolden[] = {
    {"B4", 2, Metric::kHops, 0x24a950faa1a78ac3ull},
    {"B4", 2, Metric::kLatency, 0x6d697d39f166005ull},
    {"B4", 3, Metric::kHops, 0x9e67c5eec914086full},
    {"B4", 3, Metric::kLatency, 0x57560371bd3d6ee5ull},
    {"B4", 5, Metric::kHops, 0xfb7a6b931457dde0ull},
    {"B4", 5, Metric::kLatency, 0xa8b488e1d7d40b65ull},
    {"Internet2", 2, Metric::kHops, 0x1151ebad98c057c8ull},
    {"Internet2", 2, Metric::kLatency, 0x58f8ca0df9062205ull},
    {"Internet2", 3, Metric::kHops, 0x3436b253574e9386ull},
    {"Internet2", 3, Metric::kLatency, 0xcd49ef80fb916de5ull},
    {"Internet2", 5, Metric::kHops, 0x82b40055cabccf21ull},
    {"Internet2", 5, Metric::kLatency, 0x11cacb83297fb9c5ull},
    {"AttMpls", 2, Metric::kHops, 0xd735b7cfade2e659ull},
    {"AttMpls", 2, Metric::kLatency, 0x463901ac13d1f645ull},
    {"AttMpls", 3, Metric::kHops, 0xfdef146bf2266d1eull},
    {"AttMpls", 3, Metric::kLatency, 0x9d7a10d2bcedb4c5ull},
    {"AttMpls", 5, Metric::kHops, 0x30787537773df0d1ull},
    {"AttMpls", 5, Metric::kLatency, 0x9134074ee6c8b4c5ull},
    {"Chinanet", 2, Metric::kHops, 0x2751138a06dc5fe6ull},
    {"Chinanet", 2, Metric::kLatency, 0x300f519913d8b125ull},
    {"Chinanet", 3, Metric::kHops, 0xe4a44665f8083ae5ull},
    {"Chinanet", 3, Metric::kLatency, 0x8caef05de491085ull},
    {"Chinanet", 5, Metric::kHops, 0xf07615b29f85f013ull},
    {"Chinanet", 5, Metric::kLatency, 0xc15168578028f0a5ull},
};

TEST(PathsGoldenTest, TopologyZooAllPairs) {
  for (const ZooGraph& zoo : kZoo) {
    const Graph g = zoo.build();
    for (const GoldenCase& c : kZooGolden) {
      if (std::string(c.graph) != zoo.name) continue;
      const std::uint64_t got = all_pairs_digest(g, c.k, c.metric);
      EXPECT_EQ(got, c.digest) << c.graph << " k=" << c.k << " "
                               << metric_name(c.metric) << ": got 0x"
                               << std::hex << got;
    }
  }
}

constexpr std::uint64_t kRandomGraphs = 40;

constexpr GoldenCase kRandomGolden[] = {
    {"random", 2, Metric::kHops, 0x265c1bd06eb380f9ull},
    {"random", 2, Metric::kLatency, 0x34d7cd5bc5723bd3ull},
    {"random", 4, Metric::kHops, 0xc7ceb82186dd394eull},
    {"random", 4, Metric::kLatency, 0xe451f7357ef0aeeull},
};

TEST(PathsGoldenTest, RandomGraphsWithZeroWeightsAndTies) {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= kRandomGraphs; ++seed) {
    graphs.push_back(random_graph(seed));
    ASSERT_TRUE(graphs.back().connected()) << "seed " << seed;
  }
  for (const GoldenCase& c : kRandomGolden) {
    std::uint64_t got = kFnvOffset;
    for (const Graph& g : graphs) {
      mix_u64(got, g.node_count());
      mix_all_pairs(got, g, c.k, c.metric);
    }
    EXPECT_EQ(got, c.digest) << kRandomGraphs << " random graphs k=" << c.k
                             << " " << metric_name(c.metric) << ": got 0x"
                             << std::hex << got;
  }
}

// fig7's and the SL/DL ablation's path choice (k = 30 per pair).
constexpr std::uint64_t kLongDetourGolden[] = {
    0x2a3a419faa578221ull,  // B4
    0xc6f2b295915df965ull,  // Internet2
    0xa297e384809b71c6ull,  // AttMpls
    0xb7e9a2bd725ca46full,  // Chinanet
};

TEST(PathsGoldenTest, LongDetourPathsOnTopologyZoo) {
  for (std::size_t i = 0; i < std::size(kZoo); ++i) {
    const harness::DetourPaths paths =
        harness::long_detour_paths(kZoo[i].build());
    std::uint64_t got = kFnvOffset;
    mix_path(got, paths.old_path);
    mix_path(got, paths.new_path);
    EXPECT_EQ(got, kLongDetourGolden[i])
        << kZoo[i].name << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace p4u::net
