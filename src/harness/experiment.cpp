#include "harness/experiment.hpp"

#include <memory>

#include "control/segmentation.hpp"

namespace p4u::harness {

ExperimentResult run_single_flow(const net::Graph& g,
                                 const SingleFlowConfig& cfg) {
  RunSpec spec;
  spec.slug = "single_flow";
  spec.family = ScenarioFamily::kSingleFlow;
  spec.graph = std::make_shared<net::Graph>(g);
  spec.old_path = cfg.old_path;
  spec.new_path = cfg.new_path;
  spec.bed = cfg.bed;
  spec.runs = cfg.runs;
  spec.base_seed = cfg.base_seed;
  Campaign campaign;
  campaign.add(std::move(spec));
  return std::move(campaign.run(/*jobs=*/1).front().result);
}

ExperimentResult run_multi_flow(const net::Graph& g,
                                const MultiFlowConfig& cfg) {
  RunSpec spec;
  spec.slug = "multi_flow";
  spec.family = ScenarioFamily::kMultiFlow;
  spec.graph = std::make_shared<net::Graph>(g);
  spec.traffic = cfg.traffic;
  spec.bed = cfg.bed;
  spec.runs = cfg.runs;
  spec.base_seed = cfg.base_seed;
  Campaign campaign;
  campaign.add(std::move(spec));
  return std::move(campaign.run(/*jobs=*/1).front().result);
}

DetourPaths long_detour_paths(const net::Graph& g) {
  // §9.1: old and new paths "intentionally selected to traverse a long
  // distance within the topology and to trigger segmentation". Search all
  // node pairs and their k-shortest loopless paths for the longest
  // (old, new) pair whose segmentation contains a backward segment — the
  // entangled structure DL-P4Update targets (Fig. 1 writ large).
  DetourPaths best;
  double best_score = -1.0;
  for (std::size_t s = 0; s < g.node_count(); ++s) {
    for (std::size_t d = 0; d < g.node_count(); ++d) {
      if (s == d) continue;
      const auto ks = net::k_shortest_paths(
          g, static_cast<net::NodeId>(s), static_cast<net::NodeId>(d), 30,
          net::Metric::kHops);
      for (std::size_t a = 0; a < ks.size(); ++a) {
        for (std::size_t b = 0; b < ks.size(); ++b) {
          if (a == b) continue;
          const auto seg = control::segment_paths(ks[a], ks[b]);
          if (seg.all_forward() || seg.segments.size() < 2) continue;
          // Score the entanglement: inner nodes of backward segments are
          // what DL pre-installs while ez-Segway's in_loop machinery holds
          // them back; independent non-trivial segments give parallelism;
          // backward segments force coordination; length breaks ties.
          std::size_t nontrivial = 0, backward = 0, inner = 0,
                      backward_inner = 0;
          for (const auto& sgm : seg.segments) {
            const bool nt =
                sgm.nodes.size() > 2 ||
                net::next_hop(ks[a], sgm.ingress_gateway) != sgm.egress_gateway;
            if (!nt) continue;
            ++nontrivial;
            inner += sgm.nodes.size() - 2;
            if (!sgm.forward) {
              ++backward;
              backward_inner += sgm.nodes.size() - 2;
            }
          }
          if (backward < 1 || nontrivial < 3) continue;
          // Inner nodes only help where parallelism differs (backward
          // segments); inner nodes of one long forward segment serialize
          // identically in every system and are worth nothing.
          const double score =
              static_cast<double>(backward_inner) * 3000.0 +
              static_cast<double>(nontrivial) * 500.0 +
              static_cast<double>(backward) * 300.0 +
              static_cast<double>(seg.changed_rules) * 10.0 +
              static_cast<double>(ks[a].size() + ks[b].size());
          if (score > best_score) {
            best_score = score;
            best.old_path = ks[a];
            best.new_path = ks[b];
          }
        }
      }
    }
  }
  if (best_score > 0) return best;

  // Fallback for topologies without reversal pairs: the diameter pair's
  // shortest and 2nd-shortest paths.
  net::NodeId best_src = 0, best_dst = 0;
  double far = -1.0;
  for (std::size_t s = 0; s < g.node_count(); ++s) {
    const net::SpTree t =
        net::dijkstra(g, static_cast<net::NodeId>(s), net::Metric::kHops);
    for (std::size_t d = 0; d < g.node_count(); ++d) {
      if (t.dist[d] > far) {
        far = t.dist[d];
        best_src = static_cast<net::NodeId>(s);
        best_dst = static_cast<net::NodeId>(d);
      }
    }
  }
  const auto ks =
      net::k_shortest_paths(g, best_src, best_dst, 2, net::Metric::kHops);
  best.old_path = ks.front();
  best.new_path = ks.size() > 1 ? ks[1] : ks[0];
  return best;
}

}  // namespace p4u::harness
