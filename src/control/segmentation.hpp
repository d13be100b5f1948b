// Path segmentation (§3.2, §7.5).
//
// Gateway nodes G are the nodes shared by the old path P_o and the new path
// P_n. Segments are the stretches of P_n between consecutive gateways. A
// segment whose egress gateway has a *smaller* old distance than its ingress
// gateway moves traffic closer to the egress ("forward"); it can update
// independently. Otherwise it is "backward" and must wait for downstream
// segments (DL-P4Update resolves this via old-distance inheritance;
// ez-Segway calls the same classes not_in_loop / in_loop).
#pragma once

#include <vector>

#include "net/paths.hpp"
#include "p4rt/packet.hpp"

namespace p4u::control {

struct Segment {
  net::NodeId ingress_gateway = net::kNoNode;  // closer to flow ingress (P_n)
  net::NodeId egress_gateway = net::kNoNode;   // closer to flow egress (P_n)
  std::vector<net::NodeId> nodes;  // ingress_gateway .. egress_gateway, in
                                   // P_n order (inclusive of both gateways)
  bool forward = false;            // D_o(egress_gw) < D_o(ingress_gw)
};

struct Segmentation {
  std::vector<net::NodeId> gateways;  // in P_n order, ingress .. egress
  std::vector<Segment> segments;      // in P_n order, upstream first
  [[nodiscard]] bool all_forward() const;
  /// Number of nodes whose forwarding rule actually changes (old successor
  /// differs from new successor) — §7.5's "nodes to be updated".
  std::size_t changed_rules = 0;
};

/// Computes gateways, segments and forward/backward classes for one flow
/// update. Both paths must share first (ingress) and last (egress) nodes.
Segmentation segment_paths(const net::Path& old_path, const net::Path& new_path);

/// segment_paths into `out`, reusing its buffers: a controller that keeps
/// one Segmentation allocates only when an update has more segments, or
/// longer ones, than any before it.
void segment_paths_into(Segmentation& out, const net::Path& old_path,
                        const net::Path& new_path);

/// §7.5 deployment rule: single-layer when the update only has forward
/// segments and installs new rules on at most `sl_node_budget` nodes;
/// dual-layer otherwise.
p4rt::UpdateType choose_update_type(const Segmentation& seg,
                                    std::size_t sl_node_budget = 5);

}  // namespace p4u::control
