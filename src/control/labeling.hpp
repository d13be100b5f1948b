// Distance labeling (§3): the control plane computes, for every node on the
// new path P_n, the hop distance D_n to the egress and the ports that the
// UIM carries — the new egress port and the "child" port (toward the
// predecessor on P_n) used as the clone session for UNMs.
#pragma once

#include <vector>

#include "net/flow.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "p4rt/packet.hpp"

namespace p4u::control {

struct NodeLabel {
  net::NodeId node = net::kNoNode;
  p4rt::Distance new_distance = 0;      // D_n: hops to egress along P_n
  std::int32_t egress_port_updated = -1;  // port toward successor on P_n
                                          // (kLocalPort at the flow egress)
  std::int32_t child_port = -1;         // port toward predecessor (-1 at
                                        // the flow ingress)
  bool is_flow_egress = false;
  bool is_flow_ingress = false;
};

/// Labels every node of `new_path` (ingress first). Throws on paths that are
/// not valid simple paths of `g` — the controller never emits labels for a
/// malformed path; inconsistent labels in the experiments are crafted by
/// corrupting valid ones.
std::vector<NodeLabel> label_path(const net::Graph& g, const net::Path& new_path);

/// label_path into `out`, reusing its capacity.
void label_path_into(std::vector<NodeLabel>& out, const net::Graph& g,
                     const net::Path& new_path);

/// Hop distance of `node` to the path's last element, or kNoDistance if the
/// node is not on the path.
p4rt::Distance distance_on_path(const net::Path& p, net::NodeId node);

}  // namespace p4u::control
