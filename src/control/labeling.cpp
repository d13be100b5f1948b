#include "control/labeling.hpp"

#include <stdexcept>

#include "p4rt/switch_device.hpp"

namespace p4u::control {

std::vector<NodeLabel> label_path(const net::Graph& g,
                                  const net::Path& new_path) {
  std::vector<NodeLabel> labels;
  label_path_into(labels, g, new_path);
  return labels;
}

void label_path_into(std::vector<NodeLabel>& labels, const net::Graph& g,
                     const net::Path& new_path) {
  // Inline simple-path validation (allocation-free; controller hot path).
  if (new_path.size() < 2) {
    throw std::invalid_argument("label_path: not a simple path");
  }
  for (std::size_t i = 0; i < new_path.size(); ++i) {
    for (std::size_t j = i + 1; j < new_path.size(); ++j) {
      if (new_path[i] == new_path[j]) {
        throw std::invalid_argument("label_path: repeated node");
      }
    }
    if (i + 1 < new_path.size() &&
        g.port_of(new_path[i], new_path[i + 1]) < 0) {
      throw std::invalid_argument("label_path: non-adjacent hop");
    }
  }
  labels.assign(new_path.size(), NodeLabel{});
  const auto n = new_path.size();
  for (std::size_t i = 0; i < n; ++i) {
    NodeLabel& l = labels[i];
    l.node = new_path[i];
    l.new_distance = static_cast<p4rt::Distance>(n - 1 - i);
    l.is_flow_ingress = (i == 0);
    l.is_flow_egress = (i + 1 == n);
    l.egress_port_updated =
        l.is_flow_egress ? p4rt::SwitchDevice::kLocalPort
                         : g.port_of(new_path[i], new_path[i + 1]);
    l.child_port = l.is_flow_ingress
                       ? -1
                       : g.port_of(new_path[i], new_path[i - 1]);
  }
}

p4rt::Distance distance_on_path(const net::Path& p, net::NodeId node) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == node) return static_cast<p4rt::Distance>(p.size() - 1 - i);
  }
  return p4rt::kNoDistance;
}

}  // namespace p4u::control
