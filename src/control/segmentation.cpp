#include "control/segmentation.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "control/labeling.hpp"

namespace p4u::control {

bool Segmentation::all_forward() const {
  return std::all_of(segments.begin(), segments.end(),
                     [](const Segment& s) { return s.forward; });
}

Segmentation segment_paths(const net::Path& old_path,
                           const net::Path& new_path) {
  Segmentation out;
  segment_paths_into(out, old_path, new_path);
  return out;
}

void segment_paths_into(Segmentation& out, const net::Path& old_path,
                        const net::Path& new_path) {
  if (old_path.size() < 2 || new_path.size() < 2) {
    throw std::invalid_argument("segment_paths: degenerate path");
  }
  if (old_path.front() != new_path.front() ||
      old_path.back() != new_path.back()) {
    throw std::invalid_argument("segment_paths: endpoints differ");
  }

  out.gateways.clear();
  out.gateways.reserve(new_path.size());  // no-op once the buffer is warm
  out.changed_rules = 0;
  for (net::NodeId n : new_path) {
    // Linear membership: paths are short; avoids set allocations on the
    // controller's hot path (Fig. 8 measures this).
    if (std::find(old_path.begin(), old_path.end(), n) != old_path.end()) {
      out.gateways.push_back(n);
    }
  }

  // Segments between consecutive gateways along P_n. Consecutive gateways
  // that are adjacent on P_n with an unchanged next-hop produce no work, but
  // they still delimit a (possibly trivial) segment; trivial segments with
  // identical old/new next hops are skipped.
  std::size_t pos = 0;
  std::size_t count = 0;
  for (std::size_t gi = 0; gi + 1 < out.gateways.size(); ++gi) {
    const net::NodeId from = out.gateways[gi];
    const net::NodeId to = out.gateways[gi + 1];
    // Locate `from` at/after pos in new_path.
    while (new_path[pos] != from) ++pos;
    std::size_t end = pos + 1;
    while (new_path[end] != to) ++end;

    // Segments past the previous call's count are new; the rest reuse
    // their node buffers.
    if (count == out.segments.size()) out.segments.emplace_back();
    Segment& s = out.segments[count++];
    s.ingress_gateway = from;
    s.egress_gateway = to;
    s.nodes.assign(new_path.begin() + static_cast<long>(pos),
                   new_path.begin() + static_cast<long>(end) + 1);
    const p4rt::Distance d_from = distance_on_path(old_path, from);
    const p4rt::Distance d_to = distance_on_path(old_path, to);
    s.forward = d_to < d_from;
    pos = end;
  }
  out.segments.resize(count);

  // Count rule changes: a node's rule changes if its successor on P_n
  // differs from its successor on P_o (or it had none).
  for (std::size_t i = 0; i + 1 < new_path.size(); ++i) {
    const net::NodeId n = new_path[i];
    const net::NodeId new_succ = new_path[i + 1];
    net::NodeId old_succ = net::kNoNode;
    for (std::size_t j = 0; j + 1 < old_path.size(); ++j) {
      if (old_path[j] == n) {
        old_succ = old_path[j + 1];
        break;
      }
    }
    if (old_succ != new_succ) ++out.changed_rules;
  }
}

p4rt::UpdateType choose_update_type(const Segmentation& seg,
                                    std::size_t sl_node_budget) {
  if (seg.all_forward() && seg.changed_rules <= sl_node_budget) {
    return p4rt::UpdateType::kSingleLayer;
  }
  return p4rt::UpdateType::kDualLayer;
}

}  // namespace p4u::control
