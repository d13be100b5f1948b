#include "harness/invariant_monitor.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace p4u::harness {

std::vector<net::FlowId> InvariantMonitor::watched_ids_sorted() const {
  std::vector<net::FlowId> ids;
  ids.reserve(flows_.size());
  // p4u-detlint: allow(unordered-iter) key harvest only; ids are sorted before use
  for (const auto& [id, watched] : flows_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void InvariantMonitor::watch_flow(const net::Flow& f) {
  flows_[f.id].flow = f;
}

void InvariantMonitor::attach() {
  if (!handle_.active()) handle_ = fabric_->subscribe(this);
}

void InvariantMonitor::on_rule_installed(net::NodeId node, net::FlowId flow,
                                         std::int32_t port) {
  (void)node;
  (void)port;
  const auto it = flows_.find(flow);
  if (it != flows_.end()) check(flow, &it->second);
}

void InvariantMonitor::on_link_state(net::LinkId link, net::NodeId a,
                                     net::NodeId b, bool up) {
  (void)a;
  (void)b;
  if (up) return;
  // This fires before the fabric downs the link, so the walk below still
  // sees the pre-fault path: flows routed over the link get excused.
  for (const net::FlowId id : watched_ids_sorted()) {
    const std::vector<net::NodeId> walk = walk_nodes(id);
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      const auto hop = fabric_->graph().find_link(walk[i], walk[i + 1]);
      if (hop && *hop == link) {
        flows_.at(id).excused = true;
        break;
      }
    }
  }
}

void InvariantMonitor::on_switch_state(net::NodeId node, bool up) {
  if (up) return;
  for (const net::FlowId id : watched_ids_sorted()) {
    const std::vector<net::NodeId> walk = walk_nodes(id);
    if (std::find(walk.begin(), walk.end(), node) != walk.end()) {
      flows_.at(id).excused = true;
    }
  }
}

const InvariantMonitor::Row* InvariantMonitor::row_of(net::FlowId flow) const {
  return fabric_->forwarding_table().row(flow);
}

net::NodeId InvariantMonitor::next_node(
    net::NodeId node, std::optional<std::int32_t> port) const {
  if (!port || *port == p4rt::SwitchDevice::kLocalPort) return net::kNoNode;
  return fabric_->graph().neighbor_via(node, *port);
}

net::NodeId InvariantMonitor::successor(const Row* row,
                                        net::NodeId node) const {
  const p4rt::ForwardingTable::Hop* hop =
      row == nullptr ? nullptr : p4rt::ForwardingTable::hop_in(*row, node);
  if (hop == nullptr || hop->port == p4rt::ForwardingTable::kNoPort) {
    return net::kNoNode;
  }
  return next_node(node, hop->port);
}

std::vector<net::NodeId> InvariantMonitor::walk_nodes(net::FlowId flow) const {
  std::vector<net::NodeId> walk;
  auto it = flows_.find(flow);
  if (it == flows_.end()) return walk;
  const Row* row = row_of(flow);
  net::NodeId cur = it->second.flow.ingress;
  while (cur != net::kNoNode &&
         std::find(walk.begin(), walk.end(), cur) == walk.end()) {
    walk.push_back(cur);
    cur = successor(row, cur);
  }
  return walk;
}

bool InvariantMonitor::has_loop(net::FlowId flow) const {
  // The reference scan, through every switch's SwitchDevice::lookup. The
  // per-flow forwarding graph is functional (<=1 successor per node): walk
  // from every node not yet visited, stamping nodes with the walk's start. A
  // walk that comes back to its own stamp has closed a cycle; one that runs
  // into an older stamp joins a path already explored.
  const std::size_t n = fabric_->switch_count();
  std::vector<std::size_t> walk_of(n, n);  // n: not visited yet
  for (std::size_t start = 0; start < n; ++start) {
    auto cur = static_cast<net::NodeId>(start);
    while (cur != net::kNoNode && walk_of[static_cast<std::size_t>(cur)] == n) {
      walk_of[static_cast<std::size_t>(cur)] = start;
      cur = next_node(cur, fabric_->sw(cur).lookup(flow));
    }
    if (cur != net::kNoNode && walk_of[static_cast<std::size_t>(cur)] == start) {
      return true;
    }
  }
  return false;
}

bool InvariantMonitor::has_cycle(const Row* row) {
  // Every switch with a rule for the flow has a hop in its row, and a walk
  // that leaves the row has reached a switch without a rule, where it ends.
  // So has_loop's stamping, run over the row's hops, finds every cycle.
  const auto k = static_cast<std::uint32_t>(row == nullptr ? 0 : row->size());
  const auto next_hop = [&](std::uint32_t i) {
    const net::NodeId next = successor(row, (*row)[i].node);
    std::uint32_t j = 0;
    while (j < k && (*row)[j].node != next) ++j;
    return j;  // k: the walk ends
  };
  walk_of_.assign(k, k);  // k: no walk reached the hop yet
  for (std::uint32_t start = 0; start < k; ++start) {
    std::uint32_t i = start;
    while (i < k && walk_of_[i] == k) {
      walk_of_[i] = start;
      i = next_hop(i);
    }
    if (i < k && walk_of_[i] == start) return true;
  }
  return false;
}

bool InvariantMonitor::has_blackhole(net::FlowId flow) const {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return false;
  net::NodeId cur = it->second.flow.ingress;
  // A walk of switch_count() hops has repeated a node: a loop, which
  // has_loop reports, not a blackhole.
  for (std::size_t hop = 0; hop < fabric_->switch_count(); ++hop) {
    const auto port = fabric_->sw(cur).lookup(flow);
    if (!port) return true;  // a reachable node without a rule
    if (*port == p4rt::SwitchDevice::kLocalPort) return false;  // delivered
    const net::NodeId next = fabric_->graph().neighbor_via(cur, *port);
    if (next == net::kNoNode) return true;  // rule points nowhere
    cur = next;
  }
  return false;
}

InvariantMonitor::WalkEnd InvariantMonitor::walk_flow(const net::Flow& flow,
                                                      const Row* row) const {
  net::NodeId cur = flow.ingress;
  // A walk of switch_count() hops has repeated a node, and every node after
  // the first repeat was already checked.
  for (std::size_t hop = 0; hop < fabric_->switch_count(); ++hop) {
    if (!fabric_->switch_is_up(cur)) return WalkEnd::kFaulted;
    const p4rt::ForwardingTable::Hop* rule =
        row == nullptr ? nullptr : p4rt::ForwardingTable::hop_in(*row, cur);
    if (rule == nullptr || rule->port == p4rt::ForwardingTable::kNoPort) {
      return WalkEnd::kBlackhole;
    }
    const std::int32_t port = rule->port;
    if (port == p4rt::SwitchDevice::kLocalPort) return WalkEnd::kDelivered;
    const auto& adj = fabric_->graph().neighbors(cur);
    if (port < 0 || static_cast<std::size_t>(port) >= adj.size()) {
      return WalkEnd::kBlackhole;  // rule points nowhere
    }
    const auto& edge = adj[static_cast<std::size_t>(port)];
    if (!fabric_->link_is_up(edge.link)) return WalkEnd::kFaulted;
    cur = edge.neighbor;
  }
  return WalkEnd::kLoop;
}

std::vector<std::string> InvariantMonitor::capacity_overloads() const {
  // Aggregate per directed edge: sum of watched-flow sizes routed over it.
  // Flow order fixes the float accumulation order, so iterate sorted ids —
  // hash order would make near-capacity verdicts depend on insertion
  // history.
  // A flow adds to an edge at most once, so each edge's sum runs in flow
  // order whatever order a row lists its hops in.
  std::map<std::pair<net::NodeId, net::NodeId>, double> load;
  for (const net::FlowId id : watched_ids_sorted()) {
    const net::Flow& flow = flows_.at(id).flow;
    const Row* row = row_of(id);
    if (row == nullptr) continue;
    for (const p4rt::ForwardingTable::Hop& hop : *row) {
      const net::NodeId next = successor(row, hop.node);
      if (next == net::kNoNode) continue;
      load[{hop.node, next}] += flow.size;
    }
  }
  std::vector<std::string> out;
  for (const auto& [edge, used] : load) {
    const auto link = fabric_->graph().find_link(edge.first, edge.second);
    if (!link) continue;
    const double cap = fabric_->graph().link(*link).capacity;
    if (used > cap + 1e-9) {
      std::ostringstream os;
      os << "link " << edge.first << "->" << edge.second << " load " << used
         << " > capacity " << cap;
      out.push_back(os.str());
    }
  }
  return out;
}

void InvariantMonitor::check_flow(net::FlowId flow) {
  const auto it = flows_.find(flow);
  check(flow, it == flows_.end() ? nullptr : &it->second);
}

void InvariantMonitor::check(net::FlowId flow, Watched* watched) {
  const Row* row = row_of(flow);
  // An unwatched flow has no ingress to walk from.
  const WalkEnd end =
      watched == nullptr ? WalkEnd::kDelivered : walk_flow(watched->flow, row);
  const sim::Time now = fabric_->simulator().now();
  if (has_cycle(row)) {
    // Loops are always the update system's fault — no physical failure
    // writes a cyclic rule set — so faults never excuse them.
    ++violations_.loops;
    fabric_->trace().add(
        {now, sim::TraceKind::kLoopDetected, -1, flow, 0, 0, "monitor"});
    findings_.push_back("loop in flow " + std::to_string(flow) + " at t=" +
                        std::to_string(sim::to_ms(now)) + "ms");
  }
  switch (end) {
    case WalkEnd::kDelivered:
      // A clean walk ends the fault excuse.
      if (watched != nullptr) watched->excused = false;
      break;
    case WalkEnd::kFaulted:
      // The physical fault, not the update logic, broke this walk.
      ++violations_.faulted_walks;
      watched->excused = true;
      break;
    case WalkEnd::kBlackhole:
      if (watched->excused) {
        ++violations_.faulted_walks;
        fabric_->trace().add({now, sim::TraceKind::kInfo, -1, flow, 0, 0,
                              "monitor: blackhole excused by fault"});
      } else {
        ++violations_.blackholes;
        fabric_->trace().add({now, sim::TraceKind::kBlackholeDetected, -1,
                              flow, 0, 0, "monitor"});
        findings_.push_back("blackhole in flow " + std::to_string(flow) +
                            " at t=" + std::to_string(sim::to_ms(now)) + "ms");
      }
      break;
    case WalkEnd::kLoop:
      break;  // counted above
  }
  if (check_capacity_) {
    for (const std::string& f : capacity_overloads()) {
      ++violations_.capacity;
      fabric_->trace().add(
          {now, sim::TraceKind::kCapacityViolated, -1, flow, 0, 0, f});
      findings_.push_back(f + " at t=" + std::to_string(sim::to_ms(now)) +
                          "ms");
    }
  }
}

void InvariantMonitor::export_violations(obs::MetricsRegistry& m) const {
  const std::pair<const char*, std::uint64_t> kinds[] = {
      {"loop", violations_.loops},
      {"blackhole", violations_.blackholes},
      {"capacity", violations_.capacity},
  };
  for (const auto& [kind, total] : kinds) {
    obs::Counter c = m.counter("monitor.violation", {{"kind", kind}});
    if (total > c.value()) c.inc(total - c.value());
  }
  obs::Counter fw = m.counter("monitor.faulted_walks");
  if (violations_.faulted_walks > fw.value()) {
    fw.inc(violations_.faulted_walks - fw.value());
  }
}

void InvariantMonitor::check_all() {
  // Sorted order: findings_ and trace entries are emitted here, and their
  // order is part of the deterministic-report contract.
  for (const net::FlowId id : watched_ids_sorted()) check_flow(id);
}

}  // namespace p4u::harness
