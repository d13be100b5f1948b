#include "baselines/ezsegway_switch.hpp"

#include <algorithm>
#include <utility>

#include "net/paths.hpp"

namespace p4u::baseline {

using p4rt::Packet;
using p4rt::SwitchDevice;
using sim::TraceKind;

EzSegwaySwitch::EzSegwaySwitch(net::NodeId id, const net::Graph& graph,
                               EzSwitchParams params)
    : id_(id),
      graph_(&graph),
      params_(params),
      // Static management routing for SegmentDone messages: next hop on
      // the latency-shortest path toward each destination.
      next_hop_port_(net::first_hop_ports(graph, id)) {}

void EzSegwaySwitch::bootstrap_flow(SwitchDevice& sw, net::FlowId f,
                                    std::int32_t egress_port, double size) {
  set_flow_size(f, size);
  sw.set_rule_now(f, egress_port);
}

double EzSegwaySwitch::flow_size(net::FlowId flow) const {
  const net::FlowHandle h = index_.find(flow);
  if (h == net::kNoFlowHandle) return 0.0;
  return flow_size_.get(h, index_.generation(h));
}

void EzSegwaySwitch::set_flow_size(net::FlowId flow, double size) {
  const net::FlowHandle h = index_.intern(flow);
  flow_size_.row(h, index_.generation(h)) = size;
}

const EzSegwaySwitch::VersionEntry* EzSegwaySwitch::find_entry(
    net::FlowId flow, p4rt::Version version) const {
  const net::FlowHandle h = index_.find(flow);
  if (h == net::kNoFlowHandle) return nullptr;
  // The chain is ordered newest first: stop once past `version`.
  for (std::uint32_t e = newest_.get(h, index_.generation(h));
       e != kNoEntry && entries_[e].version >= version;
       e = entries_[e].older) {
    if (entries_[e].version == version) return &entries_[e];
  }
  return nullptr;
}

std::uint32_t EzSegwaySwitch::entry_at(net::FlowId flow,
                                       p4rt::Version version) {
  const net::FlowHandle h = index_.intern(flow);
  // Walk to the first entry not newer than `version`: the match, or where
  // a new entry keeps the chain ordered. Nearly every message is for the
  // flow's newest version, so the walk is one step.
  std::uint32_t* link = &newest_.row(h, index_.generation(h));
  while (*link != kNoEntry && entries_[*link].version > version) {
    link = &entries_[*link].older;
  }
  if (*link != kNoEntry && entries_[*link].version == version) return *link;
  // Appending moves no entry and no row, so `link` stays valid.
  const std::uint32_t i = entries_.append();
  VersionEntry& e = entries_[i];
  e.flow = flow;
  e.version = version;
  e.older = *link;
  *link = i;
  return i;
}

void EzSegwaySwitch::unpark(std::uint32_t i) {
  if (!entries_[i].parked) return;
  entries_[i].parked = false;
  const auto it = std::find(parked_.begin(), parked_.end(), i);
  *it = parked_.back();
  parked_.pop_back();
}

EzSegwaySwitch::PendingUpdate& EzSegwaySwitch::update_of(
    net::FlowId flow, p4rt::Version version) {
  VersionEntry& e = entries_[entry_at(flow, version)];
  e.has_update = true;
  return e.update;
}

void EzSegwaySwitch::set_inflight(net::FlowId flow, std::int32_t port) {
  const auto it = std::lower_bound(
      inflight_.begin(), inflight_.end(), flow,
      [](const auto& entry, net::FlowId f) { return entry.first < f; });
  if (it != inflight_.end() && it->first == flow) {
    it->second = port;
  } else {
    inflight_.insert(it, {flow, port});
  }
}

void EzSegwaySwitch::clear_inflight(net::FlowId flow) {
  const auto it = std::lower_bound(
      inflight_.begin(), inflight_.end(), flow,
      [](const auto& entry, net::FlowId f) { return entry.first < f; });
  if (it != inflight_.end() && it->first == flow) inflight_.erase(it);
}

void EzSegwaySwitch::handle(SwitchDevice& sw, Packet pkt,
                            std::int32_t in_port) {
  (void)in_port;
  if (pkt.is<p4rt::EzCmdHeader>()) {
    handle_cmd(sw, pkt.as<p4rt::EzCmdHeader>());
  } else if (pkt.is<p4rt::EzNotifyHeader>()) {
    handle_notify(sw, std::move(pkt));
  } else if (pkt.is<p4rt::SegmentDoneHeader>()) {
    handle_segment_done(sw, std::move(pkt));
  } else if (pkt.is<p4rt::CleanupHeader>()) {
    const auto& c = pkt.as<p4rt::CleanupHeader>();
    // Nodes that are part of this version's new configuration keep their
    // rule; pure old-path leftovers are removed and pass the cleanup on.
    const VersionEntry* e = find_entry(c.flow, c.version);
    if (e != nullptr && e->has_update) return;
    const auto port = sw.lookup(c.flow);
    if (!port) return;
    sw.remove_rule(c.flow);
    sw.fabric().trace().add({sw.now(), sim::TraceKind::kRuleCleaned, id_,
                             c.flow, c.version, *port, ""});
    if (*port >= 0) sw.clone_to_port(pkt, *port);
  }
}

void EzSegwaySwitch::handle_cmd(SwitchDevice& sw,
                                const p4rt::EzCmdHeader& cmd) {
  const std::uint32_t i = entry_at(cmd.flow, cmd.version);
  VersionEntry& e = entries_[i];
  e.has_update = true;
  PendingUpdate& pu = e.update;
  pu.cmd = cmd;
  // Only the congestion variant's priority check reads the parked list.
  if (params_.congestion_mode && cmd.has_rule_change && !pu.installed &&
      !e.parked) {
    e.parked = true;
    parked_.push_back(i);
  }
  if (cmd.flow_size > 0.0) {
    set_flow_size(cmd.flow, cmd.flow_size);
  }
  if (cmd.retrigger) {
    // Controller resend: every message this node already owed may have been
    // lost, so re-emit — duplicates are absorbed by the installed flag, the
    // SegmentDone dedup, and the controller's per-reporter UFM dedup.
    if (pu.cmd.has_rule_change && pu.installed) emit_post_install(sw, pu.cmd);
    if (pu.cmd.starts_chain && pu.chain_started) {
      p4rt::EzNotifyHeader n;
      n.flow = pu.cmd.flow;
      n.version = pu.cmd.version;
      n.segment_id = pu.cmd.chain_segment;
      ++notifies_sent_;
      // Notes past the 15-byte inline string allocate: build them only when
      // tracing is on.
      sw.fabric().trace().add_lazy([&] {
        return sim::TraceEntry{sw.now(), TraceKind::kMessageSent, id_, n.flow,
                               n.version, n.segment_id, "ez chain retrigger"};
      });
      sw.clone_to_port(Packet{n}, pu.cmd.chain_child_port);
      return;
    }
  }
  // Chain starts fire immediately when they have no unresolved dependency
  // (not_in_loop segments update in parallel right away).
  if (cmd.starts_chain && !pu.chain_started &&
      pu.done_received >= cmd.await_segments) {
    start_chain(sw, pu);
  }
}

void EzSegwaySwitch::start_chain(SwitchDevice& sw, PendingUpdate& pu) {
  pu.chain_started = true;
  p4rt::EzNotifyHeader n;
  n.flow = pu.cmd.flow;
  n.version = pu.cmd.version;
  n.segment_id = pu.cmd.chain_segment;
  ++notifies_sent_;
  sw.fabric().trace().add({sw.now(), TraceKind::kMessageSent, id_, n.flow,
                           n.version, n.segment_id, "ez chain start"});
  sw.clone_to_port(Packet{n}, pu.cmd.chain_child_port);
}

bool EzSegwaySwitch::capacity_ok(const SwitchDevice& sw,
                                 const PendingUpdate& pu) const {
  if (!params_.congestion_mode) return true;
  const std::int32_t port = pu.cmd.egress_port_new;
  if (port == SwitchDevice::kLocalPort) return true;
  const auto cur = sw.lookup(pu.cmd.flow);
  if (cur && *cur == port) return true;  // capacity already held
  const auto& adj = graph_->neighbors(id_).at(static_cast<std::size_t>(port));
  const double capacity = graph_->link(adj.link).capacity;
  // Flow-id order: the sum, and so the verdict, is bit-stable. An unsized
  // flow adds +0.0, which leaves a non-negative sum unchanged.
  double used = 0.0;
  for (const auto& [flow, p] : sw.rules()) {
    if (flow != pu.cmd.flow && p == port) used += flow_size(flow);
  }
  // In-flight installs hold capacity too (the rule write takes time).
  for (const auto& [flow, p] : inflight_) {
    if (flow == pu.cmd.flow || p != port) continue;
    const auto cur2 = sw.lookup(flow);
    if (cur2 && *cur2 == port) continue;
    used += flow_size(flow);
  }
  if (capacity - used < flow_size(pu.cmd.flow)) return false;
  // Static priorities: a lower-priority move yields while a strictly
  // higher-priority pending move at this node targets the same port. Only a
  // parked entry can be one; the verdict is "any", so the list's order is
  // free.
  for (const std::uint32_t i : parked_) {
    const VersionEntry& e = entries_[i];
    if (e.flow == pu.cmd.flow) continue;
    const PendingUpdate& other = e.update;
    if (other.installed) continue;
    if (other.cmd.has_rule_change && other.cmd.egress_port_new == port &&
        other.cmd.priority > pu.cmd.priority) {
      return false;
    }
  }
  return true;
}

void EzSegwaySwitch::handle_notify(SwitchDevice& sw, Packet pkt) {
  const auto n = pkt.as<p4rt::EzNotifyHeader>();
  const std::uint32_t i = entry_at(n.flow, n.version);
  VersionEntry& e = entries_[i];
  // Give-up bound: a notify that waited past retry_timeout is dropped (the
  // schedule is stuck; in a deployment the controller re-triggers).
  if (e.retrying && sw.now() - e.retry_since > params_.retry_timeout) {
    e.retrying = false;
    return;
  }
  const auto start_retry = [&sw, &e] {
    if (e.retrying) return;
    e.retrying = true;
    e.retry_since = sw.now();
  };
  if (!e.has_update) {
    // Command not here yet (controller messages still in flight): retry.
    start_retry();
    sw.resubmit(std::move(pkt), -1);
    return;
  }
  PendingUpdate& pu = e.update;
  if (!pu.cmd.has_rule_change || pu.cmd.rule_segment != n.segment_id ||
      pu.installed) {
    return;  // duplicate or stray notification
  }
  if (!capacity_ok(sw, pu)) {
    start_retry();
    sw.fabric().trace().add({sw.now(), TraceKind::kCongestionDefer, id_,
                             n.flow, pu.cmd.egress_port_new, 0, "ez defer"});
    sw.resubmit(std::move(pkt), -1);
    return;
  }
  e.retrying = false;
  unpark(i);
  do_install(sw, pu);
}

void EzSegwaySwitch::do_install(SwitchDevice& sw, PendingUpdate& pu) {
  pu.installed = true;
  const p4rt::EzCmdHeader cmd = pu.cmd;
  const std::int32_t old_port = sw.lookup(cmd.flow).value_or(-1);
  set_inflight(cmd.flow, cmd.egress_port_new);
  sw.install_rule(cmd.flow, cmd.egress_port_new, [this, &sw, cmd, old_port]() {
    clear_inflight(cmd.flow);
    if (cmd.is_segment_top && old_port >= 0 &&
        old_port != cmd.egress_port_new) {
      // Rule cleanup along the replaced old sub-path: no further packets
      // will enter it, so stale rules release their capacity.
      p4rt::CleanupHeader c;
      c.flow = cmd.flow;
      c.version = cmd.version;
      sw.clone_to_port(p4rt::Packet{c}, old_port);
    }
    emit_post_install(sw, cmd);
  });
}

void EzSegwaySwitch::emit_post_install(SwitchDevice& sw,
                                       const p4rt::EzCmdHeader& cmd) {
  if (!cmd.is_segment_top) {
    // Pass the notification one hop upstream within the segment.
    p4rt::EzNotifyHeader n;
    n.flow = cmd.flow;
    n.version = cmd.version;
    n.segment_id = cmd.rule_segment;
    ++notifies_sent_;
    sw.clone_to_port(Packet{n}, cmd.upstream_port);
    return;
  }
  // Segment complete at its top node: resolve dependencies and report.
  for (const p4rt::EzNotifyTarget& t : cmd.notify) {
    p4rt::SegmentDoneHeader d;
    d.flow = cmd.flow;
    d.version = cmd.version;
    d.segment_id = cmd.rule_segment;
    d.final_dst = t.node;
    if (t.node == id_) {
      handle_segment_done(sw, Packet{d});
    } else {
      route_towards(sw, t.node, Packet{d});
    }
  }
  p4rt::UfmHeader ufm;
  ufm.flow = cmd.flow;
  ufm.version = cmd.version;
  ufm.success = true;
  ufm.reporter = id_;
  ufm.alarm = p4rt::AlarmCode::kNone;
  sw.send_to_controller(Packet{ufm});
}

void EzSegwaySwitch::route_towards(SwitchDevice& sw, net::NodeId dst,
                                   Packet pkt) {
  const std::int32_t port = next_hop_port_.at(static_cast<std::size_t>(dst));
  if (port < 0) return;  // unreachable: drop
  sw.clone_to_port(std::move(pkt), port);
}

void EzSegwaySwitch::handle_segment_done(SwitchDevice& sw, Packet pkt) {
  // Copy the header out first: the relay branch moves the packet onward.
  const p4rt::SegmentDoneHeader d = pkt.as<p4rt::SegmentDoneHeader>();
  if (d.final_dst != id_) {
    route_towards(sw, d.final_dst, std::move(pkt));
    return;
  }
  PendingUpdate& pu = update_of(d.flow, d.version);
  if (std::find(pu.done_from.begin(), pu.done_from.end(), d.segment_id) !=
      pu.done_from.end()) {
    return;  // duplicate
  }
  pu.done_from.push_back(d.segment_id);
  ++pu.done_received;
  if (pu.cmd.starts_chain && !pu.chain_started &&
      pu.done_received >= pu.cmd.await_segments) {
    start_chain(sw, pu);
  }
}

void EzSegwaySwitch::on_crash(SwitchDevice& sw) {
  (void)sw;
  // A crash loses everything the agent kept in registers: parked commands,
  // retry deadlines, in-flight reservations, and the flow-size cells. The
  // static management routing is program config and survives.
  entries_.clear();
  newest_.clear();
  parked_.clear();
  inflight_.clear();
  index_.clear();
  flow_size_.clear();
}

}  // namespace p4u::baseline
