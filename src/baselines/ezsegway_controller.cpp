#include "baselines/ezsegway_controller.hpp"

#include <algorithm>

#include "p4rt/switch_device.hpp"

namespace p4u::baseline {

namespace {

template <typename Vec>
auto find_inflight(Vec& inflight, p4rt::Version version) {
  return std::find_if(inflight.begin(), inflight.end(),
                      [version](const auto& e) { return e.version == version; });
}

}  // namespace

EzSegwayController::EzSegwayController(p4rt::ControlChannel& channel,
                                       control::Nib nib,
                                       EzControllerParams params)
    : RecoveringController(channel, std::move(nib), params.recovery),
      params_(params) {}

std::uint8_t EzSegwayController::priority_of(net::FlowId flow) {
  const FlowRow& r = row(flow);
  return r.priority_batch == priority_batch_ ? r.priority : 0;
}

EzSegwayController::Prepared EzSegwayController::prepare(
    net::FlowId flow, const net::Path& new_path, p4rt::Version version) const {
  Prepared out;
  PrepareScratch scratch;
  prepare_into(out, scratch, flow, new_path, version);
  return out;
}

void EzSegwayController::prepare_into(Prepared& out, PrepareScratch& scratch,
                                      net::FlowId flow,
                                      const net::Path& new_path,
                                      p4rt::Version version) const {
  const control::FlowView& view = nib_.view(flow);
  const net::Path& old_path = view.believed_path;
  control::segment_paths_into(scratch.seg, old_path, new_path);
  const control::Segmentation& seg = scratch.seg;

  out.version = version;
  out.cmds.clear();
  out.nontrivial_segments = 0;

  // Classify segments; a segment is trivial when it carries no rule change
  // (two adjacent gateways whose hop already matches).
  std::vector<char>& nontrivial = scratch.nontrivial;
  nontrivial.assign(seg.segments.size(), 0);
  for (std::size_t i = 0; i < seg.segments.size(); ++i) {
    const control::Segment& s = seg.segments[i];
    if (s.nodes.size() > 2) {
      nontrivial[i] = 1;
    } else {
      nontrivial[i] =
          net::next_hop(old_path, s.ingress_gateway) != s.egress_gateway;
    }
  }

  // cmd per switch; a node may appear in two consecutive segments. Paths
  // are short, so the switch's command is found by a linear scan.
  std::vector<p4rt::EzCmdHeader>& cmds = scratch.by_node;
  cmds.clear();
  auto cmd_of = [&](net::NodeId n) -> p4rt::EzCmdHeader& {
    for (p4rt::EzCmdHeader& c : cmds) {
      if (c.target == n) return c;
    }
    p4rt::EzCmdHeader& c = cmds.emplace_back();
    c.flow = flow;
    c.target = n;
    c.version = version;
    c.flow_size = view.flow.size;
    return c;
  };

  const net::Graph& g = nib_.graph();
  for (std::size_t i = 0; i < seg.segments.size(); ++i) {
    if (!nontrivial[i]) continue;
    ++out.nontrivial_segments;
    const control::Segment& s = seg.segments[i];
    const auto k = s.nodes.size();

    // Chain-start role at the segment's egress junction.
    p4rt::EzCmdHeader& start = cmd_of(s.egress_gateway);
    start.starts_chain = true;
    start.chain_segment = static_cast<std::int32_t>(i);
    start.chain_child_port = g.port_of(s.nodes[k - 1], s.nodes[k - 2]);
    if (!s.forward) {
      // in_loop: wait for ALL non-trivial downstream segments (§9.1: "wait
      // for the finished updates of dependent not_in_loop segments" — and
      // without verification, anything less is not loop-safe in general).
      for (std::size_t j = i + 1; j < seg.segments.size(); ++j) {
        if (nontrivial[j]) ++start.await_segments;
      }
    }

    // Rule-change role for every node except the egress junction.
    for (std::size_t pos = 0; pos + 1 < k; ++pos) {
      p4rt::EzCmdHeader& c = cmd_of(s.nodes[pos]);
      c.has_rule_change = true;
      c.rule_segment = static_cast<std::int32_t>(i);
      c.egress_port_new = g.port_of(s.nodes[pos], s.nodes[pos + 1]);
      c.upstream_port =
          pos == 0 ? -1 : g.port_of(s.nodes[pos], s.nodes[pos - 1]);
      c.is_segment_top = pos == 0;
    }
  }

  // SegmentDone wiring: when non-trivial segment j completes at its top
  // node, notify the chain-start junction of every in_loop segment
  // upstream of it.
  for (std::size_t i = 0; i < seg.segments.size(); ++i) {
    if (!nontrivial[i] || seg.segments[i].forward) continue;
    for (std::size_t j = i + 1; j < seg.segments.size(); ++j) {
      if (!nontrivial[j]) continue;
      p4rt::EzCmdHeader& top = cmd_of(seg.segments[j].nodes.front());
      top.notify.push_back(p4rt::EzNotifyTarget{
          seg.segments[i].egress_gateway, static_cast<std::int32_t>(i)});
    }
  }

  // Egress-side switches first, like the other systems.
  for (auto it = new_path.rbegin(); it != new_path.rend(); ++it) {
    for (const p4rt::EzCmdHeader& c : cmds) {
      if (c.target != *it) continue;
      out.cmds.push_back(c);
      break;
    }
  }
}

std::map<net::FlowId, EzPriority> EzSegwayController::prepare_priorities(
    const std::vector<std::pair<net::FlowId, net::Path>>& updates) const {
  std::vector<FlowMove> moves;
  moves.reserve(updates.size());
  for (const auto& [flow, new_path] : updates) {
    const control::FlowView& view = nib_.view(flow);
    moves.push_back(
        FlowMove{flow, view.believed_path, new_path, view.flow.size});
  }
  return compute_ez_priorities(nib_.graph(), moves);
}

p4rt::Version EzSegwayController::issue(net::FlowId flow,
                                        const net::Path& new_path,
                                        std::uint8_t priority) {
  const p4rt::Version version = begin_update(flow, new_path);
  prepare_into(prepared_, scratch_, flow, new_path, version);
  if (prepared_.nontrivial_segments == 0) {
    // Nothing to change: complete instantly.
    complete(flow, version);
    return version;
  }
  Inflight& live = row(flow).inflight.emplace_back();
  live.version = version;
  live.remaining = prepared_.nontrivial_segments;
  for (const p4rt::EzCmdHeader& prepared_cmd : prepared_.cmds) {
    p4rt::Packet pkt{prepared_cmd};
    pkt.as<p4rt::EzCmdHeader>().priority = priority;
    channel_.send_to_switch(prepared_cmd.target, std::move(pkt));
  }
  track_update(flow, version);
  return version;
}

p4rt::Version EzSegwayController::schedule_update(net::FlowId flow,
                                                  const net::Path& new_path) {
  if (nib_.view(flow).update_in_progress) {
    // ez-Segway waits for the ongoing update before the next (§4.2).
    row(flow).queued.push_back(new_path);
    return 0;
  }
  return issue(flow, new_path, priority_of(flow));
}

void EzSegwayController::prepare_batch(
    const std::vector<std::pair<net::FlowId, net::Path>>& updates) {
  ++priority_batch_;  // forgets the previous batch's priorities
  if (params_.congestion_mode) {
    // The global dependency graph is computed centrally *before* any
    // command can leave — its cost sits on the update's critical path
    // (exactly what Fig. 8b measures). Virtual cost: kWorkUnitCost per
    // elementary graph operation of the real computation below.
    std::vector<FlowMove> moves;
    moves.reserve(updates.size());
    for (const auto& [flow, new_path] : updates) {
      const control::FlowView& view = nib_.view(flow);
      moves.push_back(
          FlowMove{flow, view.believed_path, new_path, view.flow.size});
    }
    std::uint64_t units = 0;
    for (const auto& [flow, prio] :
         compute_ez_priorities(nib_.graph(), moves, &units)) {
      FlowRow& r = row(flow);
      r.priority = static_cast<std::uint8_t>(prio);
      r.priority_batch = priority_batch_;
    }
    channel_.occupy(static_cast<sim::Duration>(units) * kWorkUnitCost);
  }
}

void EzSegwayController::schedule_updates(
    const std::vector<std::pair<net::FlowId, net::Path>>& updates) {
  prepare_batch(updates);
  for (const auto& [flow, new_path] : updates) {
    schedule_update(flow, new_path);
  }
}

void EzSegwayController::handle_from_switch(net::NodeId from,
                                            const p4rt::Packet& pkt) {
  (void)from;
  if (!pkt.is<p4rt::UfmHeader>()) return;
  const auto& ufm = pkt.as<p4rt::UfmHeader>();
  if (!nib_.knows(ufm.flow)) return;
  std::vector<Inflight>& inflight = row(ufm.flow).inflight;
  const auto it = find_inflight(inflight, ufm.version);
  if (it == inflight.end()) return;
  // Recovery resends can duplicate a segment top's UFM; count each reporter
  // once or a double-decrement completes a half-finished update.
  if (std::find(it->reported.begin(), it->reported.end(), ufm.reporter) !=
      it->reported.end()) {
    return;
  }
  it->reported.push_back(ufm.reporter);
  if (--it->remaining > 0) return;
  inflight.erase(it);
  complete(ufm.flow, ufm.version);
  issue_next_queued(ufm.flow);
}

void EzSegwayController::issue_next_queued(net::FlowId flow) {
  // An on_settled handler may have re-dispatched the flow synchronously
  // (admission queue); issuing the internally queued follow-up on top would
  // break the one-update-per-flow invariant (§4.2). It stays queued until
  // the flow is idle again.
  if (nib_.view(flow).update_in_progress) return;
  FlowRow& r = row(flow);
  if (r.queued_head == r.queued.size()) return;
  const net::Path next = std::move(r.queued[r.queued_head++]);
  if (r.queued_head == r.queued.size()) {
    r.queued.clear();
    r.queued_head = 0;
  }
  issue(flow, next, priority_of(flow));
}

void EzSegwayController::resend(net::FlowId flow, p4rt::Version version) {
  const auto path = issued_path(flow, version);
  if (path.empty()) return;
  resend_path_.assign(path.begin(), path.end());
  // The believed path is untouched while the update is in flight, so the
  // preparation reproduces the original commands exactly.
  prepare_into(prepared_, scratch_, flow, resend_path_, version);
  const std::uint8_t priority = priority_of(flow);
  for (const p4rt::EzCmdHeader& prepared_cmd : prepared_.cmds) {
    p4rt::Packet pkt{prepared_cmd};
    auto& cmd = pkt.as<p4rt::EzCmdHeader>();
    cmd.priority = priority;
    cmd.retrigger = true;
    channel_.send_to_switch(prepared_cmd.target, std::move(pkt));
  }
}

void EzSegwayController::cancel_inflight(net::FlowId flow,
                                         p4rt::Version version,
                                         bool superseded) {
  FlowRow& r = row(flow);
  const auto it = find_inflight(r.inflight, version);
  if (it != r.inflight.end()) r.inflight.erase(it);
  if (!superseded) return;
  // Queued follow-ups were planned against a topology that no longer
  // exists; the repair update supersedes the whole intent. ez-Segway issues
  // only onto an idle flow (§4.2), so the flow is released for the repair.
  r.queued.clear();
  r.queued_head = 0;
  untrack(flow);
}

void EzSegwayController::pump_next(std::span<const net::FlowId> settled) {
  for (const net::FlowId flow : settled) issue_next_queued(flow);
}

void EzSegwayController::redeploy(net::FlowId flow, net::NodeId node) {
  // ez-Segway has no verified re-deploy wave; the controller directly
  // re-pushes the believed rule as a one-node segment and kicks it with a
  // notify.
  const control::FlowView& view = nib_.view(flow);
  const net::NodeId succ = net::next_hop(view.believed_path, node);
  p4rt::EzCmdHeader cmd;
  cmd.flow = flow;
  cmd.target = node;
  cmd.version = view.version;
  cmd.has_rule_change = true;
  cmd.rule_segment = 0;
  cmd.egress_port_new = succ == net::kNoNode
                            ? p4rt::SwitchDevice::kLocalPort
                            : nib_.graph().port_of(node, succ);
  cmd.upstream_port = -1;
  cmd.is_segment_top = true;
  cmd.flow_size = view.flow.size;
  channel_.send_to_switch(node, p4rt::Packet{cmd});
  p4rt::EzNotifyHeader n;
  n.flow = flow;
  n.version = view.version;
  n.segment_id = 0;
  channel_.send_to_switch(node, p4rt::Packet{n});
}

}  // namespace p4u::baseline
