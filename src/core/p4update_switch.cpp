#include "core/p4update_switch.hpp"

#include <string>
#include <utility>

namespace p4u::core {

using p4rt::AlarmCode;
using p4rt::Packet;
using p4rt::SwitchDevice;
using p4rt::UnmHeader;
using p4rt::UnmLayer;
using sim::TraceKind;

namespace {

const char* alarm_code_name(AlarmCode code) {
  switch (code) {
    case AlarmCode::kNone: return "none";
    case AlarmCode::kDistanceMismatch: return "distance-mismatch";
    case AlarmCode::kOutdatedVersion: return "outdated-version";
    case AlarmCode::kMalformed: return "malformed";
  }
  return "?";
}

}  // namespace

P4UpdateSwitch::P4UpdateSwitch(net::NodeId id, const net::Graph& graph,
                               P4UpdateSwitchParams params)
    : id_(id), graph_(&graph), params_(params), scheduler_(graph, id) {}

void P4UpdateSwitch::on_crash(SwitchDevice& sw) {
  (void)sw;  // the device already wiped its forwarding table
  // Every Table 1 register is volatile (§6): a power-cycle loses the whole
  // UIB, pending UIMs, scheduler reservations, and the soft dedup/watchdog
  // state. Timers armed before the crash find their generation gone. The
  // scratch pools must go with the UIB: its replacement restarts the flow
  // index (handles and generations from zero), so stale pool rows would
  // otherwise read as current for the next occupants.
  uib_ = Uib{};
  scheduler_ = CongestionScheduler(*graph_, id_);
  reported_flows_.clear();
  completed_version_.clear();
  ingress_old_port_.clear();
  stamps_.clear();
  watchdog_gen_.clear();
}

void P4UpdateSwitch::bootstrap_flow(SwitchDevice& sw, FlowId f,
                                    Version version, Distance distance,
                                    std::int32_t egress_port, double size) {
  AppliedState st;
  st.new_version = version;
  st.new_distance = distance;
  st.old_version = 0;
  st.old_distance = distance;
  st.counter = 0;
  st.last_type = UpdateType::kSingleLayer;
  st.ever_dual = false;
  uib_.bring_up(f, st, size);
  sw.set_rule_now(f, egress_port);
}

void P4UpdateSwitch::on_data_packet(SwitchDevice& sw, p4rt::DataHeader& data,
                                    std::int32_t in_port) {
  if (in_port != -1) return;  // only host-injected packets below
  const net::FlowIndex& idx = uib_.flow_index();
  const net::FlowHandle h = idx.find(data.flow);
  if (h != net::kNoFlowHandle) {
    // §11 2-phase commit: the ingress stamps packets onto the active rule
    // generation by rewriting the flow id to the tagged one.
    const FlowId stamp = stamps_.get(h, idx.generation(h));
    if (stamp != 0) {
      data.flow = stamp;
      return;
    }
  }
  // Task (1): first packet of an unknown flow entering the network here
  // gets cloned into an FRM for the controller (§8 "FRM").
  if (uib_.knows(data.flow)) return;
  net::FlowIndex& widx = uib_.flow_index();
  const net::FlowHandle rh = widx.intern(data.flow);
  std::uint8_t& reported = reported_flows_.row(rh, widx.generation(rh));
  if (reported != 0) return;
  reported = 1;
  p4rt::FrmHeader frm;
  frm.flow = data.flow;
  frm.ingress = id_;
  sw.send_to_controller(Packet{frm});
}

void P4UpdateSwitch::handle(SwitchDevice& sw, Packet pkt,
                            std::int32_t in_port) {
  if (pkt.is<p4rt::UimHeader>()) {
    handle_uim(sw, pkt.as<p4rt::UimHeader>());
  } else if (pkt.is<UnmHeader>()) {
    handle_unm(sw, std::move(pkt), in_port);
  } else if (pkt.is<p4rt::CleanupHeader>()) {
    handle_cleanup(sw, pkt.as<p4rt::CleanupHeader>());
  } else if (pkt.is<p4rt::StampHeader>()) {
    const auto& s = pkt.as<p4rt::StampHeader>();
    net::FlowIndex& idx = uib_.flow_index();
    const net::FlowHandle h = idx.intern(s.flow);
    stamps_.row(h, idx.generation(h)) = s.rewrite_to;
    sw.fabric().trace().add({sw.now(), TraceKind::kInfo, id_, s.flow,
                             static_cast<std::int64_t>(s.rewrite_to), 0,
                             "stamp flipped"});
  }
  // Other control messages (baseline headers) are not ours; ignore.
}

void P4UpdateSwitch::count_verify(SwitchDevice& sw, VerifyOutcome outcome) {
  obs::resolve_once(verify_[static_cast<std::size_t>(outcome)], [&] {
    const char* name = outcome == VerifyOutcome::kAccept  ? "accept"
                       : outcome == VerifyOutcome::kDefer ? "defer"
                                                          : "reject";
    return sw.fabric().metrics().counter(
        "p4update.verify",
        {{"switch", std::to_string(sw.id())}, {"outcome", name}});
  }).inc();
}

void P4UpdateSwitch::alarm(SwitchDevice& sw, FlowId f, Version v,
                           AlarmCode code) {
  ++rejects_;
  obs::resolve_once(alarms_[static_cast<std::size_t>(code)], [&] {
    return sw.fabric().metrics().counter(
        "p4update.alarms",
        {{"switch", std::to_string(id_)}, {"code", alarm_code_name(code)}});
  }).inc();
  sw.fabric().trace().add({sw.now(), TraceKind::kControllerAlarm, id_, f,
                           static_cast<std::int64_t>(code), v, ""});
  p4rt::UfmHeader ufm;
  ufm.flow = f;
  ufm.version = v;
  ufm.success = false;
  ufm.alarm = code;
  ufm.reporter = id_;
  sw.send_to_controller(Packet{ufm});
}

bool P4UpdateSwitch::completion_reported(FlowId f, Version v) const {
  // Versions are strictly increasing per flow, so "reported some version
  // >= v" and "reported exactly v" gate identically on the live paths.
  const net::FlowIndex& idx = uib_.flow_index();
  const net::FlowHandle h = idx.find(f);
  if (h == net::kNoFlowHandle) return false;
  return completed_version_.get(h, idx.generation(h)) >= v;
}

void P4UpdateSwitch::arm_watchdog(SwitchDevice& sw,
                                  const p4rt::UimHeader& uim) {
  if (params_.uim_watchdog <= 0 || uim.is_flow_egress) return;
  net::FlowIndex& fidx = uib_.flow_index();
  const net::FlowHandle fh = fidx.intern(uim.flow);
  const std::uint64_t gen = ++watchdog_gen_.row(fh, fidx.generation(fh));
  // The switch is resolved through the fabric at fire time by node id,
  // never through a captured reference: the device object owns no timer
  // state the event could dangle on.
  p4rt::Fabric* fabric = &sw.fabric();
  const net::NodeId node = sw.id();
  const FlowId flow = uim.flow;
  const Version version = uim.version;
  const bool is_ingress = uim.child_port < 0;
  obs::resolve_once(watchdog_armed_, [&] {
    return fabric->metrics().counter("p4update.watchdog_armed",
                                     {{"switch", std::to_string(node)}});
  }).inc();
  sw.simulator().schedule_in(
      params_.uim_watchdog,
      [this, fabric, node, flow, version, gen, is_ingress]() {
        // Resolve through the *current* index at fire time: a crash since
        // arming replaced it (handle gone), a re-arm bumped the generation.
        const net::FlowIndex& idx = uib_.flow_index();
        const net::FlowHandle h = idx.find(flow);
        if (h == net::kNoFlowHandle) return;
        if (watchdog_gen_.get(h, idx.generation(h)) != gen) return;
        // Stalled if the rule never went in — or, at the flow ingress, if
        // it went in but the convergence report never went out (a lost
        // intra-segment UNM leaves a DL ingress applied yet unconverged).
        const bool stalled =
            uib_.applied(flow).new_version < version ||
            (is_ingress && !completion_reported(flow, version));
        if (!stalled) return;
        obs::resolve_once(watchdog_fired_, [&] {
          return fabric->metrics().counter(
              "p4update.watchdog_fired", {{"switch", std::to_string(node)}});
        }).inc();
        alarm(fabric->sw(node), flow, version, AlarmCode::kMalformed);
      });
}

void P4UpdateSwitch::handle_uim(SwitchDevice& sw, const p4rt::UimHeader& uim) {
  const AppliedState st = uib_.applied(uim.flow);

  // Reject UIMs older than what this node already runs: falling back to
  // older configurations could induce loops (§7.1 scenario (iii)).
  if (uim.version <= st.new_version) {
    if (uim.version < st.new_version) {
      alarm(sw, uim.flow, uim.version, AlarmCode::kOutdatedVersion);
    } else if (sw.lookup(uim.flow) ==
               std::optional<std::int32_t>(uim.egress_port_updated)) {
      // §11 failure recovery: a duplicate UIM at an already-updated node
      // re-generates the notification toward its child ("the update is
      // re-triggered partially and UNM only needs to be retransmitted from
      // gateway nodes"), so lost UNMs are retransmitted hop-locally once
      // the controller re-triggers the update.
      emit_unm_fanout(sw, uim, UnmLayer::kInterSegment);
    }
    if (uim.version == st.new_version && uim.child_port < 0 &&
        !completion_reported(uim.flow, uim.version)) {
      // Applied-but-unconverged ingress (DL: the intra-segment UNM that
      // zeroes the inherited old distance was lost). The re-triggered UIM
      // just re-fanned the notifications out; watch for the convergence
      // report again so another stall is alarmed, not swallowed.
      arm_watchdog(sw, uim);
    }
    return;  // otherwise a duplicate of the applied version: ignore
  }

  // §A.2 flow-size immutability: a size change in flight is inconsistent.
  if (uib_.knows(uim.flow) && uib_.flow_size(uim.flow) > 0.0 &&
      uim.flow_size > 0.0 && uim.flow_size != uib_.flow_size(uim.flow)) {
    alarm(sw, uim.flow, uim.version, AlarmCode::kMalformed);
    return;
  }

  const bool stored = uib_.offer_uim(uim);
  // §11 watchdog: expect the update to have gone through within the window;
  // otherwise assume a lost notification and tell the controller. Each arm
  // bumps the flow's generation and the timer no-ops when stale, so a
  // re-triggered (duplicate) UIM *re-arms* the watchdog — extending the
  // deadline instead of stacking a second alarm.
  arm_watchdog(sw, uim);
  if (!stored) return;  // older than (or same as) the pending UIM
  if (uim.flow_size > 0.0) uib_.set_flow_size(uim.flow, uim.flow_size);

  if (uim.is_flow_egress) {
    // §7.2: the egress applies directly once the UIM is well-formed.
    if (uim.new_distance != 0) {
      uib_.drop_uim(uim.flow);
      alarm(sw, uim.flow, uim.version, AlarmCode::kDistanceMismatch);
      return;
    }
    apply_egress(sw, uim);
    return;
  }

  if (uim.type == UpdateType::kDualLayer && uim.is_segment_egress &&
      st.new_version > 0) {
    // DL: a segment's egress gateway proposes its current segment id to the
    // nodes upstream of it — before updating itself (§8 "DL-P4Update").
    UnmHeader unm;
    unm.flow = uim.flow;
    unm.new_version = uim.version;
    unm.new_distance = uim.new_distance;
    unm.old_version = st.new_version;
    unm.old_distance = st.new_distance;  // the segment id (§3.2)
    unm.counter = st.counter;
    unm.type = UpdateType::kDualLayer;
    unm.layer = UnmLayer::kIntraSegment;
    unm.from = id_;
    ++unms_sent_;
    // Notes past the 15-byte inline string allocate: build them only when
    // tracing is on.
    sw.fabric().trace().add_lazy([&] {
      return sim::TraceEntry{sw.now(), TraceKind::kMessageSent, id_, uim.flow,
                             unm.new_version, unm.old_distance,
                             "intra-segment UNM"};
    });
    sw.clone_to_port(Packet{unm}, uim.child_port);
  }
}

void P4UpdateSwitch::apply_egress(SwitchDevice& sw,
                                  const p4rt::UimHeader& uim) {
  const AppliedState st = uib_.applied(uim.flow);
  AppliedState next;
  next.new_version = uim.version;
  next.new_distance = 0;
  next.old_version = st.new_version;
  next.old_distance = st.new_version > 0 ? st.new_distance : 0;
  next.counter = 0;
  next.last_type = uim.type;
  next.ever_dual = uim.type == UpdateType::kDualLayer;
  uib_.write_applied(uim.flow, next);
  count_verify(sw, VerifyOutcome::kAccept);
  sw.fabric().trace().add_lazy([&] {
    return sim::TraceEntry{sw.now(), TraceKind::kVerifyAccepted, id_, uim.flow,
                           uim.version, 0, "egress direct apply"};
  });
  const FlowId f = uim.flow;
  const p4rt::UimHeader u = uim;
  const bool quick =
      sw.lookup(f) == std::optional<std::int32_t>(uim.egress_port_updated);
  sw.install_rule(
      f, u.egress_port_updated,
      [this, &sw, u]() {
        emit_unm_fanout(sw, u, UnmLayer::kInterSegment);
      },
      quick);
}

void P4UpdateSwitch::emit_unm(SwitchDevice& sw, FlowId f, std::int32_t port,
                              UnmLayer layer, p4rt::UpdateType type) {
  const AppliedState st = uib_.applied(f);
  UnmHeader unm;
  unm.flow = f;
  unm.new_version = st.new_version;
  unm.new_distance = st.new_distance;
  unm.old_version = st.old_version;
  unm.old_distance = st.old_distance;
  unm.counter = st.counter;
  unm.type = type;
  unm.layer = layer;
  unm.from = id_;
  ++unms_sent_;
  sw.fabric().trace().add({sw.now(), TraceKind::kMessageSent, id_, f,
                           unm.new_version, unm.old_distance, "UNM upstream"});
  sw.clone_to_port(Packet{unm}, port);
}

void P4UpdateSwitch::emit_unm_fanout(SwitchDevice& sw,
                                     const p4rt::UimHeader& uim,
                                     UnmLayer layer) {
  if (uim.child_port >= 0) {
    emit_unm(sw, uim.flow, uim.child_port, layer, uim.type);
  }
  for (std::int32_t port : uim.extra_child_ports) {
    emit_unm(sw, uim.flow, port, layer, uim.type);  // tree fan-out (§11)
  }
}

void P4UpdateSwitch::park(SwitchDevice& sw, Packet pkt, std::int32_t in_port,
                          const char* why) {
  auto& unm = pkt.as<UnmHeader>();
  if (unm.first_parked_at == 0) {
    unm.first_parked_at = sw.now();
  } else if (sw.now() - unm.first_parked_at > params_.wait_timeout) {
    // §11 failure handling: give up and let the controller re-trigger.
    alarm(sw, unm.flow, unm.new_version, AlarmCode::kMalformed);
    return;
  }
  ++resubmissions_;
  count_verify(sw, VerifyOutcome::kDefer);
  sw.fabric().trace().add({sw.now(), TraceKind::kVerifyDeferred, id_,
                           unm.flow, unm.new_version, 0, why});
  sw.resubmit(std::move(pkt), in_port);
}

bool P4UpdateSwitch::congestion_gate(SwitchDevice& sw, Packet pkt,
                                     std::int32_t in_port, FlowId f,
                                     std::int32_t to_port) {
  if (!params_.congestion_mode) return true;
  const double size = uib_.flow_size(f);
  const auto d = scheduler_.try_move(sw, uib_, f, to_port, size);
  if (d.allowed) {
    scheduler_.reserve(f, to_port, size);  // held until the install lands
    return true;
  }
  if (!d.capacity_ok) {
    const int raised = scheduler_.on_deferred(sw, uib_, f, to_port);
    sw.fabric().trace().add({sw.now(), TraceKind::kCongestionDefer, id_, f,
                             to_port, raised, ""});
    if (raised > 0) {
      sw.fabric().trace().add(
          {sw.now(), TraceKind::kPriorityRaised, id_, f, raised, 0, ""});
    }
  }
  park(sw, std::move(pkt), in_port,
       d.capacity_ok ? "yield-to-priority" : "no-capacity");
  return false;
}

void P4UpdateSwitch::after_state_change(SwitchDevice& sw,
                                        const p4rt::UimHeader& uim,
                                        UnmLayer layer) {
  const AppliedState st = uib_.applied(uim.flow);
  if (uim.child_port < 0) {
    // Flow ingress. The flow has converged once the inherited old distance
    // reached the egress segment id 0 (always true under SL).
    const bool converged = uim.type == UpdateType::kSingleLayer ||
                           st.old_distance == 0;
    if (!converged) return;
    net::FlowIndex& idx = uib_.flow_index();
    const net::FlowHandle h = idx.intern(uim.flow);
    Version& reported_v = completed_version_.row(h, idx.generation(h));
    if (reported_v >= uim.version) return;  // already reported
    reported_v = uim.version;
    obs::resolve_once(update_completed_, [&] {
      return sw.fabric().metrics().counter(
          "p4update.update_completed", {{"switch", std::to_string(id_)}});
    }).inc();
    sw.fabric().trace().add({sw.now(), TraceKind::kUpdateCompleted, id_,
                             uim.flow, uim.version, 0, ""});
    p4rt::UfmHeader ufm;
    ufm.flow = uim.flow;
    ufm.version = uim.version;
    ufm.success = true;
    ufm.reporter = id_;
    sw.send_to_controller(Packet{ufm});
    // §11 rule cleanup: tell the abandoned old path that no further packets
    // will come, so stale rules (and their reserved capacity) are released.
    const std::int32_t old_port =
        ingress_old_port_.get(h, idx.generation(h));
    if (old_port >= 0 && old_port != uim.egress_port_updated) {
      p4rt::CleanupHeader c;
      c.flow = uim.flow;
      c.version = uim.version;
      sw.clone_to_port(Packet{c}, old_port);
    }
    ingress_old_port_.erase(h);
    return;
  }
  emit_unm_fanout(sw, uim, layer);
}

void P4UpdateSwitch::handle_cleanup(SwitchDevice& sw,
                                    const p4rt::CleanupHeader& c) {
  const AppliedState st = uib_.applied(c.flow);
  if (st.new_version >= c.version) return;  // current node: not stale
  const auto port = sw.lookup(c.flow);
  if (!port) return;  // already clean
  sw.remove_rule(c.flow);
  sw.fabric().trace().add({sw.now(), TraceKind::kRuleCleaned, id_, c.flow,
                           c.version, *port, ""});
  if (*port >= 0) {
    sw.clone_to_port(Packet{c}, *port);  // continue along the old path
  }
}

void P4UpdateSwitch::apply_sl(SwitchDevice& sw, const p4rt::UimHeader& uim,
                              const UnmHeader& unm) {
  const AppliedState st = uib_.applied(uim.flow);
  AppliedState next;
  next.new_version = uim.version;
  next.new_distance = uim.new_distance;
  next.old_version = st.new_version;
  next.old_distance = st.new_version > 0 ? st.new_distance : uim.new_distance;
  next.counter = unm.counter + 1;
  next.last_type = UpdateType::kSingleLayer;
  next.ever_dual = false;
  uib_.write_applied(uim.flow, next);
  if (uim.child_port < 0) {
    net::FlowIndex& idx = uib_.flow_index();
    const net::FlowHandle h = idx.intern(uim.flow);
    ingress_old_port_.row(h, idx.generation(h)) =
        sw.lookup(uim.flow).value_or(-1);
  }
  const p4rt::UimHeader u = uim;
  const bool quick =
      sw.lookup(u.flow) == std::optional<std::int32_t>(u.egress_port_updated);
  sw.install_rule(
      u.flow, u.egress_port_updated,
      [this, &sw, u]() {
        scheduler_.on_resolved(uib_, u.flow);
        after_state_change(sw, u, UnmLayer::kInterSegment);
      },
      quick);
}

void P4UpdateSwitch::handle_unm(SwitchDevice& sw, Packet pkt,
                                std::int32_t in_port) {
  const UnmHeader unm = pkt.as<UnmHeader>();
  const FlowId f = unm.flow;
  const p4rt::UimHeader* uim = uib_.pending_uim(f);
  const AppliedState st = uib_.applied(f);
  auto& trace = sw.fabric().trace();

  const bool sl_mode = unm.type != UpdateType::kDualLayer ||
                       (uim != nullptr && uim->type != UpdateType::kDualLayer);
  if (sl_mode) {
    switch (sl_verify(uim, unm)) {
      case SlOutcome::kWaitForUim:
        park(sw, std::move(pkt), in_port, "wait-for-uim");
        return;
      case SlOutcome::kDropOutdated:
        count_verify(sw, VerifyOutcome::kReject);
        trace.add({sw.now(), TraceKind::kVerifyRejected, id_, f,
                   unm.new_version, st.new_version, "sl outdated"});
        alarm(sw, f, unm.new_version, AlarmCode::kOutdatedVersion);
        return;
      case SlOutcome::kDropDistance:
        count_verify(sw, VerifyOutcome::kReject);
        trace.add({sw.now(), TraceKind::kVerifyRejected, id_, f,
                   unm.new_distance, uim->new_distance, "sl distance"});
        alarm(sw, f, unm.new_version, AlarmCode::kDistanceMismatch);
        return;
      case SlOutcome::kAccept:
        break;
    }
    // Duplicate of an already-applied version: re-propagate without
    // reinstalling (supports lost-message recovery, §11).
    if (st.new_version == uim->version &&
        sw.lookup(f) == std::optional<std::int32_t>(uim->egress_port_updated)) {
      after_state_change(sw, *uim, unm.layer);
      return;
    }
    if (!congestion_gate(sw, std::move(pkt), in_port, f,
                         uim->egress_port_updated)) {
      return;
    }
    count_verify(sw, VerifyOutcome::kAccept);
    trace.add({sw.now(), TraceKind::kVerifyAccepted, id_, f, unm.new_version,
               unm.new_distance, "sl accept"});
    apply_sl(sw, *uim, unm);
    return;
  }

  // Dual-layer path (Alg. 2).
  const DlOutcome outcome =
      dl_verify(st, uim, unm, params_.allow_consecutive_dual);
  switch (outcome) {
    case DlOutcome::kSwitchToSl:
      // Handled above; unreachable, kept for exhaustiveness.
      return;
    case DlOutcome::kWaitForUim:
      park(sw, std::move(pkt), in_port, "wait-for-uim");
      return;
    case DlOutcome::kDropOutdated:
      count_verify(sw, VerifyOutcome::kReject);
      trace.add({sw.now(), TraceKind::kVerifyRejected, id_, f,
                 unm.new_version, st.new_version, "dl outdated"});
      alarm(sw, f, unm.new_version, AlarmCode::kOutdatedVersion);
      return;
    case DlOutcome::kDropDistance:
      count_verify(sw, VerifyOutcome::kReject);
      trace.add({sw.now(), TraceKind::kVerifyRejected, id_, f,
                 unm.new_distance, uim->new_distance, "dl distance"});
      alarm(sw, f, unm.new_version, AlarmCode::kDistanceMismatch);
      return;
    case DlOutcome::kRejectGateway:
      // Normal dependency resolution: a later proposal with a smaller
      // segment id will arrive once downstream segments merged.
      ++rejects_;
      count_verify(sw, VerifyOutcome::kReject);
      trace.add({sw.now(), TraceKind::kVerifyRejected, id_, f,
                 unm.old_distance, st.new_distance, "dl gateway-reject"});
      return;
    case DlOutcome::kIgnore:
      // No state progress — but if this node already runs the version, pass
      // the notification along anyway (retransmission support for the §11
      // recovery path; strictly-upstream travel keeps it bounded).
      if (st.new_version == unm.new_version && uim != nullptr &&
          uim->version == st.new_version &&
          sw.lookup(f) ==
              std::optional<std::int32_t>(uim->egress_port_updated)) {
        after_state_change(sw, *uim, unm.layer);
      }
      return;
    case DlOutcome::kInnerUpdate:
    case DlOutcome::kGatewayUpdate: {
      if (!congestion_gate(sw, std::move(pkt), in_port, f,
                           uim->egress_port_updated)) {
        return;
      }
      count_verify(sw, VerifyOutcome::kAccept);
      trace.add({sw.now(), TraceKind::kVerifyAccepted, id_, f,
                 unm.new_version, unm.old_distance,
                 outcome == DlOutcome::kInnerUpdate ? "dl inner"
                                                    : "dl gateway"});
      uib_.write_applied(f, dl_apply(outcome, st, *uim, unm));
      if (uim->child_port < 0) {
        net::FlowIndex& idx = uib_.flow_index();
        const net::FlowHandle h = idx.intern(f);
        ingress_old_port_.row(h, idx.generation(h)) =
            sw.lookup(f).value_or(-1);
      }
      const p4rt::UimHeader u = *uim;
      const UnmLayer layer = unm.layer;
      const bool quick = sw.lookup(f) ==
                         std::optional<std::int32_t>(u.egress_port_updated);
      sw.install_rule(
          f, u.egress_port_updated,
          [this, &sw, u, layer]() {
            scheduler_.on_resolved(uib_, u.flow);
            after_state_change(sw, u, layer);
          },
          quick);
      return;
    }
    case DlOutcome::kInherit: {
      count_verify(sw, VerifyOutcome::kAccept);
      trace.add({sw.now(), TraceKind::kVerifyAccepted, id_, f,
                 unm.new_version, unm.old_distance, "dl inherit"});
      uib_.write_applied(f, dl_apply(outcome, st, *uim, unm));
      // The forwarding rule itself is unchanged, but this node's own
      // install for the current version may still be in flight; the chain
      // must not pass until the rule is physically active (blackhole
      // freedom depends on downstream rule existence). A quick register
      // write serializes behind any pending install of this flow.
      const p4rt::UimHeader u = *uim;
      const UnmLayer layer = unm.layer;
      sw.install_rule(
          f, u.egress_port_updated,
          [this, &sw, u, layer]() { after_state_change(sw, u, layer); },
          /*quick=*/true);
      return;
    }
  }
}

}  // namespace p4u::core
