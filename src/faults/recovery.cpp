#include "faults/recovery.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"

namespace p4u::faults {

bool HealthView::path_ok(const net::Graph& g,
                         std::span<const net::NodeId> path) const {
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!node_ok(path[i])) return false;
    if (i + 1 < path.size()) {
      const auto l = g.find_link(path[i], path[i + 1]);
      if (!l || !link_ok(*l)) return false;
    }
  }
  return true;
}

bool HealthView::path_uses_node(std::span<const net::NodeId> path,
                                net::NodeId n) {
  return std::find(path.begin(), path.end(), n) != path.end();
}

bool HealthView::path_uses_link(const net::Graph& g,
                                std::span<const net::NodeId> path,
                                net::LinkId l) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto hop = g.find_link(path[i], path[i + 1]);
    if (hop && *hop == l) return true;
  }
  return false;
}

std::optional<net::Path> HealthView::repair_path(const net::Graph& g,
                                                 net::NodeId src,
                                                 net::NodeId dst) const {
  const std::vector<net::LinkId> links(down_links_.begin(), down_links_.end());
  const std::vector<net::NodeId> nodes(down_nodes_.begin(), down_nodes_.end());
  return net::shortest_path_avoiding_elements(g, src, dst, links, nodes);
}

RecoveringController::RecoveringController(p4rt::ControlChannel& channel,
                                           control::Nib nib,
                                           RecoveryParams recovery)
    : channel_(channel), nib_(std::move(nib)), recovery_(recovery) {
  channel_.set_app(this);
}

void RecoveringController::register_flow(const net::Flow& f,
                                         const net::Path& initial_path) {
  nib_.record_flow(f, initial_path);
}

p4rt::Version RecoveringController::begin_update(
    net::FlowId flow, std::span<const net::NodeId> path) {
  const p4rt::Version v = nib_.next_version(flow);
  nib_.view(flow).update_in_progress = true;
  // Issue timestamp is "now" at the controller; the ControlChannel
  // serializes the actual sends (update time is measured from the sending
  // of the first message to the confirmation, §9.2).
  flow_db_.on_issued(flow, v, channel_.now(), path);
  return v;
}

std::span<const net::NodeId> RecoveringController::issued_path(
    net::FlowId flow, p4rt::Version v) const {
  const control::UpdateRecord* r = flow_db_.record(flow, v);
  if (r == nullptr) return {};
  return {r->path.begin(), r->path.size()};
}

obs::Counter& RecoveringController::ctrl_counter(obs::Counter& handle,
                                                 const char* name) {
  return obs::resolve_once(handle,
                           [&] { return channel_.metrics().counter(name); });
}

void RecoveringController::complete(net::FlowId flow, p4rt::Version v) {
  flow_db_.on_completed(flow, v, channel_.now());
  if (const auto path = issued_path(flow, v); !path.empty()) {
    nib_.believe_path(flow, path);
  }
  nib_.view(flow).update_in_progress = false;
  // Completion disarms the timer (a timer for a newer version stays armed:
  // its RetryState carries that version).
  RetryState& rs = retry(flow);
  if (rs.version == v) rs = RetryState{};
  if (on_complete) on_complete(flow, v, channel_.now());
  if (on_settled) {
    on_settled(flow, v, control::UpdateOutcome::kCompleted, channel_.now());
  }
}

void RecoveringController::untrack(net::FlowId flow) {
  nib_.view(flow).update_in_progress = false;
  retry(flow) = RetryState{};
}

void RecoveringController::track_update(net::FlowId flow, p4rt::Version v) {
  if (!recovery_.enabled) return;
  retry(flow) = RetryState{v, 0, ++retry_gen_};
  arm_retry_timer(flow);
}

void RecoveringController::arm_retry_timer(net::FlowId flow) {
  const RetryState& rs = retry(flow);
  channel_.simulator().schedule_in(
      kInitialTimeout << rs.attempts,
      [this, flow, gen = rs.gen]() { on_retry_timer(flow, gen); });
}

void RecoveringController::on_retry_timer(net::FlowId flow,
                                          std::uint64_t gen) {
  // Generations start at 1, so a cleared RetryState never matches.
  RetryState& rs = retry(flow);
  if (rs.gen != gen) return;  // superseded
  const p4rt::Version v = rs.version;
  if (rs.attempts >= kMaxRetries) {
    // Rolled back when the previously installed path is believed healthy
    // (traffic keeps flowing on it); abandoned when even that path is dead.
    const bool old_ok =
        health_.path_ok(nib_.graph(), nib_.view(flow).believed_path);
    give_up(flow, v,
            old_ok ? control::UpdateOutcome::kRolledBack
                   : control::UpdateOutcome::kAbandoned);
    pump_next({&flow, 1});
    return;
  }
  ++rs.attempts;
  rs.gen = ++retry_gen_;  // the re-armed timer below owns the entry now
  ctrl_counter(resends_, "ctrl.recovery_resends").inc();
  resend(flow, v);
  arm_retry_timer(flow);
}

void RecoveringController::give_up(net::FlowId flow, p4rt::Version v,
                                   control::UpdateOutcome outcome) {
  cancel_inflight(flow, v, /*superseded=*/false);
  flow_db_.on_gave_up(flow, v, outcome, channel_.now());
  obs::resolve_once(gaveup_[static_cast<std::size_t>(outcome)], [&] {
    return channel_.metrics().counter(
        "ctrl.recovery_gaveup", {{"outcome", control::to_string(outcome)}});
  }).inc();
  untrack(flow);
  if (on_settled) on_settled(flow, v, outcome, channel_.now());
}

void RecoveringController::handle_link_state(net::LinkId link, net::NodeId a,
                                             net::NodeId b, bool up) {
  (void)a;
  (void)b;
  if (up) {
    health_.link_up(link);
  } else {
    health_.link_down(link);
  }
  if (!recovery_.enabled) return;
  if (!up) {
    const net::Graph& g = nib_.graph();
    repair_around([&g, link](std::span<const net::NodeId> p) {
      return HealthView::path_uses_link(g, p, link);
    });
  } else {
    reissue_after_recovery(std::nullopt);
  }
}

void RecoveringController::handle_switch_state(net::NodeId node, bool up) {
  if (up) {
    health_.switch_up(node);
  } else {
    health_.switch_down(node);
  }
  if (!recovery_.enabled) return;
  if (!up) {
    repair_around([node](std::span<const net::NodeId> p) {
      return HealthView::path_uses_node(p, node);
    });
  } else {
    reissue_after_recovery(node);
  }
}

void RecoveringController::repair_around(
    const std::function<bool(std::span<const net::NodeId>)>& hits) {
  const net::Graph& g = nib_.graph();
  std::vector<net::FlowId> abandoned;
  for (const net::FlowId flow : nib_.sorted_flow_ids()) {
    const control::FlowView& view = nib_.view(flow);
    p4rt::Version doomed = 0;  // in-flight version the fault killed (0: none)
    if (view.update_in_progress) {
      // Repair only when the update's *target* crosses the dead element;
      // an update moving away from it is already the repair.
      const RetryState* rs = retries_.find(nib_, flow);
      const p4rt::Version v =
          rs != nullptr && rs->version != 0 ? rs->version : view.version;
      const auto target = issued_path(flow, v);
      if (target.empty() || !hits(target)) continue;
      doomed = v;
    } else if (!hits(view.believed_path)) {
      continue;
    }
    const auto repair =
        health_.repair_path(g, view.flow.ingress, view.flow.egress);
    if (repair) {
      // Supersedes the doomed version (its record leaves the terminality
      // denominator; the repair's own timer takes over liveness).
      if (doomed != 0) cancel_inflight(flow, doomed, /*superseded=*/true);
      ctrl_counter(repairs_, "ctrl.recovery_repairs").inc();
      schedule_update(flow, *repair);
    } else if (doomed != 0) {
      // Disconnected by the faults: the in-flight update settles abandoned
      // now.
      give_up(flow, doomed, control::UpdateOutcome::kAbandoned);
      abandoned.push_back(flow);
    } else {
      // An idle flow keeps its (dead) config until an element returns.
      ctrl_counter(stranded_, "ctrl.recovery_stranded").inc();
    }
  }
  pump_next(abandoned);
}

void RecoveringController::reissue_after_recovery(
    std::optional<net::NodeId> restarted) {
  const net::Graph& g = nib_.graph();
  for (const net::FlowId flow : nib_.sorted_flow_ids()) {
    const control::FlowView& view = nib_.view(flow);
    if (view.update_in_progress) continue;  // a live timer owns this flow
    const control::UpdateRecord* last = flow_db_.latest(flow);
    const bool settled_short =
        last != nullptr &&
        (last->outcome == control::UpdateOutcome::kRolledBack ||
         last->outcome == control::UpdateOutcome::kAbandoned);
    if (settled_short) {
      // First choice: the update we actually wanted, if it is viable now.
      const std::span<const net::NodeId> wanted{last->path.begin(),
                                                last->path.size()};
      if (!wanted.empty() && health_.path_ok(g, wanted)) {
        ctrl_counter(reissues_, "ctrl.recovery_reissues").inc();
        schedule_update(flow, net::Path(wanted.begin(), wanted.end()));
        continue;
      }
      // Otherwise get the flow off a still-dead installed path if possible.
      if (!health_.path_ok(g, view.believed_path)) {
        const auto repair =
            health_.repair_path(g, view.flow.ingress, view.flow.egress);
        if (repair) {
          ctrl_counter(repairs_, "ctrl.recovery_repairs").inc();
          schedule_update(flow, *repair);
          continue;
        }
      }
    }
    if (restarted &&
        HealthView::path_uses_node(view.believed_path, *restarted)) {
      ctrl_counter(redeploys_, "ctrl.recovery_redeploys").inc();
      redeploy(flow, *restarted);
    }
  }
}

}  // namespace p4u::faults
