#include "core/p4update_controller.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "p4rt/switch_device.hpp"
#include "verify/plan.hpp"
#include "verify/verifier.hpp"

namespace p4u::core {

namespace {
// The single sanctioned real-time source in src/: Fig. 8 measures the
// controller's wall-clock preparation cost. Every read goes through this
// alias so the determinism linter sees exactly one annotated site; the
// measurement itself is gated by params_.measure_prep_wallclock, which
// campaign runs force off.
// p4u-detlint: allow(wall-clock) Fig. 8 prep-cost measurement, gated by measure_prep_wallclock
using PrepClock = std::chrono::steady_clock;
}  // namespace

P4UpdateController::P4UpdateController(p4rt::ControlChannel& channel,
                                       control::Nib nib,
                                       P4UpdateControllerParams params)
    : RecoveringController(channel, std::move(nib), params.recovery),
      params_(params) {}

p4rt::Version P4UpdateController::deploy_new_flow(const net::Flow& f,
                                                  const net::Path& path) {
  nib_.record_flow(f, path, /*initial_version=*/0);
  return schedule_update(f.id, path);
}

P4UpdateController::Prepared P4UpdateController::prepare(
    net::FlowId flow, const net::Path& new_path, p4rt::Version version,
    std::optional<p4rt::UpdateType> type_override) const {
  Prepared out;
  std::vector<control::NodeLabel> labels;
  prepare_into(out, labels, flow, new_path, version, type_override);
  return out;
}

void P4UpdateController::prepare_into(
    Prepared& out, std::vector<control::NodeLabel>& labels, net::FlowId flow,
    const net::Path& new_path, p4rt::Version version,
    std::optional<p4rt::UpdateType> type_override) const {
  const control::FlowView& view = nib_.view(flow);
  out.version = version;
  control::segment_paths_into(out.segmentation, view.believed_path, new_path);

  p4rt::UpdateType type = type_override.value_or(
      params_.force_type.value_or(control::choose_update_type(
          out.segmentation, params_.sl_node_budget)));
  // §11 restriction: DL must follow SL (unless the Appendix C extension is
  // on). The controller knows what it last issued for this flow.
  if (type == p4rt::UpdateType::kDualLayer && !params_.allow_consecutive_dual &&
      !params_.force_type.has_value() && !type_override.has_value()) {
    const FlowRow* issued = flow_rows_.find(nib_, flow);
    if (issued != nullptr &&
        issued->last_type == p4rt::UpdateType::kDualLayer) {
      type = p4rt::UpdateType::kSingleLayer;
    }
  }
  out.type = type;

  // Linear membership checks: paths and segment lists are short, and this
  // is the controller's hot path (Fig. 8 measures it).
  const auto& gateways = out.segmentation.gateways;
  const auto is_gateway = [&gateways](net::NodeId n) {
    return std::find(gateways.begin(), gateways.end(), n) != gateways.end();
  };
  const auto is_segment_egress = [&out](net::NodeId n) {
    for (const control::Segment& s : out.segmentation.segments) {
      if (s.egress_gateway == n) return true;
    }
    return false;
  };

  control::label_path_into(labels, nib_.graph(), new_path);
  out.uims.clear();
  out.uims.reserve(labels.size());
  // Egress first: its UIM starts the notification chain, so putting it at
  // the head of the controller's send queue minimizes the serialized
  // controller-service head start.
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    const control::NodeLabel& l = *it;
    p4rt::UimHeader uim;
    uim.flow = flow;
    uim.target = l.node;
    uim.version = version;
    uim.new_distance = l.new_distance;
    uim.type = type;
    uim.egress_port_updated = l.egress_port_updated;
    uim.child_port = l.child_port;
    uim.is_flow_egress = l.is_flow_egress;
    uim.is_gateway = is_gateway(l.node);
    uim.is_segment_egress = type == p4rt::UpdateType::kDualLayer &&
                            !l.is_flow_egress && is_segment_egress(l.node);
    uim.flow_size = view.flow.size;
    out.uims.push_back(uim);
  }
}

p4rt::Version P4UpdateController::schedule_update(net::FlowId flow,
                                                  const net::Path& new_path) {
  // Wall-clock preparation cost: the Fig. 8 quantity (the only real-time
  // measurement in the simulation), recorded unless the run needs a fully
  // deterministic registry; the clock is read only then. Prepared against
  // the version next_version will hand out, which is only consumed once the
  // preflight (if any) passes.
  const bool timed = params_.measure_prep_wallclock;
  const auto t0 = timed ? PrepClock::now() : PrepClock::time_point{};
  prepare_into(prepared_, labels_, flow, new_path,
               nib_.view(flow).version + 1, std::nullopt);
  if (timed) {
    const auto t1 = PrepClock::now();
    obs::resolve_once(prep_ms_, [this] {
      return channel_.metrics().histogram("ctrl.prep_ms");
    }).observe(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  if (params_.static_preflight) {
    // Plan from the segmentation and update type prepare() decided, so the
    // lattice matches the UIMs about to go out.
    verify::fill_p4update_plan(preflight_plan_, flow,
                               nib_.view(flow).believed_path, new_path,
                               prepared_.segmentation, prepared_.type);
    const verify::Verdict verdict =
        verify::verify_plan(preflight_plan_, preflight_ws_);
    if (verdict.safe()) {
      ctrl_counter(preflight_safe_, "ctrl.preflight_safe").inc();
    } else if (verdict.unsafe()) {
      ctrl_counter(preflight_unsafe_, "ctrl.preflight_unsafe").inc();
    } else {
      ctrl_counter(preflight_unknown_, "ctrl.preflight_unknown").inc();
    }
    if (params_.enforce_preflight && verdict.unsafe()) {
      return 0;  // belief (and version counter) untouched: nothing was sent
    }
  }
  const p4rt::Version version = begin_update(flow, new_path);
  flow_row(flow).last_type = prepared_.type;
  for (const p4rt::UimHeader& uim : prepared_.uims) {
    channel_.send_to_switch(uim.target, p4rt::Packet{uim});
  }
  track_update(flow, version);
  return version;
}

void P4UpdateController::register_tree(const net::Flow& f) {
  // Tree state lives in the data plane; the believed "path" is the root.
  nib_.record_flow(f, net::Path{f.egress}, 1);
}

p4rt::Version P4UpdateController::schedule_tree_update(
    net::FlowId flow, const control::DestTree& tree) {
  if (params_.static_preflight) {
    // The NIB stores only the believed root for tree flows, so there is no
    // believed old tree to build a lattice against; counted, not verified.
    ctrl_counter(preflight_skipped_, "ctrl.preflight_skipped").inc();
  }
  // Tree state lives in the data plane: the record carries no path.
  const p4rt::Version version = begin_update(flow, {});
  const control::FlowView& view = nib_.view(flow);
  const auto labels = control::label_tree(nib_.graph(), tree);

  int leaves = 0;
  std::vector<p4rt::UimHeader> uims;
  uims.reserve(labels.size());
  for (const control::TreeNodeLabel& l : labels) {
    p4rt::UimHeader uim;
    uim.flow = flow;
    uim.target = l.node;
    uim.version = version;
    uim.new_distance = l.depth;
    uim.type = p4rt::UpdateType::kSingleLayer;  // tree waves are SL-verified
    uim.egress_port_updated = l.parent_port;
    uim.is_flow_egress = l.node == tree.root;
    uim.flow_size = view.flow.size;
    if (!l.child_ports.empty()) {
      uim.child_port = l.child_ports.front();
      uim.extra_child_ports.assign(l.child_ports.begin() + 1,
                                   l.child_ports.end());
    }
    if (l.is_leaf) ++leaves;
    uims.push_back(std::move(uim));
  }

  flow_row(flow).last_type = p4rt::UpdateType::kSingleLayer;
  tree_waves_.push_back(TreeWave{flow, version, leaves});
  // Root first (labels are BFS order): it starts the wave.
  for (const p4rt::UimHeader& uim : uims) {
    channel_.send_to_switch(uim.target, p4rt::Packet{uim});
  }
  return version;
}

void P4UpdateController::handle_from_switch(net::NodeId from,
                                            const p4rt::Packet& pkt) {
  (void)from;
  if (pkt.is<p4rt::UfmHeader>()) {
    const auto& ufm = pkt.as<p4rt::UfmHeader>();
    if (ufm.success) {
      // Tree updates complete when every leaf reported; path updates expect
      // exactly one UFM (the ingress).
      const auto wave = std::find_if(
          tree_waves_.begin(), tree_waves_.end(), [&ufm](const TreeWave& w) {
            return w.flow == ufm.flow && w.version == ufm.version;
          });
      if (wave != tree_waves_.end()) {
        if (--wave->remaining > 0) return;
        tree_waves_.erase(wave);
      }
      complete(ufm.flow, ufm.version);
      // The record's duration is final once completed, whatever the settle
      // handlers issued meanwhile.
      if (const auto rtt = flow_db_.duration(ufm.flow, ufm.version)) {
        obs::resolve_once(update_rtt_ms_, [this] {
          return channel_.metrics().histogram("ctrl.update_rtt_ms");
        }).observe(sim::to_ms(*rtt));
      }
    } else {
      flow_db_.on_alarm(ufm.flow, ufm.version);
      ctrl_counter(alarms_received_, "ctrl.alarms_received").inc();
      if (on_alarm) on_alarm(ufm.flow, ufm.version, ufm.alarm);
      // §11 failure recovery: a kMalformed alarm means a switch gave up
      // waiting (lost UIM or UNM). If this version is still the one we
      // want, re-send its UIMs — the egress re-generates the UNM chain and
      // Alg. 1/2 re-run idempotently.
      if (params_.enable_retrigger &&
          ufm.alarm == p4rt::AlarmCode::kMalformed &&
          !issued_path(ufm.flow, ufm.version).empty() &&
          nib_.view(ufm.flow).version == ufm.version) {
        FlowRow& counts = flow_row(ufm.flow);
        if (counts.retrigger_version != ufm.version) {
          counts.retrigger_version = ufm.version;
          counts.retriggers = 0;
        }
        if (counts.retriggers < kMaxRetriggers) {
          ++counts.retriggers;
          ++retriggers_total_;
          ctrl_counter(retriggers_counter_, "ctrl.retriggers").inc();
          resend(ufm.flow, ufm.version);
        }
      }
    }
    return;
  }
  if (pkt.is<p4rt::FrmHeader>()) {
    if (on_frm) on_frm(pkt.as<p4rt::FrmHeader>());
    return;
  }
}

void P4UpdateController::resend(net::FlowId flow, p4rt::Version version) {
  const auto path = issued_path(flow, version);
  if (path.empty()) return;
  resend_path_.assign(path.begin(), path.end());
  // Keep the originally decided type: Alg. 1/2 re-run idempotently on
  // switches that already applied, and the rest pick the update up.
  const FlowRow* issued = flow_rows_.find(nib_, flow);
  prepare_into(prepared_, labels_, flow, resend_path_, version,
               issued != nullptr ? issued->last_type : std::nullopt);
  for (const p4rt::UimHeader& uim : prepared_.uims) {
    channel_.send_to_switch(uim.target, p4rt::Packet{uim});
  }
}

void P4UpdateController::redeploy(net::FlowId flow, net::NodeId node) {
  (void)node;
  // The restarted switch lost its rules and UIB (Table 1 registers are
  // volatile): the believed path's version carries every hop again.
  schedule_update(flow, nib_.view(flow).believed_path);
}

}  // namespace p4u::core
