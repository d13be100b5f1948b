// P4UpdateController: the control-plane side of P4Update (§6, §8).
//
// Its per-update work is deliberately thin — compute distance labels and the
// path segmentation, choose SL vs DL (§7.5), emit one UIM per switch on the
// new path — because dependency resolution (congestion ordering, gateway
// waiting) happens in the data plane. Fig. 8 benchmarks exactly this
// preparation step against ez-Segway's, so `prepare()` is exposed as a pure
// function of (old path, new path).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "control/dest_tree.hpp"
#include "control/flow_db.hpp"
#include "control/labeling.hpp"
#include "control/nib.hpp"
#include "control/segmentation.hpp"
#include "faults/recovery.hpp"
#include "p4rt/control_channel.hpp"
#include "p4rt/fabric.hpp"
#include "verify/lattice.hpp"
#include "verify/plan.hpp"

namespace p4u::core {

struct P4UpdateControllerParams {
  bool congestion_mode = false;
  std::size_t sl_node_budget = 5;  // §7.5 threshold
  /// Ablation hook: force every update to SL or DL regardless of §7.5.
  std::optional<p4rt::UpdateType> force_type;
  /// Appendix C: allow DL directly after DL (otherwise the controller
  /// inserts the §11 restriction and downgrades to SL).
  bool allow_consecutive_dual = false;
  /// §11 "Failures in the Update Process": when a switch reports that it
  /// gave up waiting (lost UNM/UIM), re-send the version's UIMs so the
  /// egress re-generates the notification chain. Bounded per version by
  /// kMaxRetriggers.
  bool enable_retrigger = false;
  /// Record the wall-clock preparation cost (the Fig. 8 quantity) into the
  /// ctrl.prep_ms histogram. The one real-time measurement in the
  /// simulation — campaigns turn it off so merged run reports stay
  /// byte-identical across reruns and worker counts.
  bool measure_prep_wallclock = true;
  /// Failure-domain recovery: completion timers with exponential backoff,
  /// resend on timeout, repair updates around dead elements. Off by default
  /// (fault-free runs stay bit-exact).
  faults::RecoveryParams recovery;
  /// DESIGN.md §12: before dispatching an update, statically verify the
  /// prepared plan over its full transient-state lattice and count the
  /// verdict (ctrl.preflight_safe / _unsafe / _unknown). Tree updates are
  /// counted as ctrl.preflight_skipped — the controller holds no believed
  /// old tree to verify against.
  bool static_preflight = false;
  /// With static_preflight: refuse to dispatch a plan whose verdict is
  /// Unsafe (the believed old path is kept; schedule_update returns 0).
  bool enforce_preflight = false;
};

/// §11 re-triggers allowed per (flow, version).
constexpr int kMaxRetriggers = 5;

class P4UpdateController final : public faults::RecoveringController {
 public:
  P4UpdateController(p4rt::ControlChannel& channel, control::Nib nib,
                     P4UpdateControllerParams params = {});

  /// Deploys a brand-new flow *through the data plane*: registers it at
  /// version 0 and issues a version-1 update over `path`. The egress
  /// applies directly and the UNM chain installs rules upstream — fresh
  /// rules are trivially loop-free and carry no traffic until the ingress
  /// rule lands (§8 new-path setup; also phase 1 of the §11 2-phase
  /// commit). Returns the version used (1).
  p4rt::Version deploy_new_flow(const net::Flow& f, const net::Path& path);

  struct Prepared {
    p4rt::Version version = 0;
    p4rt::UpdateType type = p4rt::UpdateType::kSingleLayer;
    control::Segmentation segmentation;
    std::vector<p4rt::UimHeader> uims;  // egress first (chain starts there)
  };

  /// Pure preparation: labels + segmentation + UIM contents for moving
  /// `flow` onto `new_path`, against the controller's believed old path.
  /// Does not mutate controller state (Fig. 8 measures this).
  /// `type_override` bypasses the §7.5 strategy (used when re-sending a
  /// version that was already issued with a decided type). Issuing runs the
  /// same preparation into buffers the controller reuses.
  [[nodiscard]] Prepared prepare(
      net::FlowId flow, const net::Path& new_path, p4rt::Version version,
      std::optional<p4rt::UpdateType> type_override = std::nullopt) const;

  /// Issues the update: bumps the version, sends the UIMs (egress first),
  /// and records it in the Flow DB. Returns the version used, or 0 when
  /// enforce_preflight refused the plan.
  p4rt::Version schedule_update(net::FlowId flow,
                                const net::Path& new_path) override;

  /// §11 destination-based routing: updates the destination's whole
  /// forwarding tree in one verified wave. Depths become the distances, the
  /// root acts as the egress, and the UNM fans out to every child; each
  /// leaf reports a UFM and the update completes when all leaves did. The
  /// tree flow must already be registered (register_tree / deploy) — the
  /// flow id conventionally identifies the destination.
  p4rt::Version schedule_tree_update(net::FlowId flow,
                                     const control::DestTree& tree);

  /// Registers a destination-tree "flow" (the believed path is the root
  /// only; tree state lives in the data plane).
  void register_tree(const net::Flow& f);

  void handle_from_switch(net::NodeId from, const p4rt::Packet& pkt) override;

  [[nodiscard]] const P4UpdateControllerParams& params() const {
    return params_;
  }

  /// Invoked on UFM alarm.
  std::function<void(net::FlowId, p4rt::Version, p4rt::AlarmCode)> on_alarm;
  /// Invoked on FRM (new flow seen in the data plane).
  std::function<void(const p4rt::FrmHeader&)> on_frm;

 private:
  /// The one preparation: fills `out` (and the `labels` scratch), reusing
  /// both buffers' capacity.
  void prepare_into(Prepared& out, std::vector<control::NodeLabel>& labels,
                    net::FlowId flow, const net::Path& new_path,
                    p4rt::Version version,
                    std::optional<p4rt::UpdateType> type_override) const;
  /// Per-flow protocol state, addressed by the NIB's handle.
  struct FlowRow {
    std::optional<p4rt::UpdateType> last_type;  // what was last issued
    // §11 re-triggers of `retrigger_version`. Only the flow's newest version
    // is ever re-triggered, so one counter per flow covers every version.
    p4rt::Version retrigger_version = 0;
    int retriggers = 0;
  };
  FlowRow& flow_row(net::FlowId flow) { return flow_rows_.at(nib_, flow); }
  /// A destination-tree update still waiting for leaf UFMs.
  struct TreeWave {
    net::FlowId flow = 0;
    p4rt::Version version = 0;
    int remaining = 0;
  };

  // --- recovery hooks (faults::RecoveringController) ---
  /// Re-sends the UIMs of an already-issued (flow, version), keeping the
  /// originally decided update type (shared by §11 retrigger and the
  /// recovery resend path).
  void resend(net::FlowId flow, p4rt::Version version) override;
  /// Nothing to drop: the repair's newer version fast-forwards the data
  /// plane past the doomed one.
  void cancel_inflight(net::FlowId, p4rt::Version, bool) override {}
  /// Nothing waits: every update is issued on arrival.
  void pump_next(std::span<const net::FlowId>) override {}
  /// Re-issues the believed path so the verified UNM chain re-installs
  /// every hop.
  void redeploy(net::FlowId flow, net::NodeId node) override;

  P4UpdateControllerParams params_;
  control::FlowRows<FlowRow> flow_rows_;
  std::uint64_t retriggers_total_ = 0;
  // Tree updates complete when every leaf reported; a path update expects
  // exactly one UFM and has no wave here.
  std::vector<TreeWave> tree_waves_;
  // Preparation buffers reused by every issue and resend.
  Prepared prepared_;
  std::vector<control::NodeLabel> labels_;
  net::Path resend_path_;
  // The static preflight's plan and lattice scratch, reused by every update.
  verify::FlowPlan preflight_plan_;
  verify::LatticeWorkspace preflight_ws_;
  // Per-event metric handles, resolved on first use (obs::resolve_once).
  obs::Counter preflight_safe_;
  obs::Counter preflight_unsafe_;
  obs::Counter preflight_unknown_;
  obs::Counter preflight_skipped_;
  obs::Counter alarms_received_;
  obs::Counter retriggers_counter_;
  obs::Histogram prep_ms_;
  obs::Histogram update_rtt_ms_;

 public:
  /// Number of §11 re-triggers performed (tests/benches).
  [[nodiscard]] std::uint64_t retriggers_sent() const {
    return retriggers_total_;
  }
};

}  // namespace p4u::core
