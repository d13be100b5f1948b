// P4UpdateSwitch: the P4Update data-plane program (§6-§8), one instance per
// switch. Responsibilities, mirroring the prototype's four tasks (§8):
//   (1) generate FRM when a new flow appears at its ingress,
//   (2) process UIM (store label in UIB; egress applies directly and emits
//       the first-layer UNM; DL segment egresses emit intra-segment UNMs),
//   (3) generate/process UNM (Alg. 1 / Alg. 2 verification, resubmission
//       waiting, congestion checks, upstream propagation via the clone
//       session port),
//   (4) generate UFM (ingress converged, or alarms on rejected updates).
#pragma once

#include <array>

#include "net/flow_index.hpp"

#include "core/congestion.hpp"
#include "core/dl_verify.hpp"
#include "core/sl_verify.hpp"
#include "core/uib.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/switch_device.hpp"

namespace p4u::core {

struct P4UpdateSwitchParams {
  /// Enables the §7.4 / §A.2 congestion extension (capacity checks and the
  /// dynamic priority scheduler).
  bool congestion_mode = false;
  /// Enables the Appendix C extension (consecutive dual-layer updates).
  bool allow_consecutive_dual = false;
  /// How long a parked UNM may recirculate (waiting for its UIM or for
  /// capacity) before the switch gives up and alarms the controller.
  sim::Duration wait_timeout = sim::seconds(10);
  /// §11 failure recovery: after receiving a UIM, a switch expects the
  /// triggering UNM within this window; if the version is still not applied
  /// by then, it alarms the controller (which may re-trigger the update).
  /// 0 disables the watchdog.
  sim::Duration uim_watchdog = 0;
};

class P4UpdateSwitch final : public p4rt::Pipeline {
 public:
  P4UpdateSwitch(net::NodeId id, const net::Graph& graph,
                 P4UpdateSwitchParams params = {});

  void handle(p4rt::SwitchDevice& sw, p4rt::Packet pkt,
              std::int32_t in_port) override;
  void on_data_packet(p4rt::SwitchDevice& sw, p4rt::DataHeader& data,
                      std::int32_t in_port) override;
  void on_crash(p4rt::SwitchDevice& sw) override;

  /// Installs the initial configuration for a flow (bring-up; instantaneous,
  /// like a pre-existing deployment).
  void bootstrap_flow(p4rt::SwitchDevice& sw, FlowId f, Version version,
                      Distance distance, std::int32_t egress_port,
                      double size);

  [[nodiscard]] Uib& uib() { return uib_; }
  [[nodiscard]] const Uib& uib() const { return uib_; }
  [[nodiscard]] const CongestionScheduler& scheduler() const {
    return scheduler_;
  }
  [[nodiscard]] net::NodeId id() const { return id_; }

  // Counters for tests/benches.
  [[nodiscard]] std::uint64_t unms_sent() const { return unms_sent_; }
  [[nodiscard]] std::uint64_t resubmissions() const { return resubmissions_; }
  [[nodiscard]] std::uint64_t rejects() const { return rejects_; }

  /// Per-flow rows resident across the UIB index and the protocol scratch
  /// pools. Every pool is addressed by the UIB's flow index, so the slot
  /// count bounds them all; the reclaim regression pins that repeated
  /// batches do not grow it (the old per-(flow,version) UFM-dedup set did).
  [[nodiscard]] std::size_t resident_flow_slots() const {
    return uib_.flow_index().slot_count();
  }

 private:
  void handle_uim(p4rt::SwitchDevice& sw, const p4rt::UimHeader& uim);
  void handle_unm(p4rt::SwitchDevice& sw, p4rt::Packet pkt,
                  std::int32_t in_port);
  void handle_cleanup(p4rt::SwitchDevice& sw, const p4rt::CleanupHeader& c);

  void apply_sl(p4rt::SwitchDevice& sw, const p4rt::UimHeader& uim,
                const p4rt::UnmHeader& unm);
  void apply_egress(p4rt::SwitchDevice& sw, const p4rt::UimHeader& uim);

  /// Parks an UNM via resubmission, enforcing the wait timeout.
  void park(p4rt::SwitchDevice& sw, p4rt::Packet pkt, std::int32_t in_port,
            const char* why);

  /// Capacity gate; returns true if the move may proceed now. Owns the
  /// packet: on deferral it is parked (moved into resubmission), on success
  /// it is consumed (callers keep their own copy of the UNM header).
  bool congestion_gate(p4rt::SwitchDevice& sw, p4rt::Packet pkt,
                       std::int32_t in_port, FlowId f, std::int32_t to_port);

  /// Emits an UNM carrying this node's applied state out of `port`.
  void emit_unm(p4rt::SwitchDevice& sw, FlowId f, std::int32_t port,
                p4rt::UnmLayer layer, p4rt::UpdateType type);

  /// Emits UNMs to the UIM's child port and every extra child port
  /// (destination-tree fan-out, §11).
  void emit_unm_fanout(p4rt::SwitchDevice& sw, const p4rt::UimHeader& uim,
                       p4rt::UnmLayer layer);

  /// Post-install bookkeeping: UFM at a converged ingress, else upstream UNM.
  void after_state_change(p4rt::SwitchDevice& sw, const p4rt::UimHeader& uim,
                          p4rt::UnmLayer layer);

  void alarm(p4rt::SwitchDevice& sw, FlowId f, Version v, p4rt::AlarmCode code);

  /// UNM verdicts, counted as p4update.verify {switch, outcome}.
  enum class VerifyOutcome : std::uint8_t { kAccept, kDefer, kReject };
  void count_verify(p4rt::SwitchDevice& sw, VerifyOutcome outcome);

  /// (Re-)arms the §11 UIM watchdog for this UIM's flow. Each arm bumps the
  /// flow's generation; a timer whose generation went stale no-ops.
  void arm_watchdog(p4rt::SwitchDevice& sw, const p4rt::UimHeader& uim);

  /// True once this node (as flow ingress) sent the success UFM for
  /// (flow, version).
  [[nodiscard]] bool completion_reported(FlowId f, Version v) const;

  net::NodeId id_;
  const net::Graph* graph_;
  P4UpdateSwitchParams params_;
  Uib uib_;
  CongestionScheduler scheduler_;
  // Per-flow protocol scratch, flat over the UIB's flow index (one handle
  // per flow covers every pool; rows of recycled handles read as default).
  net::FlowPool<std::uint8_t> reported_flows_{0};  // FRM de-duplication
  // Highest version this node (as flow ingress) sent the success UFM for.
  // Replaces the per-(flow,version) dedup-key set that grew by one entry
  // per flow per batch, forever: versions are strictly increasing per flow
  // (§3), so one Version per flow carries the same "already reported"
  // decision with O(flows) residency.
  net::FlowPool<Version> completed_version_{0};
  // Old-path egress port at the ingress, captured when the ingress applies
  // an update; the §11 cleanup packet leaves through it on convergence.
  net::FlowPool<std::int32_t> ingress_old_port_{-1};
  // §11 2-phase commit: base flow id -> tagged flow id stamped at ingress
  // (0 = no stamp, matching the TwoPhaseCoordinator's "no tag" sentinel).
  net::FlowPool<FlowId> stamps_{0};
  // Watchdog arm generation per flow: a scheduled timer only fires if its
  // generation is still current, so re-arming (duplicate UIM) supersedes
  // the previous timer instead of double-alarming.
  net::FlowPool<std::uint64_t> watchdog_gen_{0};
  std::uint64_t unms_sent_ = 0;
  std::uint64_t resubmissions_ = 0;
  std::uint64_t rejects_ = 0;
  // Per-event metric handles into the fabric's registry, resolved on first
  // use (obs::resolve_once).
  std::array<obs::Counter,
             static_cast<std::size_t>(VerifyOutcome::kReject) + 1>
      verify_;
  std::array<obs::Counter,
             static_cast<std::size_t>(p4rt::AlarmCode::kMalformed) + 1>
      alarms_;
  obs::Counter update_completed_;
  obs::Counter watchdog_armed_;
  obs::Counter watchdog_fired_;
};

}  // namespace p4u::core
