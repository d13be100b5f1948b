// EzSegwayController: control-plane side of the ez-Segway baseline ([63],
// as adapted in §9.1).
//
// Per update it computes the in_loop / not_in_loop segmentation, encodes the
// update order into per-switch commands, and — in the congestion variant —
// computes static flow priorities from the global dependency graph (the
// expensive centralized step Fig. 8b measures). Unlike P4Update it has no
// fast-forward: a new update for a flow is queued until the previous one
// completed (§4.2).
#pragma once

#include <map>
#include <span>
#include <vector>

#include "baselines/dependency_graph.hpp"
#include "control/flow_db.hpp"
#include "control/nib.hpp"
#include "control/segmentation.hpp"
#include "faults/recovery.hpp"
#include "p4rt/control_channel.hpp"
#include "sim/small_vec.hpp"

namespace p4u::baseline {

struct EzControllerParams {
  bool congestion_mode = false;
  /// Failure-domain recovery: completion timers, command resends with the
  /// retrigger flag, repair updates around dead elements. Off by default.
  faults::RecoveryParams recovery;
};

/// Virtual controller time per elementary dependency-graph operation (a
/// vertex/edge visit in the centralized scheduler). Calibrated to a Python
/// graph-library controller like the paper's (networkx-style per-operation
/// overhead, ~1/50 of one full message handling); this is what makes the
/// measured Fig. 8b prep gap (50x-500x) show up in Fig. 7's multi-flow
/// update times.
constexpr sim::Duration kWorkUnitCost = sim::microseconds(50);

class EzSegwayController final : public faults::RecoveringController {
 public:
  EzSegwayController(p4rt::ControlChannel& channel, control::Nib nib,
                     EzControllerParams params = {});

  struct Prepared {
    p4rt::Version version = 0;
    std::vector<p4rt::EzCmdHeader> cmds;  // one per involved switch
    std::int32_t nontrivial_segments = 0;
  };

  /// Pure preparation for one flow (Fig. 8a measures this). Issuing runs
  /// the same preparation into buffers the controller reuses.
  [[nodiscard]] Prepared prepare(net::FlowId flow, const net::Path& new_path,
                                 p4rt::Version version) const;

  /// Pure congestion preparation across a batch of moves (Fig. 8b): the
  /// global dependency graph and static 3-class priorities.
  [[nodiscard]] std::map<net::FlowId, EzPriority> prepare_priorities(
      const std::vector<std::pair<net::FlowId, net::Path>>& updates) const;

  /// Schedules one flow update; queues it if this flow's previous update is
  /// still in flight (ez-Segway's consistency choice, §4.2) and returns 0.
  /// on_settled fires before a settled update's queued follow-up is issued.
  p4rt::Version schedule_update(net::FlowId flow,
                                const net::Path& new_path) override;

  /// Batch preamble: computes the congestion variant's global priorities
  /// (and occupies the channel for the centralized compute) before any of
  /// the batch's updates is issued. No-op outside congestion mode. Callers
  /// follow up with one schedule_update per entry.
  void prepare_batch(
      const std::vector<std::pair<net::FlowId, net::Path>>& updates);

  /// Schedules a batch (multi-flow scenario): prepare_batch + one
  /// schedule_update per entry.
  void schedule_updates(
      const std::vector<std::pair<net::FlowId, net::Path>>& updates);

  void handle_from_switch(net::NodeId from, const p4rt::Packet& pkt) override;

 private:
  /// Scratch of one preparation, kept by the controller across updates.
  struct PrepareScratch {
    control::Segmentation seg;
    std::vector<char> nontrivial;           // per segment
    std::vector<p4rt::EzCmdHeader> by_node;  // one command per switch
  };
  /// The one preparation: fills `out`, reusing its and `scratch`'s buffers.
  void prepare_into(Prepared& out, PrepareScratch& scratch, net::FlowId flow,
                    const net::Path& new_path, p4rt::Version version) const;

  /// An issued update still waiting for segment UFMs.
  struct Inflight {
    p4rt::Version version = 0;
    std::int32_t remaining = 0;  // non-trivial segments not yet done
    // Segment-top reporters already counted against `remaining`: recovery
    // resends make duplicate UFMs possible, and a double-decrement would
    // complete an update whose segments never all finished.
    sim::SmallVec<net::NodeId, 4> reported;
  };
  /// Per-flow state, addressed by the NIB's handle.
  struct FlowRow {
    // Usually one entry: ez-Segway issues onto an idle flow only (§4.2).
    // A belief forced idle while an update is in flight (Fig. 2's stale
    // controller) issues the next one beside it, and both stay live.
    std::vector<Inflight> inflight;
    // Updates waiting for the in-flight one, oldest at queued_head.
    std::vector<net::Path> queued;
    std::size_t queued_head = 0;
    // The congestion variant's static priority, valid for priority_batch.
    std::uint8_t priority = 0;
    std::uint64_t priority_batch = 0;
  };
  FlowRow& row(net::FlowId flow) { return rows_.at(nib_, flow); }
  [[nodiscard]] std::uint8_t priority_of(net::FlowId flow);

  p4rt::Version issue(net::FlowId flow, const net::Path& new_path,
                      std::uint8_t priority);
  /// Pops and issues the next queued update for `flow`, if any.
  void issue_next_queued(net::FlowId flow);

  // --- recovery hooks (faults::RecoveringController) ---
  /// Re-sends the update's commands with the retrigger flag: switches that
  /// already acted re-emit their notifies/UFMs instead of re-installing.
  void resend(net::FlowId flow, p4rt::Version version) override;
  /// Forgets the update's segment bookkeeping. A repair also drops the
  /// flow's queued follow-ups and releases the flow so the repair issues.
  void cancel_inflight(net::FlowId flow, p4rt::Version version,
                       bool superseded) override;
  /// Issues each given-up flow's next queued update.
  void pump_next(std::span<const net::FlowId> settled) override;
  /// Re-pushes the believed rule as a one-node segment and kicks it.
  void redeploy(net::FlowId flow, net::NodeId node) override;

  EzControllerParams params_;
  control::FlowRows<FlowRow> rows_;
  // The batch whose priorities the rows hold (prepare_batch bumps it).
  std::uint64_t priority_batch_ = 0;
  Prepared prepared_;
  PrepareScratch scratch_;
  net::Path resend_path_;
};

}  // namespace p4u::baseline
