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

#include <deque>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "baselines/dependency_graph.hpp"
#include "control/flow_db.hpp"
#include "control/nib.hpp"
#include "control/segmentation.hpp"
#include "faults/recovery.hpp"
#include "p4rt/control_channel.hpp"

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

  /// Pure preparation for one flow (Fig. 8a measures this).
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
  using Key = std::pair<net::FlowId, p4rt::Version>;

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
  std::map<Key, std::int32_t> remaining_;
  std::map<net::FlowId, std::deque<net::Path>> queued_;
  std::map<net::FlowId, std::uint8_t> priority_;
  // Segment-top reporters already counted against remaining_: recovery
  // resends make duplicate UFMs possible, and a double-decrement would
  // complete an update whose segments never all finished.
  std::map<Key, std::set<net::NodeId>> ufm_seen_;
};

}  // namespace p4u::baseline
