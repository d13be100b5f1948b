// CentralController: the centralized dependency-graph baseline (§9.1).
//
// The controller computes which node updates are currently safe (mixed-state
// loop/blackhole check), pushes install commands for that set, and waits for
// acknowledgements; each ack re-triggers the safety computation, so every
// inter-node dependency costs a full control-plane round trip plus the
// controller's serialized service time — the cost P4Update eliminates.
#pragma once

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "baselines/dependency_graph.hpp"
#include "control/flow_db.hpp"
#include "control/nib.hpp"
#include "faults/recovery.hpp"
#include "p4rt/control_channel.hpp"

namespace p4u::baseline {

struct CentralParams {
  bool congestion_mode = false;
  /// Failure-domain recovery: round timers, install-command resends, repair
  /// updates around dead elements. Off by default.
  faults::RecoveryParams recovery;
};

/// Virtual cost of one centralized dependency-graph recomputation round.
constexpr sim::Duration kDependencyRecompute = sim::milliseconds(10);

class CentralController final : public faults::RecoveringController {
 public:
  CentralController(p4rt::ControlChannel& channel, control::Nib nib,
                    CentralParams params = {});

  void register_flow(const net::Flow& f,
                     const net::Path& initial_path) override;

  /// Starts a job for the update; a job still live for the flow is dropped
  /// first (its unacknowledged commands leave the round barrier).
  p4rt::Version schedule_update(net::FlowId flow,
                                const net::Path& new_path) override;

  void handle_from_switch(net::NodeId from, const p4rt::Packet& pkt) override;

  /// Number of scheduling rounds issued so far (tests/benches).
  [[nodiscard]] std::uint64_t rounds_issued() const noexcept {
    return rounds_;
  }

 private:
  /// One flow's update job, in a row addressed by the NIB's handle. A row
  /// outlives its job and is reused by the flow's next one, buffers and
  /// all, so steady-state jobs allocate nothing.
  struct Job {
    p4rt::Version version = 0;
    net::Path old_path;
    net::Path new_path;
    std::vector<net::NodeId> updated;      // acknowledged new rules
    std::vector<net::NodeId> outstanding;  // commands in flight, ascending
    std::vector<net::NodeId> pending;      // rule changes not yet commanded
    std::vector<std::int64_t> released;    // old directed links already freed
    std::int32_t round = 0;
  };

  /// The flow's live job, or nullptr.
  [[nodiscard]] Job* live_job(net::FlowId flow);
  /// Ends the flow's live job (the row stays for the next one).
  void end_job(net::FlowId flow);

  /// Computes and sends the next global round: the maximal safe set of
  /// node updates across ALL in-flight jobs ([57]: one dependency
  /// relationship for the whole reconfiguration). No-op while acks from
  /// the previous round are outstanding.
  void start_round();

  /// Collects this job's currently safe nodes into round_.
  void collect_safe(net::FlowId flow, Job& job);

  /// Sends the install command for node `n` of `job` (initial or resend).
  void send_install(net::FlowId flow, const Job& job, net::NodeId n);

  // --- recovery hooks (faults::RecoveringController) ---
  /// Re-sends every unacked install; with none outstanding the barrier is
  /// stuck, so it tries the next round instead.
  void resend(net::FlowId flow, p4rt::Version version) override;
  /// Drops the job and rebalances the global round barrier (its unacked
  /// commands will never be counted) without recording an outcome.
  void cancel_inflight(net::FlowId flow, p4rt::Version version,
                       bool superseded) override;
  /// A dropped job may have unblocked the barrier: try the next round.
  void pump_next(std::span<const net::FlowId> settled) override;
  /// Re-pushes the one believed rule directly (Central's switches install
  /// whatever is commanded).
  void redeploy(net::FlowId flow, net::NodeId node) override;

  CentralParams params_;
  control::FlowRows<Job> jobs_;
  // Flows with a live job, ascending by id: the one record of which jobs
  // are live, and the order every round visits them in.
  std::vector<net::FlowId> live_;
  // Round scratch, reused: the round being built and one job's candidates.
  std::vector<std::pair<net::FlowId, net::NodeId>> round_;
  std::vector<net::NodeId> candidates_;
  std::map<std::int64_t, double> link_used_;  // directed-link capacity ledger
  std::uint64_t rounds_ = 0;
  std::size_t global_outstanding_ = 0;  // acks pending for the current round
};

}  // namespace p4u::baseline
