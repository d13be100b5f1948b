// Controller-side recovery: one update lifecycle that every controller
// (P4Update, ez-Segway, Central) inherits, so the three systems differ in
// how they update and not in how they survive the failure domain.
//
//   - RecoveringController: the shared base. It owns the NIB, the FlowDb
//     (which keeps every issued (flow, version) and its path), the
//     completion timers with exponential backoff and a retry cap, and the
//     repair and re-issue scans that run on link and switch state changes.
//     A controller keeps only its protocol plus four hooks: resend,
//     cancel-inflight, pump-next and redeploy.
//   - HealthView: the controller's belief about dead links and crashed
//     switches, fed by the control channel's failure notifications. Answers
//     "is this path still viable?" and "find me a repair path around the
//     faults" — the re-segmentation query.
//
// Recovery is opt-in (enabled = false keeps historical behavior bit-exact):
// fault-free benches must not pay for timers they never need.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "control/flow_db.hpp"
#include "control/nib.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "p4rt/control_channel.hpp"
#include "sim/time.hpp"

namespace p4u::faults {

/// Completion timeout after issuing an update. Each resend doubles it, so
/// the k-th resend fires 200 ms * (2^k - 1) after issue.
constexpr sim::Duration kInitialTimeout = sim::milliseconds(200);
/// Resends before the update settles at a terminal outcome: it gives up
/// 6.2 s after issue, after a last wait of 3.2 s.
constexpr int kMaxRetries = 4;

struct RecoveryParams {
  /// Master switch for completion timers, resends, repairs and re-issues.
  bool enabled = false;
};

/// Dead-element belief. Deliberately a *belief*: it tracks what the
/// controller has been told, which trails reality by the detection latency.
class HealthView {
 public:
  void link_down(net::LinkId l) { down_links_.insert(l); }
  void link_up(net::LinkId l) { down_links_.erase(l); }
  void switch_down(net::NodeId n) { down_nodes_.insert(n); }
  void switch_up(net::NodeId n) { down_nodes_.erase(n); }

  [[nodiscard]] bool link_ok(net::LinkId l) const {
    return down_links_.count(l) == 0;
  }
  [[nodiscard]] bool node_ok(net::NodeId n) const {
    return down_nodes_.count(n) == 0;
  }

  /// True when every node and every hop of `path` is believed alive.
  [[nodiscard]] bool path_ok(const net::Graph& g,
                             std::span<const net::NodeId> path) const;

  /// True when `path` traverses the given element (node `n`, or the link
  /// between `a` and `b`).
  [[nodiscard]] static bool path_uses_node(std::span<const net::NodeId> path,
                                           net::NodeId n);
  [[nodiscard]] static bool path_uses_link(const net::Graph& g,
                                           std::span<const net::NodeId> path,
                                           net::LinkId l);

  /// Shortest path src -> dst through believed-healthy elements only;
  /// nullopt when the faults disconnect the pair (the Abandoned case).
  [[nodiscard]] std::optional<net::Path> repair_path(
      const net::Graph& g, net::NodeId src, net::NodeId dst) const;

 private:
  // Ordered sets: recovery scans iterate these, and iteration order must be
  // deterministic (determinism contract).
  std::set<net::LinkId> down_links_;
  std::set<net::NodeId> down_nodes_;
};

/// The update lifecycle shared by the three controllers (DESIGN.md §9).
///
/// A controller issues an update with begin_update, sends its messages,
/// arms the completion timer with track_update, and reports success with
/// complete. Everything after that — resends on timeout, giving up, repairs
/// around dead elements, re-issues after a heal and re-deploys across a
/// restarted switch — runs here and calls back into the controller only
/// through schedule_update and the four hooks.
class RecoveringController : public p4rt::ControllerApp {
 public:
  // The channel and armed timers hold `this`.
  RecoveringController(const RecoveringController&) = delete;
  RecoveringController& operator=(const RecoveringController&) = delete;

  /// Registers a flow already deployed in the data plane (version 1).
  virtual void register_flow(const net::Flow& f,
                             const net::Path& initial_path);

  /// Issues an update moving `flow` onto `new_path` and returns its
  /// version; 0 when no version was issued (refused, or queued behind the
  /// flow's in-flight update).
  virtual p4rt::Version schedule_update(net::FlowId flow,
                                        const net::Path& new_path) = 0;

  // Failure detection (ControlChannel): updates the health view and — when
  // recovery is enabled — repairs around dead elements on a failure and
  // re-issues or re-deploys after a heal.
  void handle_link_state(net::LinkId link, net::NodeId a, net::NodeId b,
                         bool up) final;
  void handle_switch_state(net::NodeId node, bool up) final;

  [[nodiscard]] control::Nib& nib() noexcept { return nib_; }
  [[nodiscard]] control::FlowDb& flow_db() noexcept { return flow_db_; }

  /// Invoked when an issued update is confirmed (flow converged to version).
  std::function<void(net::FlowId, p4rt::Version, sim::Time)> on_complete;
  /// Invoked whenever an issued update reaches a terminal outcome:
  /// kCompleted on confirmation, kRolledBack / kAbandoned when recovery gave
  /// up. Fired after all controller state for the version was updated, so a
  /// handler may synchronously schedule the flow's next update (the
  /// admission queue does).
  std::function<void(net::FlowId, p4rt::Version, control::UpdateOutcome,
                     sim::Time)>
      on_settled;

 protected:
  RecoveringController(p4rt::ControlChannel& channel, control::Nib nib,
                       RecoveryParams recovery);

  // --- the four per-system hooks ---

  /// A completion timer expired: re-send the messages of (flow, v).
  virtual void resend(net::FlowId flow, p4rt::Version v) = 0;
  /// Drop the system's own state for the in-flight (flow, v) without an
  /// outcome. `superseded` is true when a repair update replaces it, false
  /// when the update is given up.
  virtual void cancel_inflight(net::FlowId flow, p4rt::Version v,
                               bool superseded) = 0;
  /// The given flows' updates were given up: issue whatever waited on them.
  /// Runs once per give-up, and once after every repair scan with the flows
  /// the scan abandoned (possibly none).
  virtual void pump_next(std::span<const net::FlowId> settled) = 0;
  /// Switch `node` restarted with its state wiped: re-install the believed
  /// path's state of `flow` there.
  virtual void redeploy(net::FlowId flow, net::NodeId node) = 0;

  // --- the lifecycle the controllers drive ---

  /// Bumps the version of `flow`, marks the update in progress and opens
  /// its FlowDb record with `path` as its target (empty for a
  /// destination-tree update). Returns the version.
  p4rt::Version begin_update(net::FlowId flow,
                             std::span<const net::NodeId> path);
  /// Arms the completion timer of (flow, v) when recovery is on; a newer
  /// version supersedes the flow's older timer.
  void track_update(net::FlowId flow, p4rt::Version v);
  /// The update (flow, v) was confirmed: record it, believe its path,
  /// disarm its timer and fire on_complete and on_settled.
  void complete(net::FlowId flow, p4rt::Version v);
  /// Forgets the flow's in-flight update: the flow reads idle and its
  /// completion timer is dropped.
  void untrack(net::FlowId flow);
  /// The path (flow, v) was issued for, read from its FlowDb record; empty
  /// when none was. The view stays valid for the controller's life.
  [[nodiscard]] std::span<const net::NodeId> issued_path(
      net::FlowId flow, p4rt::Version v) const;
  /// `handle`, resolved on first use to the run's unlabeled counter `name`
  /// (obs::resolve_once): per-event code keeps one handle per counter.
  obs::Counter& ctrl_counter(obs::Counter& handle, const char* name);

  p4rt::ControlChannel& channel_;
  control::Nib nib_;
  control::FlowDb flow_db_;

 private:
  /// One live completion timer per flow; a new version supersedes the old
  /// timer via the generation counter.
  struct RetryState {
    p4rt::Version version = 0;
    int attempts = 0;
    std::uint64_t gen = 0;
  };
  void arm_retry_timer(net::FlowId flow);
  void on_retry_timer(net::FlowId flow, std::uint64_t gen);
  /// Settles (flow, v) at `outcome` (kRolledBack or kAbandoned) and stops
  /// tracking it. The caller pumps.
  void give_up(net::FlowId flow, p4rt::Version v,
               control::UpdateOutcome outcome);
  /// A believed-dead element took out paths: supersede affected in-flight
  /// updates and reroute affected idle flows. `hits(path)` says whether a
  /// path crosses the element.
  void repair_around(
      const std::function<bool(std::span<const net::NodeId>)>& hits);
  /// A restarted element came back: re-issue updates that settled without
  /// completing, and re-deploy believed paths across a restarted switch
  /// (its Table 1 registers and rules were wiped).
  void reissue_after_recovery(std::optional<net::NodeId> restarted);

  /// The flow's completion timer (version 0: none live).
  RetryState& retry(net::FlowId flow) { return retries_.at(nib_, flow); }

  RecoveryParams recovery_;
  HealthView health_;
  control::FlowRows<RetryState> retries_;
  std::uint64_t retry_gen_ = 0;
  obs::Counter resends_;
  obs::Counter repairs_;
  obs::Counter stranded_;
  obs::Counter reissues_;
  obs::Counter redeploys_;
  std::array<obs::Counter,
             static_cast<std::size_t>(control::UpdateOutcome::kAbandoned) + 1>
      gaveup_;
};

}  // namespace p4u::faults
