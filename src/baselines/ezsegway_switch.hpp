// EzSegwaySwitch: our P4 port of ez-Segway's data-plane agent ([63], §9.1).
//
// Per the paper's adaptation: "Instead of using a local controller to encode
// the predecessor-successor relationship, we encapsulate the current state
// of switches into the notification message, and the nodes can locally
// determine when to update."
//
// Key behavioral differences from P4Update (these drive the evaluation):
//   * no verification — whatever command arrives is executed, which is why
//     ez-Segway loops in the Fig. 2 scenario;
//   * in_loop segments hold back ALL of their installs (inner nodes
//     included) until the dependency segments report completion via
//     SegmentDone messages;
//   * congestion priorities are static, precomputed by the controller.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/flow_index.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/switch_device.hpp"
#include "sim/append_log.hpp"
#include "sim/small_vec.hpp"

namespace p4u::baseline {

struct EzSwitchParams {
  bool congestion_mode = false;
  sim::Duration retry_interval = sim::milliseconds(1);
  /// Give-up bound for deferred installs (capacity never frees / command
  /// lost): keeps genuinely infeasible schedules from retrying forever.
  sim::Duration retry_timeout = sim::seconds(10);
};

class EzSegwaySwitch final : public p4rt::Pipeline {
 public:
  EzSegwaySwitch(net::NodeId id, const net::Graph& graph,
                 EzSwitchParams params = {});

  void handle(p4rt::SwitchDevice& sw, p4rt::Packet pkt,
              std::int32_t in_port) override;
  void on_crash(p4rt::SwitchDevice& sw) override;

  /// Installs the initial configuration for a flow (bring-up).
  void bootstrap_flow(p4rt::SwitchDevice& sw, net::FlowId f,
                      std::int32_t egress_port, double size);

  [[nodiscard]] std::uint64_t notifies_sent() const noexcept {
    return notifies_sent_;
  }

 private:
  struct PendingUpdate {
    p4rt::EzCmdHeader cmd;
    std::int32_t done_received = 0;
    // Resolved dependency segments: recovery resends can duplicate a
    // SegmentDone, and double-counting would start an in_loop chain early.
    sim::SmallVec<std::int32_t, 4> done_from;
    bool chain_started = false;
    bool installed = false;
  };
  /// Everything the agent holds for one (flow, version): the parked command
  /// state once a command or SegmentDone arrived, and the time a notify
  /// that found no command (or no capacity) began retrying.
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
  struct VersionEntry {
    net::FlowId flow = 0;
    p4rt::Version version = 0;
    std::uint32_t older = kNoEntry;  // the flow's previous entry
    bool has_update = false;  // `update` holds a command or SegmentDone
    bool retrying = false;    // `retry_since` is set
    bool parked = false;      // listed in parked_
    sim::Time retry_since = 0;
    PendingUpdate update;
  };

  /// (flow, version)'s entry, or nullptr.
  [[nodiscard]] const VersionEntry* find_entry(net::FlowId flow,
                                               p4rt::Version version) const;
  /// The flow_size register: 0 for a flow never sized.
  [[nodiscard]] double flow_size(net::FlowId flow) const;
  void set_flow_size(net::FlowId flow, double size);
  /// Index of (flow, version)'s entry, appended when missing.
  std::uint32_t entry_at(net::FlowId flow, p4rt::Version version);
  /// The update parked for (flow, version), created on first use.
  PendingUpdate& update_of(net::FlowId flow, p4rt::Version version);

  void handle_cmd(p4rt::SwitchDevice& sw, const p4rt::EzCmdHeader& cmd);
  void handle_notify(p4rt::SwitchDevice& sw, p4rt::Packet pkt);
  void handle_segment_done(p4rt::SwitchDevice& sw, p4rt::Packet pkt);
  void start_chain(p4rt::SwitchDevice& sw, PendingUpdate& pu);
  /// Takes entry `i` off the parked list (its move was approved).
  void unpark(std::uint32_t i);
  void do_install(p4rt::SwitchDevice& sw, PendingUpdate& pu);
  /// Marks `flow` as holding `port` until its install lands.
  void set_inflight(net::FlowId flow, std::int32_t port);
  void clear_inflight(net::FlowId flow);
  /// The messages a rule-change node owes downstream consumers once its
  /// install finished: upstream notify, or (segment top) SegmentDone fanout
  /// plus the UFM. Re-run verbatim on a retrigger command.
  void emit_post_install(p4rt::SwitchDevice& sw, const p4rt::EzCmdHeader& cmd);
  void route_towards(p4rt::SwitchDevice& sw, net::NodeId dst,
                     p4rt::Packet pkt);

  /// Capacity gate for the congestion variant. Static priorities: yield if
  /// a strictly higher-priority flow at this node still waits for the port.
  [[nodiscard]] bool capacity_ok(const p4rt::SwitchDevice& sw,
                                 const PendingUpdate& pu) const;

  net::NodeId id_;
  const net::Graph* graph_;
  EzSwitchParams params_;
  // The pipeline's own flow index: it addresses the flow_size register and
  // the per-flow version chains, both of which outlive the flow's rule, so
  // neither can share the device's (DESIGN.md §10).
  net::FlowIndex index_;
  // The flow_size register, a pool of its own: bring-up sizes every hop,
  // but only updated flows have a newest_ row.
  net::FlowPool<double> flow_size_{0.0};
  // Append-only: every (flow, version) the switch heard of keeps its entry,
  // since a late or duplicate message for an older version must still find
  // it. Each flow's entries chain from its newest_ row in descending
  // version order.
  sim::AppendLog<VersionEntry, 64> entries_;
  net::FlowPool<std::uint32_t> newest_{kNoEntry};
  // Entries whose command moves this switch's rule and whose install is not
  // approved yet, unordered (congestion mode only): the congestion check's
  // priority scan reads only these, not every version the switch ever heard
  // of.
  std::vector<std::uint32_t> parked_;
  // Approved installs not yet active, as (flow, port) ascending by flow:
  // the congestion check sums over them in flow-id order.
  std::vector<std::pair<net::FlowId, std::int32_t>> inflight_;
  std::vector<std::int32_t> next_hop_port_;  // static mgmt routing, per dest
  std::uint64_t notifies_sent_ = 0;
};

}  // namespace p4u::baseline
