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

#include <map>
#include <set>
#include <vector>

#include "net/flow_index.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/register_array.hpp"
#include "p4rt/switch_device.hpp"

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
    std::set<std::int32_t> done_from;
    bool chain_started = false;
    bool installed = false;
  };
  using Key = std::pair<net::FlowId, p4rt::Version>;

  void handle_cmd(p4rt::SwitchDevice& sw, const p4rt::EzCmdHeader& cmd);
  void handle_notify(p4rt::SwitchDevice& sw, p4rt::Packet pkt);
  void handle_segment_done(p4rt::SwitchDevice& sw, p4rt::Packet pkt);
  void start_chain(p4rt::SwitchDevice& sw, PendingUpdate& pu);
  void do_install(p4rt::SwitchDevice& sw, PendingUpdate& pu);
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
  std::map<Key, PendingUpdate> pending_;
  std::map<Key, sim::Time> retry_since_;
  // The flow_size register (0 for a flow never sized), flat over the
  // pipeline's own index: it outlives the flow's rule, so it cannot share
  // the device's (DESIGN.md §10).
  net::FlowIndex size_index_;
  p4rt::FlatRegisterArray<double> flow_size_{0.0};
  std::map<net::FlowId, std::int32_t> inflight_;  // approved, not yet active
  std::vector<std::int32_t> next_hop_port_;  // static mgmt routing, per dest
  std::uint64_t notifies_sent_ = 0;
};

}  // namespace p4u::baseline
