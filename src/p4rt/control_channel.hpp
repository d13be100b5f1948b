// ControlChannel: the slow path between the (single) controller and the
// switches.
//
// Models what makes centralized updates slow in the paper: every message in
// either direction serializes through a single-threaded controller (§9.1:
// "The control plane runs in a single thread"; [40]: notifications see
// queuing + processing delay) and then pays per-switch control latency
// (WANs: shortest-path latency from the centroid controller node; fat-tree:
// sampled from a measured distribution).
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "obs/metrics.hpp"
#include "p4rt/fabric_observer.hpp"
#include "p4rt/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace p4u::p4rt {

class Fabric;
class ObserverHandle;

/// Controller application callback (P4Update / ez-Segway / Central apps).
class ControllerApp {
 public:
  virtual ~ControllerApp() = default;
  virtual void handle_from_switch(NodeId from, const Packet& pkt) = 0;

  /// Failure detection (BFD/LLDP stand-in): the channel reports link state
  /// flaps after the detection latency. Default: not failure-aware.
  virtual void handle_link_state(net::LinkId link, NodeId a, NodeId b,
                                 bool up) {
    (void)link;
    (void)a;
    (void)b;
    (void)up;
  }
  /// A switch's control session dropped (up = false) or re-established.
  virtual void handle_switch_state(NodeId node, bool up) {
    (void)node;
    (void)up;
  }
};

class ControlChannel : private FabricObserver {
 public:
  /// `latency_to_switch[i]` = one-way control latency controller <-> switch i;
  /// `service_time` initializes both send and receive processing costs
  /// (use set_services for the asymmetric split).
  ControlChannel(sim::Simulator& sim, Fabric& fabric,
                 std::vector<sim::Duration> latency_to_switch,
                 sim::Duration service_time);

  /// Asymmetric controller costs: emitting a precomputed message is cheap
  /// (a socket write), while processing an inbound notification is
  /// expensive (parse, NIB update, dependency recomputation — the queuing +
  /// processing delay of [40] that §9.1 charges to Central).
  void set_services(sim::Duration send_service, sim::Duration recv_service) {
    send_service_ = send_service;
    recv_service_ = recv_service;
  }

  /// Blocks the single controller thread for `d` (e.g. a centralized
  /// dependency-graph computation happening before messages can leave).
  void occupy(sim::Duration d) {
    busy_until_ = std::max(busy_until_, sim_.now()) + d;
  }

  void set_app(ControllerApp* app) { app_ = app; }

  /// Controller -> switch. Pays controller service (serialized) + latency;
  /// the switch receives it like any packet (port -1 = from controller).
  void send_to_switch(NodeId sw, Packet pkt);

  /// Switch -> controller. Pays latency, then queues for controller service
  /// before the app's handler runs.
  void deliver_to_controller(NodeId from, Packet pkt);

  [[nodiscard]] sim::Duration latency(NodeId sw) const {
    return latency_.at(static_cast<std::size_t>(sw));
  }

  /// Messages handled by the controller app so far.
  [[nodiscard]] std::uint64_t controller_messages() const noexcept {
    return handled_;
  }

  /// Current virtual time (controller apps have no other clock).
  [[nodiscard]] sim::Time now() const { return sim_.now(); }

  /// The run's metrics registry (shared with the fabric), so controller
  /// apps can record histograms/counters without holding a Fabric&.
  [[nodiscard]] obs::MetricsRegistry& metrics();

  /// Scenario fault knob: additional delay applied to every subsequent
  /// controller->switch message (the §4.1 "messages of (b) are delayed, with
  /// the control plane being oblivious to it"). Reset to 0 to stop.
  void set_extra_outbound_delay(sim::Duration d) { extra_outbound_ = d; }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

 private:
  sim::Time reserve_service_slot(sim::Duration service);

  /// One ctrl.msgs_out / ctrl.msgs_in handle per message kind, resolved on
  /// first use.
  using KindCounters = std::array<obs::Counter, kPacketKindCount>;
  obs::Counter& msg_counter(KindCounters& family, const char* name,
                            const Packet& pkt);

  // Failure detection (FabricObserver): a fault near switch s becomes known
  // to the controller after the control latency to the closest adjacent
  // switch (BFD-style adjacency monitoring), then queues for the single
  // controller thread like any inbound notification.
  void on_link_state(net::LinkId link, NodeId a, NodeId b, bool up) override;
  void on_switch_state(NodeId node, bool up) override;

  sim::Simulator& sim_;
  Fabric& fabric_;
  std::vector<sim::Duration> latency_;
  sim::Duration send_service_;
  sim::Duration recv_service_;
  sim::Duration extra_outbound_ = 0;
  sim::Time busy_until_ = 0;
  ControllerApp* app_ = nullptr;
  std::uint64_t handled_ = 0;
  KindCounters msgs_out_;
  KindCounters msgs_in_;
  ObserverHandle fault_watch_;
};

/// Per-switch control latencies for a WAN: shortest-path propagation latency
/// from the controller node (the paper places it at the centroid).
[[nodiscard]] std::vector<sim::Duration> wan_control_latencies(
    const net::Graph& g, NodeId controller_node);

}  // namespace p4u::p4rt
