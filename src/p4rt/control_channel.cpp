#include "p4rt/control_channel.hpp"

#include <utility>

#include "net/paths.hpp"
#include "p4rt/fabric.hpp"

namespace p4u::p4rt {

namespace {

/// All controller-side work serializes on the single service thread
/// (busy_until_), so control events are mutually dependent regardless of
/// which switch or flow they concern.
constexpr sim::EventTag kCtrlTag{-1, sim::EventClass::kControl, 0};

}  // namespace

ControlChannel::ControlChannel(sim::Simulator& sim, Fabric& fabric,
                               std::vector<sim::Duration> latency_to_switch,
                               sim::Duration service_time)
    : sim_(sim),
      fabric_(fabric),
      latency_(std::move(latency_to_switch)),
      send_service_(service_time),
      recv_service_(service_time) {
  fabric_.set_control_channel(this);
  fault_watch_ = fabric_.subscribe(this);
}

void ControlChannel::on_link_state(net::LinkId link, NodeId a, NodeId b,
                                   bool up) {
  // Detection latency: whichever endpoint's control session notices first.
  const sim::Duration detect = std::min(latency(a), latency(b));
  sim_.schedule_in(detect, kCtrlTag, [this, link, a, b, up]() {
    const sim::Time handled_at = reserve_service_slot(recv_service_);
    sim_.schedule_at(handled_at, kCtrlTag, [this, link, a, b, up]() {
      if (app_ != nullptr) app_->handle_link_state(link, a, b, up);
    });
  });
}

void ControlChannel::on_switch_state(NodeId node, bool up) {
  sim_.schedule_in(latency(node), kCtrlTag, [this, node, up]() {
    const sim::Time handled_at = reserve_service_slot(recv_service_);
    sim_.schedule_at(handled_at, kCtrlTag, [this, node, up]() {
      if (app_ != nullptr) app_->handle_switch_state(node, up);
    });
  });
}

sim::Time ControlChannel::reserve_service_slot(sim::Duration service) {
  const sim::Time start = std::max(sim_.now(), busy_until_);
  busy_until_ = start + service;
  return busy_until_;
}

obs::MetricsRegistry& ControlChannel::metrics() { return fabric_.metrics(); }

obs::Counter& ControlChannel::msg_counter(KindCounters& family,
                                          const char* name,
                                          const Packet& pkt) {
  return obs::resolve_once(family[pkt.kind_index()], [&] {
    return metrics().counter(name, {{"msg", message_kind(pkt)}});
  });
}

void ControlChannel::send_to_switch(NodeId sw, Packet pkt) {
  msg_counter(msgs_out_, "ctrl.msgs_out", pkt).inc();
  // The single controller thread serializes outbound messages, then each
  // one independently travels the control link to its switch.
  const sim::Time departure = reserve_service_slot(send_service_);
  const sim::Time arrival = departure + latency(sw) + extra_outbound_;
  // The arrival runs on the switch, not the controller: tag it as a
  // delivery so it can commute with unrelated switches' work. The flow is
  // hoisted because the tag and the move-capture are indeterminately
  // sequenced within the call.
  const net::FlowId flow = pkt.flow();
  const sim::EventTag tag{sw, sim::EventClass::kDelivery, flow};
  sim_.schedule_at(arrival, tag, [this, sw, pkt = std::move(pkt)]() mutable {
    fabric_.sw(sw).receive(std::move(pkt), /*in_port=*/-1);
  });
}

void ControlChannel::deliver_to_controller(NodeId from, Packet pkt) {
  msg_counter(msgs_in_, "ctrl.msgs_in", pkt).inc();
  const sim::Time arrival = sim_.now() + latency(from);
  auto on_arrival = [this, from, pkt = std::move(pkt)]() mutable {
    // Queue for the controller's single service thread.
    const sim::Time handled_at = reserve_service_slot(recv_service_);
    sim_.schedule_at(handled_at, kCtrlTag,
                     [this, from, pkt = std::move(pkt)]() {
                       ++handled_;
                       if (app_ != nullptr) app_->handle_from_switch(from, pkt);
                     });
  };
  sim_.schedule_at(arrival, kCtrlTag, std::move(on_arrival));
}

std::vector<sim::Duration> wan_control_latencies(const net::Graph& g,
                                                 NodeId controller_node) {
  const net::SpTree t = net::dijkstra(g, controller_node, net::Metric::kLatency);
  std::vector<sim::Duration> out(g.node_count(), 0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    out[i] = static_cast<sim::Duration>(t.dist[i]);
  }
  return out;
}

}  // namespace p4u::p4rt
