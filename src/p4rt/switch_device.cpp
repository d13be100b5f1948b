#include "p4rt/switch_device.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "p4rt/control_channel.hpp"
#include "p4rt/fabric.hpp"
#include "sim/time.hpp"

namespace p4u::p4rt {

namespace {

/// Tag for work on one switch scoped to one flow. A zero flow id means the
/// scope is unknown, and the event degrades to kInternal — conservatively
/// dependent on everything — rather than falsely claiming flow isolation.
sim::EventTag switch_tag(NodeId node, sim::EventClass cls, FlowId flow) {
  if (flow == 0) return sim::EventTag{node, sim::EventClass::kInternal, 0};
  return sim::EventTag{node, cls, flow};
}

}  // namespace

SwitchDevice::SwitchDevice(Fabric& fabric, NodeId id, SwitchParams params,
                           sim::Rng rng)
    : fabric_(fabric),
      sim_(fabric.simulator()),
      id_(id),
      params_(params),
      rng_(rng),
      id_label_(std::to_string(id)),
      table_(fabric.forwarding_table()) {}

obs::Gauge& SwitchDevice::queue_depth_gauge() {
  return obs::resolve_once(queue_depth_gauge_, [this] {
    return fabric_.metrics().gauge("switch.queue_depth",
                                   {{"switch", id_label_}});
  });
}

obs::Histogram& SwitchDevice::service_histogram() {
  return obs::resolve_once(service_hist_, [this] {
    return fabric_.metrics().histogram("switch.service_ms",
                                       {{"switch", id_label_}});
  });
}

obs::Counter& SwitchDevice::handled_counter(const Packet& pkt) {
  return obs::resolve_once(handled_[pkt.kind_index()], [&] {
    return fabric_.metrics().counter(
        "switch.handled", {{"switch", id_label_}, {"msg", message_kind(pkt)}});
  });
}

obs::Counter& SwitchDevice::rule_installs_counter() {
  return obs::resolve_once(rule_installs_, [this] {
    return fabric_.metrics().counter("switch.rule_installs",
                                     {{"switch", id_label_}});
  });
}

obs::Counter& SwitchDevice::crash_dropped_counter() {
  return obs::resolve_once(crash_dropped_, [this] {
    return fabric_.metrics().counter("switch.crash_dropped",
                                     {{"switch", id_label_}});
  });
}

obs::Counter& SwitchDevice::installs_rejected_counter() {
  return obs::resolve_once(installs_rejected_, [this] {
    return fabric_.metrics().counter("switch.installs_rejected",
                                     {{"switch", id_label_}});
  });
}

void SwitchDevice::receive(Packet pkt, std::int32_t in_port) {
  enqueue_for_service(std::move(pkt), in_port);
}

void SwitchDevice::enqueue_for_service(Packet pkt, std::int32_t in_port) {
  if (crashed_) {
    // Packets handed to a dead switch (inject, resubmit races) die at the
    // front panel; the fabric already intercepts link deliveries.
    crash_dropped_counter().inc();
    fabric_.trace().add_lazy([&] {
      return sim::TraceEntry{now(),       sim::TraceKind::kMessageDropped,
                             id_,         pkt.flow(),
                             0,           0,
                             "switch down: " + describe(pkt)};
    });
    return;
  }
  // Single-threaded pipeline: packets drain one per service_time.
  const sim::Time start = std::max(now(), busy_until_);
  const sim::Time done = start + params_.service_time;
  busy_until_ = done;
  queue_depth_gauge().set(static_cast<double>(++queue_depth_));
  service_histogram().observe(sim::to_ms(done - now()));
  // Hoisted: the tag and the move-capture of pkt are indeterminately
  // sequenced within the schedule_at call.
  const FlowId flow = pkt.flow();
  simulator().schedule_at(done,
                          switch_tag(id_, sim::EventClass::kService, flow),
                          [this, epoch = epoch_, pkt = std::move(pkt),
                           in_port]() mutable {
    if (epoch != epoch_) {
      // The switch crashed while this packet sat in the service queue.
      crash_dropped_counter().inc();
      return;
    }
    process(std::move(pkt), in_port);
  });
}

void SwitchDevice::process(Packet pkt, std::int32_t in_port) {
  queue_depth_gauge().set(static_cast<double>(--queue_depth_));
  handled_counter(pkt).inc();
  if (pkt.is<DataHeader>()) {
    DataHeader& data = pkt.as<DataHeader>();
    if (pipeline_ != nullptr) {
      pipeline_->on_data_packet(*this, data, in_port);
    }
    forward_data(data, in_port);
    return;
  }
  if (pipeline_ != nullptr) {
    pipeline_->handle(*this, std::move(pkt), in_port);
  }
}

void SwitchDevice::forward_data(DataHeader data, std::int32_t in_port) {
  (void)in_port;
  fabric_.notify_data_arrival(id_, data);

  const auto port = lookup(data.flow);
  if (!port) {
    fabric_.notify_blackhole(id_, data);
    fabric_.trace().add({now(), sim::TraceKind::kBlackholeDetected, id_,
                         data.flow, data.seq, 0, ""});
    return;
  }
  if (*port == kLocalPort) {
    fabric_.notify_delivered(id_, data);
    fabric_.trace().add({now(), sim::TraceKind::kPacketDelivered, id_,
                         data.flow, data.seq, 0, ""});
    return;
  }
  if (--data.ttl <= 0) {
    fabric_.notify_ttl_expired(id_, data);
    fabric_.trace().add({now(), sim::TraceKind::kPacketExpired, id_, data.flow,
                         data.seq, 0, ""});
    return;
  }
  fabric_.transmit(id_, *port, Packet{data});
}

void SwitchDevice::forward(Packet pkt, std::int32_t out_port) {
  fabric_.transmit(id_, out_port, std::move(pkt));
}

void SwitchDevice::clone_to_port(Packet pkt, std::int32_t out_port) {
  forward(std::move(pkt), out_port);
}

void SwitchDevice::send_to_controller(Packet pkt) {
  ControlChannel* cc = fabric_.control();
  if (cc != nullptr) cc->deliver_to_controller(id_, std::move(pkt));
}

void SwitchDevice::resubmit(Packet pkt, std::int32_t in_port) {
  const FlowId flow = pkt.flow();  // hoisted past the move-capture below
  simulator().schedule_in(
      params_.resubmit_interval,
      switch_tag(id_, sim::EventClass::kTimer, flow),
      [this, epoch = epoch_, pkt = std::move(pkt), in_port]() mutable {
        if (epoch != epoch_) {
          // Recirculating packets live in switch memory; a crash eats them.
          crash_dropped_counter().inc();
          return;
        }
        enqueue_for_service(std::move(pkt), in_port);
      });
}

std::optional<std::int32_t> SwitchDevice::lookup(FlowId flow) const {
  const ForwardingTable::Hop* hop = table_.find(flow, id_);
  if (hop == nullptr || hop->port == kNoPort) return std::nullopt;
  return hop->port;
}

void SwitchDevice::set_port(ForwardingTable::Hop& hop, std::int32_t port) {
  if (hop.port == port) return;
  hop.port = port;
  view_dirty_ = true;
}

const std::vector<std::pair<FlowId, std::int32_t>>& SwitchDevice::rules()
    const {
  if (view_dirty_) {
    view_.clear();
    table_.for_each_at(id_, [this](FlowId flow,
                                   const ForwardingTable::Hop& hop) {
      if (hop.port != kNoPort) view_.emplace_back(flow, hop.port);
    });
    std::sort(view_.begin(), view_.end());
    view_dirty_ = false;
  }
  return view_;
}

sim::Duration SwitchDevice::sample_install_delay() {
  sim::Duration d = params_.install_delay;
  if (params_.straggler_mean_ms > 0.0) {
    d += sim::exponential_ms(rng_, params_.straggler_mean_ms);
  }
  return d;
}

std::optional<sim::Time> SwitchDevice::accept_install(FlowId flow,
                                                      bool quick) {
  if (crashed_) {
    // The Thrift endpoint is down: the write is lost, not queued. The
    // on_active continuation never runs — timeout-based recovery upstream
    // is what notices.
    installs_rejected_counter().inc();
    return std::nullopt;
  }
  const sim::Duration delay =
      quick ? params_.register_write_delay : sample_install_delay();
  sim::Time done = now() + delay;
  ForwardingTable::Hop& hop = table_.hop(flow, id_);
  if (hop.tail != kNoTail) done = std::max(done, hop.tail + 1);
  hop.tail = done;
  ++hop.pending;
  return done;
}

sim::EventTag SwitchDevice::install_tag(FlowId flow) const {
  return switch_tag(id_, sim::EventClass::kInstall, flow);
}

bool SwitchDevice::retire_install(std::uint64_t epoch, FlowId flow,
                                  std::int32_t port) {
  if (epoch != epoch_) {
    // Accepted before the crash, wiped with everything else.
    installs_rejected_counter().inc();
    return false;
  }
  {
    // The pending count held the hop since issue, so it is there.
    ForwardingTable::Hop& hop = *table_.find(flow, id_);
    set_port(hop, port);
    --hop.pending;
  }
  ++installs_completed_;
  rule_installs_counter().inc();
  fabric_.trace().add(
      {now(), sim::TraceKind::kRuleInstalled, id_, flow, port, 0, ""});
  fabric_.notify_rule_installed(id_, flow, port);
  return true;
}

void SwitchDevice::set_rule_now(FlowId flow, std::int32_t port) {
  if (crashed_) {
    installs_rejected_counter().inc();
    return;
  }
  set_port(table_.hop(flow, id_), port);
  fabric_.notify_rule_installed(id_, flow, port);
}

void SwitchDevice::remove_rule(FlowId flow) {
  ForwardingTable::Hop* hop = table_.find(flow, id_);
  if (hop == nullptr) return;
  set_port(*hop, kNoPort);
  // A tail in the past can no longer delay a later install, so forgetting
  // it is exact; a pending install or a tail at `now` keeps the hop.
  if (hop->pending == 0 && hop->tail < now()) table_.drop(flow, id_);
}

void SwitchDevice::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  // Everything volatile dies with the process: this switch's rules, the
  // service queue (stale-epoch events count themselves as crash-dropped when
  // they fire), pending install completions, and pipeline registers.
  table_.drop_node(id_);
  view_.clear();
  view_dirty_ = false;
  busy_until_ = 0;
  queue_depth_ = 0;
  queue_depth_gauge().set(0.0);
  if (pipeline_ != nullptr) pipeline_->on_crash(*this);
}

void SwitchDevice::restart() { crashed_ = false; }

}  // namespace p4u::p4rt
