// SwitchDevice: one emulated P4 software switch.
//
// Models the BMv2 target the paper runs on:
//   - a single packet-processing thread (FIFO + per-packet service time),
//   - a forwarding table keyed by flow ID: the switch's hops in the
//     fabric's per-flow rows (p4rt/forwarding_table.hpp, DESIGN.md §10),
//   - rule installs that take time (base install delay, plus the optional
//     exp(100 ms) "straggler" delay of the paper's single-flow setup),
//   - the P4 primitives pipelines use: forward, clone-to-port, resubmit,
//     send-to-controller.
//
// The system-specific data-plane logic (P4Update / ez-Segway / Central)
// plugs in as a Pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/flow.hpp"
#include "obs/metrics.hpp"
#include "p4rt/forwarding_table.hpp"
#include "p4rt/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace p4u::p4rt {

class Fabric;
class SwitchDevice;

struct SwitchParams {
  /// Per-packet pipeline service time (single BMv2 worker thread).
  sim::Duration service_time = sim::microseconds(200);
  /// Base latency of a forwarding-table write becoming active. BMv2 table
  /// programming goes through a Thrift RPC and costs ~10 ms — consistent
  /// with the paper's absolute update times (hundreds of ms for paths of a
  /// handful of switches).
  sim::Duration install_delay = sim::milliseconds(10);
  /// Recirculation delay of a resubmitted packet (P4Update's data-plane
  /// "waiting" mechanism, §8).
  sim::Duration resubmit_interval = sim::milliseconds(1);
  /// Mean of the extra exponential per-install straggler delay in ms;
  /// 0 disables it (§9.1 single-flow setup uses 100).
  double straggler_mean_ms = 0.0;
  /// Latency of a pure register write (version/distance bookkeeping when
  /// the forwarding port itself does not change). Register writes are
  /// cheap on BMv2 compared to table programming, and the §9.1 straggler
  /// delay explicitly models "updating rules".
  sim::Duration register_write_delay = sim::microseconds(100);
};

/// System-specific packet logic. One Pipeline instance per switch.
class Pipeline {
 public:
  virtual ~Pipeline() = default;

  /// Handles one non-data packet after it leaves the service queue. The
  /// pipeline owns the packet: resubmit/park paths move it onward without
  /// copying; only an explicit clone_to_port duplicates payload.
  virtual void handle(SwitchDevice& sw, Packet pkt, std::int32_t in_port) = 0;

  /// Observes (and may rewrite — 2-phase-commit tag stamping, §11) data
  /// packets before default forwarding.
  virtual void on_data_packet(SwitchDevice& sw, DataHeader& data,
                              std::int32_t in_port) {
    (void)sw;
    (void)data;
    (void)in_port;
  }

  /// The switch crashed: volatile pipeline state (UIB registers, parked
  /// packets, dedup sets) is gone. Called after the forwarding table is
  /// wiped; the pipeline must drop everything it holds for this switch.
  virtual void on_crash(SwitchDevice& sw) { (void)sw; }
};

class SwitchDevice {
 public:
  /// Port value meaning "deliver locally": the egress rule of a flow.
  static constexpr std::int32_t kLocalPort = -2;

  SwitchDevice(Fabric& fabric, NodeId id, SwitchParams params, sim::Rng rng);
  SwitchDevice(const SwitchDevice&) = delete;
  SwitchDevice& operator=(const SwitchDevice&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const SwitchParams& params() const noexcept { return params_; }

  void set_pipeline(Pipeline* p) { pipeline_ = p; }

  /// Entry point used by the Fabric: packet arrived on `in_port`.
  /// Enqueues into the single-threaded service FIFO.
  void receive(Packet pkt, std::int32_t in_port);

  // --- P4 action primitives (used by pipelines) ---

  /// Emits the packet on `out_port` (link latency applies downstream).
  void forward(Packet pkt, std::int32_t out_port);

  /// BMv2 `clone`: emits a copy on `out_port`. Identical cost to forward;
  /// kept distinct for trace readability.
  void clone_to_port(Packet pkt, std::int32_t out_port);

  /// Sends to the controller over the control channel.
  void send_to_controller(Packet pkt);

  /// Recirculates the packet: it re-enters this switch's queue after
  /// `resubmit_interval` and pays service time again.
  void resubmit(Packet pkt, std::int32_t in_port);

  // --- Forwarding state (the egress_port register of Table 1) ---

  /// Current egress port for the flow, or nullopt (no rule = blackhole).
  [[nodiscard]] std::optional<std::int32_t> lookup(FlowId flow) const;

  /// Installs a rule after install_delay (+ straggler). `on_active` runs
  /// once the rule is in effect; pipelines chain UNM forwarding on it. It
  /// is stored inside the install event's own handler, so its capture must
  /// fit the event slot next to the install's own fields (a larger one is a
  /// compile error in sim::InlineFn). With `quick` set the write costs only
  /// register_write_delay (no straggler) — used when the forwarding port
  /// does not actually change. Either way, writes retire in per-flow issue
  /// order. A crashed switch drops the write and never runs `on_active`.
  template <typename OnActive>
  void install_rule(FlowId flow, std::int32_t port, OnActive&& on_active,
                    bool quick = false) {
    const std::optional<sim::Time> done = accept_install(flow, quick);
    if (!done) return;
    simulator().schedule_at(
        *done, install_tag(flow),
        [this, epoch = epoch_, flow, port,
         on_active = std::forward<OnActive>(on_active)]() mutable {
          if (retire_install(epoch, flow, port)) on_active();
        });
  }

  /// install_rule without a continuation.
  void install_rule(FlowId flow, std::int32_t port) {
    install_rule(flow, port, [] {});
  }

  /// Writes a rule instantly (initial configuration bring-up, not timed).
  void set_rule_now(FlowId flow, std::int32_t port);

  /// Deletes the flow's rule. Its hop (and install tail) is dropped only
  /// when no install is pending and the tail lies in the past, so a later
  /// install still retires behind every earlier one.
  void remove_rule(FlowId flow);

  /// Every rule as (flow, port), ascending by flow id. Rebuilt, by a scan of
  /// the fabric's rows, only after one of this switch's ports changed; the
  /// congestion readers sum over it in this order.
  [[nodiscard]] const std::vector<std::pair<FlowId, std::int32_t>>& rules()
      const;

  /// Count of timed installs completed (tests assert on install volume).
  [[nodiscard]] std::uint64_t installs_completed() const noexcept {
    return installs_completed_;
  }

  // --- Failure domain (faults::FaultPlan switch events) ---

  /// Hard power-fail: wipes this switch's rules and pipeline state
  /// (Pipeline::on_crash), drops every enqueued/parked packet, and rejects
  /// receives and installs until restart(). Modeled on what a BMv2 reboot
  /// loses: every Table 1 register array is volatile.
  void crash();

  /// Brings the switch back into service. State stays wiped — recovery is
  /// the controller's job (re-issue rules / repair update).
  void restart();

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  // --- Environment access for pipelines ---
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] sim::Time now() const noexcept { return sim_.now(); }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

 private:
  void enqueue_for_service(Packet pkt, std::int32_t in_port);
  void process(Packet pkt, std::int32_t in_port);
  void forward_data(DataHeader data, std::int32_t in_port);
  [[nodiscard]] sim::Duration sample_install_delay();

  // The two halves of install_rule around its scheduled completion.
  /// Books the install into the flow's tail and returns its completion
  /// time; nullopt (and the write counted as rejected) on a crashed switch.
  [[nodiscard]] std::optional<sim::Time> accept_install(FlowId flow,
                                                        bool quick);
  /// Applies the install at its completion and reports whether the
  /// continuation runs: false when a crash since acceptance wiped it.
  [[nodiscard]] bool retire_install(std::uint64_t epoch, FlowId flow,
                                    std::int32_t port);
  [[nodiscard]] sim::EventTag install_tag(FlowId flow) const;

  // Metric handles, resolved on first use (obs::resolve_once).
  obs::Gauge& queue_depth_gauge();
  obs::Histogram& service_histogram();
  obs::Counter& handled_counter(const Packet& pkt);
  obs::Counter& rule_installs_counter();
  obs::Counter& crash_dropped_counter();
  obs::Counter& installs_rejected_counter();

  Fabric& fabric_;
  sim::Simulator& sim_;  // fabric_.simulator(), held so now() is inline
  NodeId id_;
  SwitchParams params_;
  sim::Rng rng_;
  std::string id_label_;  // std::to_string(id_), built once
  obs::Gauge queue_depth_gauge_;
  obs::Histogram service_hist_;
  obs::Counter rule_installs_;
  obs::Counter crash_dropped_;
  obs::Counter installs_rejected_;
  std::array<obs::Counter, kPacketKindCount> handled_;
  Pipeline* pipeline_ = nullptr;

  // This switch's rules are its hops in the fabric's forwarding table. A hop
  // is reached through `table_` and never held across a call that can add
  // or drop one.
  static constexpr std::int32_t kNoPort = ForwardingTable::kNoPort;
  static constexpr sim::Time kNoTail = ForwardingTable::kNoTail;
  void set_port(ForwardingTable::Hop& hop, std::int32_t port);

  ForwardingTable& table_;  // fabric_.forwarding_table()
  mutable std::vector<std::pair<FlowId, std::int32_t>> view_;
  mutable bool view_dirty_ = false;
  sim::Time busy_until_ = 0;
  std::uint64_t queue_depth_ = 0;  // packets scheduled but not yet processed
  std::uint64_t installs_completed_ = 0;
  bool crashed_ = false;
  // Bumped by crash(): events scheduled before the crash (service-queue
  // drains, in-flight install completions, parked resubmits) carry the
  // epoch they were scheduled in and no-op when it is stale.
  std::uint64_t epoch_ = 0;
};

}  // namespace p4u::p4rt
