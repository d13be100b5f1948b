#include "harness/system_factory.hpp"

#include <stdexcept>
#include <string>

#include "baselines/central_controller.hpp"
#include "baselines/central_switch.hpp"
#include "baselines/ezsegway_controller.hpp"
#include "baselines/ezsegway_switch.hpp"
#include "core/p4update_controller.hpp"
#include "core/p4update_switch.hpp"
#include "p4rt/control_channel.hpp"
#include "p4rt/fabric.hpp"
#include "sim/event_queue.hpp"

namespace p4u::harness {

const char* to_string(SystemKind k) {
  switch (k) {
    case SystemKind::kP4Update: return "P4Update";
    case SystemKind::kEzSegway: return "ez-Segway";
    case SystemKind::kCentral: return "Central";
  }
  return "?";
}

// --- SystemAdapter: ticketed submission over the admission queue ---

void SystemAdapter::init_submission(const SystemContext& ctx,
                                    faults::RecoveringController& ctrl) {
  controller_ = &ctrl;
  // Every system's NIB holds every registered flow: size it once from the
  // run's flow count instead of regrowing it by doubling.
  if (ctx.params.expected_flows > 0) {
    ctrl.nib().reserve(ctx.params.expected_flows);
  }
  admission_ = std::make_unique<control::AdmissionQueue>(
      ctrl.flow_db(), ctx.params.admission);
  admission_->set_clock([sim = &ctx.sim] { return sim->now(); });
  admission_->set_dispatch(
      [this](net::FlowId flow, const net::Path& path) {
        return dispatch_update(flow, path);
      });
  ctrl.on_settled = [this](net::FlowId flow, p4rt::Version version,
                           control::UpdateOutcome outcome, sim::Time) {
    admission_->on_update_settled(flow, version, outcome);
  };
}

void SystemAdapter::register_flow(const net::Flow& f, const net::Path& path) {
  controller_->register_flow(f, path);
}

const control::FlowDb& SystemAdapter::flow_db() const {
  return controller_->flow_db();
}

control::Nib& SystemAdapter::nib() { return controller_->nib(); }

Ticket SystemAdapter::submit(net::FlowId flow, control::RequestKind kind,
                             const net::Path& new_path) {
  const control::RequestId id = admission_->submit(flow, kind, new_path);
  const control::RequestRecord* rec = controller_->flow_db().request(id);
  return Ticket{id, flow, rec ? rec->version : 0, rec ? rec->submitted_at : 0};
}

std::vector<Ticket> SystemAdapter::submit_batch(
    const std::vector<UpdateRequest>& batch) {
  prepare_batch(batch);
  std::vector<Ticket> tickets;
  tickets.reserve(batch.size());
  for (const UpdateRequest& req : batch) tickets.push_back(submit(req));
  return tickets;
}

Ticket SystemAdapter::note_instant(net::FlowId flow,
                                   control::RequestKind kind) {
  const control::RequestId id = admission_->note_instant(flow, kind);
  const control::RequestRecord* rec = controller_->flow_db().request(id);
  return Ticket{id, flow, rec ? rec->version : 0, rec ? rec->submitted_at : 0};
}

const control::RequestRecord* SystemAdapter::request(
    control::RequestId id) const {
  return controller_->flow_db().request(id);
}

namespace {

class P4UpdateAdapter final : public SystemAdapter {
 public:
  explicit P4UpdateAdapter(const SystemContext& ctx) : metrics_(nullptr) {
    core::P4UpdateSwitchParams sp;
    sp.congestion_mode = ctx.params.congestion_mode;
    sp.allow_consecutive_dual = ctx.params.allow_consecutive_dual;
    sp.wait_timeout = ctx.params.p4u_wait_timeout;
    sp.uim_watchdog = ctx.params.p4u_uim_watchdog;
    for (std::size_t n = 0; n < ctx.graph.node_count(); ++n) {
      auto pipe = std::make_unique<core::P4UpdateSwitch>(
          static_cast<net::NodeId>(n), ctx.graph, sp);
      ctx.fabric.sw(static_cast<net::NodeId>(n)).set_pipeline(pipe.get());
      switches_.push_back(std::move(pipe));
    }
    core::P4UpdateControllerParams cp;
    cp.congestion_mode = ctx.params.congestion_mode;
    cp.force_type = ctx.params.force_type;
    cp.allow_consecutive_dual = ctx.params.allow_consecutive_dual;
    cp.enable_retrigger = ctx.params.enable_retrigger;
    cp.static_preflight = ctx.params.static_preflight;
    cp.enforce_preflight = ctx.params.enforce_preflight;
    cp.measure_prep_wallclock = ctx.params.measure_prep_wallclock;
    cp.recovery = ctx.params.recovery;
    ctrl_ = std::make_unique<core::P4UpdateController>(
        ctx.channel, control::Nib(ctx.graph), cp);
    metrics_ = &ctx.channel.metrics();
    init_submission(ctx, *ctrl_);
  }

  void bootstrap_flow_hop(p4rt::SwitchDevice& sw, const net::Flow& f,
                          p4rt::Distance dist, std::int32_t port) override {
    switches_[static_cast<std::size_t>(sw.id())]->bootstrap_flow(
        sw, f.id, /*version=*/1, dist, port, f.size);
  }

  [[nodiscard]] PreflightCounters preflight_counters() const override {
    return PreflightCounters{
        metrics_->counter_total("ctrl.preflight_safe"),
        metrics_->counter_total("ctrl.preflight_unsafe"),
        metrics_->counter_total("ctrl.preflight_unknown"),
        metrics_->counter_total("ctrl.preflight_skipped")};
  }

  void collect_metrics(obs::MetricsRegistry& m) override {
    // Tops a counter up to `total` (collect may run more than once per bed).
    const auto top_up = [&m](const char* name, const obs::LabelSet& labels,
                             std::uint64_t total) {
      auto c = m.counter(name, labels);
      if (total > c.value()) c.inc(total - c.value());
    };
    for (const auto& pipe : switches_) {
      const obs::LabelSet self{{"switch", std::to_string(pipe->id())}};
      top_up("uib.register_reads", self, pipe->uib().register_reads());
      top_up("uib.register_writes", self, pipe->uib().register_writes());
      top_up("p4update.unms_sent", self, pipe->unms_sent());
      top_up("p4update.resubmissions", self, pipe->resubmissions());
      top_up("p4update.rejects", self, pipe->rejects());
    }
  }

  [[nodiscard]] core::P4UpdateController* as_p4update() override {
    return ctrl_.get();
  }
  [[nodiscard]] core::P4UpdateSwitch* p4update_switch(net::NodeId n) override {
    return switches_.at(static_cast<std::size_t>(n)).get();
  }

 protected:
  control::DispatchResult dispatch_update(net::FlowId flow,
                                          const net::Path& path) override {
    // 0 means enforce_preflight refused the plan: nothing was issued.
    const p4rt::Version v = ctrl_->schedule_update(flow, path);
    return control::DispatchResult{v, v != 0};
  }

 private:
  std::vector<std::unique_ptr<core::P4UpdateSwitch>> switches_;
  std::unique_ptr<core::P4UpdateController> ctrl_;
  obs::MetricsRegistry* metrics_;
};

class EzSegwayAdapter final : public SystemAdapter {
 public:
  explicit EzSegwayAdapter(const SystemContext& ctx) {
    baseline::EzSwitchParams sp;
    sp.congestion_mode = ctx.params.congestion_mode;
    for (std::size_t n = 0; n < ctx.graph.node_count(); ++n) {
      auto pipe = std::make_unique<baseline::EzSegwaySwitch>(
          static_cast<net::NodeId>(n), ctx.graph, sp);
      ctx.fabric.sw(static_cast<net::NodeId>(n)).set_pipeline(pipe.get());
      switches_.push_back(std::move(pipe));
    }
    baseline::EzControllerParams cp;
    cp.congestion_mode = ctx.params.congestion_mode;
    cp.recovery = ctx.params.recovery;
    ctrl_ = std::make_unique<baseline::EzSegwayController>(
        ctx.channel, control::Nib(ctx.graph), cp);
    init_submission(ctx, *ctrl_);
  }

  void bootstrap_flow_hop(p4rt::SwitchDevice& sw, const net::Flow& f,
                          p4rt::Distance dist, std::int32_t port) override {
    (void)dist;  // ez-Segway keeps no distance labels
    switches_[static_cast<std::size_t>(sw.id())]->bootstrap_flow(sw, f.id,
                                                                 port, f.size);
  }
  [[nodiscard]] baseline::EzSegwayController* as_ezsegway() override {
    return ctrl_.get();
  }

 protected:
  control::DispatchResult dispatch_update(net::FlowId flow,
                                          const net::Path& path) override {
    // 0 means ez queued the request internally behind the flow's in-flight
    // update (§4.2) — accepted, version assigned on issue.
    return control::DispatchResult{ctrl_->schedule_update(flow, path), true};
  }
  void prepare_batch(const std::vector<UpdateRequest>& batch) override {
    std::vector<std::pair<net::FlowId, net::Path>> updates;
    updates.reserve(batch.size());
    for (const UpdateRequest& req : batch)
      updates.emplace_back(req.flow, req.new_path);
    ctrl_->prepare_batch(updates);
  }

 private:
  std::vector<std::unique_ptr<baseline::EzSegwaySwitch>> switches_;
  std::unique_ptr<baseline::EzSegwayController> ctrl_;
};

class CentralAdapter final : public SystemAdapter {
 public:
  explicit CentralAdapter(const SystemContext& ctx) {
    baseline::CentralParams cp;
    cp.congestion_mode = ctx.params.congestion_mode;
    cp.recovery = ctx.params.recovery;
    for (std::size_t n = 0; n < ctx.graph.node_count(); ++n) {
      auto pipe =
          std::make_unique<baseline::CentralSwitch>(static_cast<net::NodeId>(n));
      ctx.fabric.sw(static_cast<net::NodeId>(n)).set_pipeline(pipe.get());
      switches_.push_back(std::move(pipe));
    }
    ctrl_ = std::make_unique<baseline::CentralController>(
        ctx.channel, control::Nib(ctx.graph), cp);
    init_submission(ctx, *ctrl_);
  }

  void bootstrap_flow_hop(p4rt::SwitchDevice& sw, const net::Flow& f,
                          p4rt::Distance dist, std::int32_t port) override {
    (void)dist;
    switches_[static_cast<std::size_t>(sw.id())]->bootstrap_flow(sw, f.id,
                                                                 port);
  }
  [[nodiscard]] baseline::CentralController* as_central() override {
    return ctrl_.get();
  }

 protected:
  control::DispatchResult dispatch_update(net::FlowId flow,
                                          const net::Path& path) override {
    return control::DispatchResult{ctrl_->schedule_update(flow, path), true};
  }

 private:
  std::vector<std::unique_ptr<baseline::CentralSwitch>> switches_;
  std::unique_ptr<baseline::CentralController> ctrl_;
};

}  // namespace

std::unique_ptr<SystemAdapter> make_system(SystemKind kind,
                                           const SystemContext& ctx) {
  switch (kind) {
    case SystemKind::kP4Update: return std::make_unique<P4UpdateAdapter>(ctx);
    case SystemKind::kEzSegway: return std::make_unique<EzSegwayAdapter>(ctx);
    case SystemKind::kCentral: return std::make_unique<CentralAdapter>(ctx);
  }
  throw std::logic_error(std::string("make_system: unknown system kind ") +
                         std::to_string(static_cast<int>(kind)));
}

}  // namespace p4u::harness
