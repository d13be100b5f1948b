#include "harness/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "control/labeling.hpp"

namespace p4u::harness {

namespace {

std::vector<sim::Duration> control_latencies(const net::Graph& g,
                                             const TestBedParams& p,
                                             sim::Rng& rng) {
  switch (p.ctrl_latency_model) {
    case CtrlLatencyModel::kWanCentroid:
      return p4rt::wan_control_latencies(g, net::centroid_node(g));
    case CtrlLatencyModel::kFattreeNormal: {
      std::vector<sim::Duration> out(g.node_count());
      for (auto& d : out) {
        d = sim::truncated_normal_ms(rng, 4.0, 3.0, 0.5);
      }
      return out;
    }
    case CtrlLatencyModel::kFixed:
      return std::vector<sim::Duration>(g.node_count(), p.fixed_ctrl_latency);
  }
  throw std::logic_error("unknown control latency model");
}

std::vector<sim::Duration> make_ctrl_latencies(const net::Graph& g,
                                               const TestBedParams& p) {
  sim::Rng latency_rng(p.seed ^ 0xC0117801ull);
  return control_latencies(g, p, latency_rng);
}

}  // namespace

TestBed::TestBed(net::Graph graph, TestBedParams params)
    : graph_(std::move(graph)), params_(params) {
  // The strategy goes in first: the Fabric constructor below already
  // schedules fault-plan events, and those must be tagged and steered like
  // everything else.
  sim_.set_strategy(params_.strategy);
  // Fail loudly on a mistyped fault schedule before anything is wired.
  params_.fault_plan.validate(graph_);
  fabric_ = std::make_unique<p4rt::Fabric>(sim_, graph_, params_.switch_params,
                                           params_.seed, params_.fault_plan);
  fabric_->trace().set_enabled(params_.trace_enabled);

  channel_ = std::make_unique<p4rt::ControlChannel>(
      sim_, *fabric_, make_ctrl_latencies(graph_, params_),
      params_.ctrl_send_service);
  channel_->set_services(params_.ctrl_send_service, params_.ctrl_recv_service);

  adapter_ = make_system(
      params_.system,
      SystemContext{sim_, *fabric_, *channel_, graph_, params_});

  monitor_ = std::make_unique<InvariantMonitor>(*fabric_,
                                                params_.monitor_capacity);
  monitor_->attach();
}

const control::FlowDb& TestBed::flow_db() const { return adapter_->flow_db(); }

core::P4UpdateController& TestBed::p4update() {
  auto* ctrl = adapter_->as_p4update();
  if (ctrl == nullptr) {
    throw std::logic_error("TestBed::p4update: bed runs " +
                           std::string(to_string(params_.system)));
  }
  return *ctrl;
}

baseline::EzSegwayController& TestBed::ezsegway() {
  auto* ctrl = adapter_->as_ezsegway();
  if (ctrl == nullptr) {
    throw std::logic_error("TestBed::ezsegway: bed runs " +
                           std::string(to_string(params_.system)));
  }
  return *ctrl;
}

baseline::CentralController& TestBed::central() {
  auto* ctrl = adapter_->as_central();
  if (ctrl == nullptr) {
    throw std::logic_error("TestBed::central: bed runs " +
                           std::string(to_string(params_.system)));
  }
  return *ctrl;
}

core::P4UpdateSwitch& TestBed::p4update_switch(net::NodeId n) {
  auto* sw = adapter_->p4update_switch(n);
  if (sw == nullptr) {
    throw std::logic_error("TestBed::p4update_switch: bed runs " +
                           std::string(to_string(params_.system)));
  }
  return *sw;
}

void TestBed::deploy_flow(const net::Flow& f, const net::Path& initial_path,
                          bool watch) {
  if (initial_path.front() != f.ingress || initial_path.back() != f.egress) {
    throw std::invalid_argument("deploy_flow: path does not match flow");
  }
  // Bring up the data plane: every on-path switch gets the version-1 state.
  for (std::size_t i = 0; i < initial_path.size(); ++i) {
    const net::NodeId n = initial_path[i];
    const auto dist = static_cast<p4rt::Distance>(initial_path.size() - 1 - i);
    const std::int32_t port =
        i + 1 == initial_path.size()
            ? p4rt::SwitchDevice::kLocalPort
            : graph_.port_of(n, initial_path[i + 1]);
    adapter_->bootstrap_flow_hop(fabric_->sw(n), f, dist, port);
  }
  adapter_->register_flow(f, initial_path);
  if (watch) monitor_->watch_flow(f);
}

void TestBed::deploy_tree(const net::Flow& f, const control::DestTree& tree) {
  auto* ctrl = adapter_->as_p4update();
  if (ctrl == nullptr) {
    throw std::logic_error("deploy_tree: destination trees are a P4Update "
                           "extension (§11)");
  }
  if (f.egress != tree.root) {
    throw std::invalid_argument("deploy_tree: flow egress must be the root");
  }
  for (const control::TreeNodeLabel& l : control::label_tree(graph_, tree)) {
    adapter_->bootstrap_flow_hop(fabric_->sw(l.node), f, l.depth,
                                 l.parent_port);
  }
  ctrl->register_tree(f);
  monitor_->watch_flow(f);
}

void TestBed::schedule_update_at(sim::Time at, net::FlowId flow,
                                 net::Path new_path) {
  // kScenario is opaque to the independence relation: issuing an update
  // reshapes controller state for the whole run.
  sim_.schedule_at(at, sim::EventTag{-1, sim::EventClass::kScenario, flow},
                   [this, flow, new_path = std::move(new_path)]() {
                     adapter_->submit(flow, control::RequestKind::kReroute,
                                      new_path);
                   });
}

Ticket TestBed::issue_update_now(net::FlowId flow, const net::Path& new_path) {
  return adapter_->submit(flow, control::RequestKind::kReroute, new_path);
}

void TestBed::schedule_batch_at(
    sim::Time at, std::vector<std::pair<net::FlowId, net::Path>> batch) {
  sim_.schedule_at(at, sim::EventTag{-1, sim::EventClass::kScenario, 0},
                   [this, batch = std::move(batch)]() {
                     std::vector<UpdateRequest> reqs;
                     reqs.reserve(batch.size());
                     for (const auto& [flow, path] : batch) {
                       reqs.push_back(UpdateRequest{flow, path});
                     }
                     adapter_->submit_batch(reqs);
                   });
}

void TestBed::start_traffic(net::FlowId flow, net::NodeId ingress, double pps,
                            std::uint32_t n_packets, std::int32_t ttl) {
  const auto gap =
      static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / pps);
  for (std::uint32_t i = 0; i < n_packets; ++i) {
    p4rt::DataHeader d;
    d.flow = flow;
    d.seq = i;
    d.ttl = ttl;
    sim_.schedule_in(gap * static_cast<sim::Duration>(i + 1),
                     sim::EventTag{-1, sim::EventClass::kScenario, flow},
                     [this, ingress, d]() {
                       fabric_->inject(ingress, p4rt::Packet{d}, -1);
                     });
  }
}

void TestBed::force_belief(net::FlowId flow, net::Path path) {
  control::Nib& nib = adapter_->nib();
  nib.believe_path(flow, path);
  nib.view(flow).update_in_progress = false;
}

void TestBed::collect_metrics() {
  adapter_->collect_metrics(fabric_->metrics());
  adapter_->flow_db().export_outcomes(fabric_->metrics());
  monitor_->export_violations(fabric_->metrics());
}

}  // namespace p4u::harness
