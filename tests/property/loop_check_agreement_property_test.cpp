// Property: the invariant monitor's install-time loop check, which scans
// only the flow's forwarding-table row, agrees with the full-scan reference
// InvariantMonitor::has_loop at every watched install.
// A FabricObserver subscribed after the bed's monitor sees every install
// right after the monitor did, evaluates has_loop on the same tables, and
// counts the installs where it held; the monitor's loop count must match.
// 24 seeds, each over:
//   - the churn family, clean and with 5% control drop (the system under
//     test rotates with the seed);
//   - the chaos family, whose link-down and switch crash wipe rules without
//     telling the monitor;
//   - ez-Segway on Fig. 2, which really loops, so the property is not
//     vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "harness/churn.hpp"
#include "harness/scenario.hpp"
#include "harness/traffic.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

constexpr int kSeeds = 24;

/// Counts the installs of `watched` flows at which the full scan finds a
/// cycle. Bring-up writes of a flow added mid-run happen before it is
/// watched, but a fresh flow's bring-up path is simple, so the scan finds
/// nothing there and counting them changes nothing.
class LoopReference final : public p4rt::FabricObserver {
 public:
  LoopReference(TestBed& bed, std::vector<net::FlowId> watched)
      : monitor_(&bed.monitor()), watched_(std::move(watched)) {
    std::sort(watched_.begin(), watched_.end());
    handle_ = bed.fabric().subscribe(this);
  }
  void on_rule_installed(net::NodeId node, net::FlowId flow,
                         std::int32_t port) override {
    (void)node;
    (void)port;
    if (std::binary_search(watched_.begin(), watched_.end(), flow) &&
        monitor_->has_loop(flow)) {
      ++loops_;
    }
  }
  [[nodiscard]] std::uint64_t loops() const { return loops_; }

 private:
  const InvariantMonitor* monitor_;
  std::vector<net::FlowId> watched_;
  std::uint64_t loops_ = 0;
  p4rt::ObserverHandle handle_;
};

SystemKind system_for(int seed) {
  constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                     SystemKind::kEzSegway,
                                     SystemKind::kCentral};
  return kSystems[seed % 3];
}

void enable_recovery(TestBedParams& p, double control_drop) {
  p.fault_plan.model.control_drop_prob = control_drop;
  p.recovery.enabled = true;
  p.enable_retrigger = true;
  p.p4u_uim_watchdog = sim::milliseconds(500);
  p.p4u_wait_timeout = sim::milliseconds(500);
}

/// The churn family's bed (churn_property_test's shape), run to the end.
std::uint64_t run_churn(int seed, double control_drop) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams churn;
  churn.pairs = 8;
  churn.initial_flows = 16;
  churn.arrivals_per_sec = 25.0;
  churn.duration = sim::seconds(4);
  churn.endpoints = ft.edge;
  const auto wl_seed = static_cast<std::uint64_t>(7000 + seed);
  const ChurnWorkload wl = make_churn_workload(ft.graph, wl_seed, churn);

  TestBedParams params;
  params.system = system_for(seed);
  params.seed = wl_seed;
  params.trace_enabled = false;
  params.admission.max_inflight_global = 32;
  params.admission.max_inflight_per_flow = 1;
  params.admission.coalesce = true;
  if (control_drop > 0.0) enable_recovery(params, control_drop);
  TestBed bed(ft.graph, params);

  std::vector<net::FlowId> watched;
  for (const ChurnWorkload::FlowSlot& slot : wl.flows) {
    watched.push_back(slot.flow.id);
  }
  LoopReference reference(bed, std::move(watched));
  install_churn(bed, wl);
  bed.run(sim::seconds(120));

  EXPECT_TRUE(bed.flow_db().all_requests_terminal());
  EXPECT_EQ(bed.monitor().violations().loops, reference.loops())
      << to_string(params.system) << " drop " << control_drop;
  return reference.loops();
}

/// The chaos family's bed: a gravity batch on fat-tree(4) with one link
/// outage and one switch crash mid-update, drawn like the campaign does.
std::uint64_t run_chaos(int seed) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  const net::Graph& g = ft.graph;
  const auto run_seed = static_cast<std::uint64_t>(9000 + seed);
  sim::Rng traffic_rng(run_seed ^ 0x7AFF1Cull);
  const std::vector<TrafficFlow> flows = gravity_multiflow(g, traffic_rng);

  TestBedParams params;
  params.system = system_for(seed);
  params.seed = run_seed;
  params.trace_enabled = false;
  enable_recovery(params, 0.05);
  sim::Rng chaos_rng(run_seed ^ 0xC4A05ull);
  const auto draw_at = [&chaos_rng] {
    return sim::milliseconds(20) +
           static_cast<sim::Time>(chaos_rng.uniform(
               static_cast<std::uint64_t>(sim::milliseconds(130))));
  };
  const net::Link& l =
      g.link(static_cast<net::LinkId>(chaos_rng.uniform(g.link_count())));
  params.fault_plan.link_down_for(draw_at(), l.a, l.b, sim::seconds(2));
  const auto victim =
      static_cast<net::NodeId>(chaos_rng.uniform(g.node_count()));
  params.fault_plan.switch_crash_for(draw_at(), victim, sim::seconds(2));
  TestBed bed(g, params);

  std::vector<net::FlowId> watched;
  std::vector<std::pair<net::FlowId, net::Path>> batch;
  for (const TrafficFlow& tf : flows) {
    watched.push_back(tf.flow.id);
    batch.emplace_back(tf.flow.id, tf.new_path);
  }
  LoopReference reference(bed, std::move(watched));
  for (const TrafficFlow& tf : flows) bed.deploy_flow(tf.flow, tf.old_path);
  bed.schedule_batch_at(sim::milliseconds(10), std::move(batch));
  bed.run(sim::seconds(120));

  EXPECT_EQ(bed.monitor().violations().loops, reference.loops())
      << to_string(params.system);
  return reference.loops();
}

/// The Fig. 2 demo's ez-Segway bed (harness/demo_scenarios.cpp): config (b)
/// arrives late, (c) is issued on top of it, and the chain loops.
std::uint64_t run_fig2_ezsegway(int seed) {
  net::NamedTopology topo = net::fig2_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  params.seed = static_cast<std::uint64_t>(seed);
  params.ctrl_latency_model = CtrlLatencyModel::kFixed;
  params.fixed_ctrl_latency = sim::milliseconds(5);
  params.trace_enabled = false;
  TestBed bed(topo.graph, params);

  net::Flow flow;
  flow.ingress = 0;
  flow.egress = 4;
  flow.id = net::flow_id_of(0, 4);
  flow.size = 1.0;
  LoopReference reference(bed, {flow.id});
  bed.deploy_flow(flow, {0, 1, 2, 3, 4});
  TestBed* bedp = &bed;
  const net::FlowId id = flow.id;
  bed.simulator().schedule_at(
      sim::seconds(10) - sim::milliseconds(100),
      [bedp, id] { bedp->start_traffic(id, 0, 125.0, 75, 64); });
  bed.simulator().schedule_at(
      sim::seconds(10) + sim::milliseconds(100), [bedp, id] {
        bedp->channel().set_extra_outbound_delay(sim::milliseconds(400));
        bedp->issue_update_now(id, {0, 1, 2, 4});
        bedp->channel().set_extra_outbound_delay(0);
        bedp->force_belief(id, {0, 1, 2, 4});
      });
  bed.schedule_update_at(sim::seconds(10) + sim::milliseconds(150), id,
                         {0, 3, 1, 2, 4});
  bed.run(sim::seconds(30));

  EXPECT_EQ(bed.monitor().violations().loops, reference.loops());
  return reference.loops();
}

class IncrementalLoopCheckProperty : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalLoopCheckProperty, ChurnClean) { run_churn(GetParam(), 0.0); }

TEST_P(IncrementalLoopCheckProperty, ChurnDrop05) { run_churn(GetParam(), 0.05); }

TEST_P(IncrementalLoopCheckProperty, Chaos) { run_chaos(GetParam()); }

TEST_P(IncrementalLoopCheckProperty, Fig2EzSegwayLoops) {
  EXPECT_GT(run_fig2_ezsegway(GetParam()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalLoopCheckProperty,
                         ::testing::Range(0, kSeeds));

}  // namespace
}  // namespace p4u::harness
