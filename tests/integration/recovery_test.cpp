// §11 "Failures in the Update Process": lost notifications are detected by
// the per-switch watchdog, reported to the controller, and resolved by
// re-triggering the update (the egress re-generates the UNM chain).
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

/// Plan section that drops every switch-to-switch control message inside
/// [from, to] — the first UNM chain dies in transit, leaving no parked
/// state anywhere.
faults::FaultPlan blackout(sim::Time from, sim::Time to) {
  faults::FaultPlan plan;
  faults::FaultModel dark;
  dark.control_drop_prob = 1.0;
  plan.set_model(from, dark);
  plan.set_model(to, faults::FaultModel{});
  return plan;
}

struct RecoveryBed {
  explicit RecoveryBed(bool retrigger, faults::FaultPlan plan = {})
      : topo(net::fig1_topology()) {
    TestBedParams params;
    params.enable_retrigger = retrigger;
    params.p4u_uim_watchdog = sim::milliseconds(500);
    params.p4u_wait_timeout = sim::milliseconds(500);
    params.fault_plan = std::move(plan);
    bed = std::make_unique<TestBed>(topo.graph, params);
    flow.ingress = 0;
    flow.egress = 7;
    flow.id = net::flow_id_of(0, 7);
    flow.size = 1.0;
    bed->deploy_flow(flow, topo.old_path);
  }

  net::NamedTopology topo;
  std::unique_ptr<TestBed> bed;
  net::Flow flow;
};

TEST(RecoveryTest, WithoutRetriggerALostChainStallsForever) {
  RecoveryBed env(/*retrigger=*/false,
                  blackout(sim::milliseconds(10), sim::milliseconds(200)));
  env.bed->schedule_update_at(sim::milliseconds(10), env.flow.id,
                              env.topo.new_path);
  env.bed->run(sim::seconds(120));
  EXPECT_FALSE(env.bed->flow_db().duration(env.flow.id, 2).has_value());
  // Watchdogs fired and alarmed, but nobody re-triggered.
  EXPECT_GT(env.bed->flow_db().total_alarms(), 0u);
  EXPECT_EQ(env.bed->monitor().violations().total(), 0u);
  EXPECT_TRUE(env.bed->simulator().idle());
}

TEST(RecoveryTest, RetriggerRecoversFromLostChain) {
  RecoveryBed env(/*retrigger=*/true,
                  blackout(sim::milliseconds(10), sim::milliseconds(200)));
  env.bed->schedule_update_at(sim::milliseconds(10), env.flow.id,
                              env.topo.new_path);
  env.bed->run(sim::seconds(120));
  ASSERT_TRUE(env.bed->flow_db().duration(env.flow.id, 2).has_value())
      << "the re-triggered chain must converge";
  EXPECT_GT(env.bed->p4update().retriggers_sent(), 0u);
  EXPECT_EQ(env.bed->monitor().violations().total(), 0u);
  // Final rules follow the new path.
  for (std::size_t i = 0; i + 1 < env.topo.new_path.size(); ++i) {
    EXPECT_EQ(env.bed->fabric().sw(env.topo.new_path[i]).lookup(env.flow.id),
              std::optional<std::int32_t>(env.topo.graph.port_of(
                  env.topo.new_path[i], env.topo.new_path[i + 1])));
  }
}

TEST(RecoveryTest, RetriggerIsBoundedUnderPermanentBlackout) {
  RecoveryBed env(
      /*retrigger=*/true,
      blackout(sim::milliseconds(10), sim::seconds(1000)));  // never heals
  env.bed->schedule_update_at(sim::milliseconds(10), env.flow.id,
                              env.topo.new_path);
  env.bed->run(sim::seconds(1100));  // past the blackout-end event
  EXPECT_FALSE(env.bed->flow_db().duration(env.flow.id, 2).has_value());
  EXPECT_LE(env.bed->p4update().retriggers_sent(), 5u);  // kMaxRetriggers
  EXPECT_TRUE(env.bed->simulator().idle()) << "recovery must terminate";
  EXPECT_EQ(env.bed->monitor().violations().total(), 0u);
}

TEST(RecoveryTest, RetriggerUnderRandomLossConvergesAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    net::NamedTopology topo = net::fig1_topology();
    TestBedParams params;
    params.seed = seed;
    params.enable_retrigger = true;
    params.p4u_uim_watchdog = sim::milliseconds(400);
    params.p4u_wait_timeout = sim::milliseconds(400);
    params.fault_plan.model.control_drop_prob = 0.25;
    TestBed bed(topo.graph, params);
    net::Flow f;
    f.ingress = 0;
    f.egress = 7;
    f.id = net::flow_id_of(0, 7);
    f.size = 1.0;
    bed.deploy_flow(f, topo.old_path);
    bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
    bed.run(sim::seconds(300));
    EXPECT_EQ(bed.monitor().violations().total(), 0u) << "seed " << seed;
    EXPECT_TRUE(bed.flow_db().duration(f.id, 2).has_value())
        << "seed " << seed << " did not recover";
  }
}

}  // namespace
}  // namespace p4u::harness
