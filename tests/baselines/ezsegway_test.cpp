// ez-Segway baseline end-to-end on its own (correct-view) assumptions.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "net/topologies.hpp"

namespace p4u::baseline {
namespace {

using harness::SystemKind;
using harness::TestBed;
using harness::TestBedParams;

net::Flow flow_over(const net::Path& p, double size = 1.0) {
  net::Flow f;
  f.ingress = p.front();
  f.egress = p.back();
  f.id = net::flow_id_of(f.ingress, f.egress);
  f.size = size;
  return f;
}

TEST(EzSegwayTest, CompletesFig1UpdateConsistently) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_over(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  bed.run();
  ASSERT_TRUE(bed.flow_db().duration(f.id, 2).has_value());
  // With a correct controller view, ez-Segway is consistent too.
  EXPECT_EQ(bed.monitor().violations().loops, 0u);
  EXPECT_EQ(bed.monitor().violations().blackholes, 0u);
  // Final rules follow the new path.
  for (std::size_t i = 0; i + 1 < topo.new_path.size(); ++i) {
    EXPECT_EQ(bed.fabric().sw(topo.new_path[i]).lookup(f.id),
              std::optional<std::int32_t>(topo.graph.port_of(
                  topo.new_path[i], topo.new_path[i + 1])));
  }
}

TEST(EzSegwayTest, ForcedIdleBeliefKeepsBothVersionsInFlight) {
  // Fig. 2's stale controller: version 2's commands are delayed, the
  // controller is told the flow already runs on version 2's path, and it
  // issues version 3 on top while version 2 is still in flight. Each
  // version completes when its own segments have reported.
  net::NamedTopology topo = net::fig2_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  params.ctrl_latency_model = harness::CtrlLatencyModel::kFixed;
  params.fixed_ctrl_latency = sim::milliseconds(5);
  TestBed bed(topo.graph, params);
  const net::Path config_a{0, 1, 2, 3, 4};
  const net::Path config_b{0, 1, 2, 4};
  const net::Path config_c{0, 3, 1, 2, 4};
  const net::Flow f = flow_over(config_a);
  bed.deploy_flow(f, config_a);
  bed.simulator().schedule_at(sim::milliseconds(10), [&] {
    bed.channel().set_extra_outbound_delay(sim::milliseconds(400));
    bed.issue_update_now(f.id, config_b);
    bed.channel().set_extra_outbound_delay(0);
    bed.force_belief(f.id, config_b);
  });
  bed.schedule_update_at(sim::milliseconds(60), f.id, config_c);
  bed.run(sim::seconds(30));
  const auto* r2 = bed.flow_db().record(f.id, 2);
  const auto* r3 = bed.flow_db().record(f.id, 3);
  ASSERT_NE(r2, nullptr);
  ASSERT_NE(r3, nullptr);
  EXPECT_LT(r3->issued_at, r2->completed_at) << "both were in flight";
  EXPECT_EQ(r2->outcome, control::UpdateOutcome::kCompleted);
  EXPECT_EQ(r3->outcome, control::UpdateOutcome::kCompleted);
}

TEST(EzSegwayTest, SecondUpdateWaitsForFirst) {
  // ez-Segway's §4.2 behavior: updates of one flow serialize.
  net::NamedTopology topo = net::fig4_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_over(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, {0, 1, 4, 5});
  bed.schedule_update_at(sim::milliseconds(11), f.id, topo.new_path);
  bed.run();
  const auto* r2 = bed.flow_db().record(f.id, 2);
  const auto* r3 = bed.flow_db().record(f.id, 3);
  ASSERT_NE(r2, nullptr);
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(r2->state, control::UpdateState::kCompleted);
  EXPECT_EQ(r3->state, control::UpdateState::kCompleted);
  // Version 3 was issued only after version 2 completed.
  EXPECT_GE(r3->issued_at, r2->completed_at);
}

TEST(EzSegwayTest, TrivialUpdateCompletesInstantly) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_over(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.old_path);
  bed.run();
  ASSERT_TRUE(bed.flow_db().duration(f.id, 2).has_value());
  EXPECT_EQ(*bed.flow_db().duration(f.id, 2), 0);
}

TEST(EzSegwayTest, InLoopSegmentWaitsForDependency) {
  // Fig. 1 trace structure: v2's rule (into the backward segment) must be
  // installed after v4's rule (end of the forward segment).
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_over(topo.old_path);
  bed.deploy_flow(f, topo.old_path);

  std::vector<net::NodeId> install_order;
  p4rt::FabricCallbacks cb;
  cb.rule_installed = [&](net::NodeId n, net::FlowId, std::int32_t) {
    install_order.push_back(n);
  };
  const auto sub = bed.fabric().subscribe(&cb);

  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  bed.run();
  const auto pos = [&](net::NodeId n) {
    return std::find(install_order.begin(), install_order.end(), n) -
           install_order.begin();
  };
  EXPECT_LT(pos(4), pos(2));  // dependency respected
  EXPECT_LT(pos(3), pos(2));  // in-loop chain is egress-junction first
}

TEST(EzSegwayTest, CongestionVariantWaitsForFreedCapacity) {
  // Chained dependency: f2 can only take f1's old links after f1 left.
  net::NamedTopology topo = net::fig4_topology();
  net::set_uniform_capacity(topo.graph, 1.0);
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  params.congestion_mode = true;
  params.monitor_capacity = true;
  TestBed bed(topo.graph, params);
  net::Flow f1;
  f1.ingress = 0; f1.egress = 5; f1.id = 101; f1.size = 1.0;
  net::Flow f2;
  f2.ingress = 0; f2.egress = 5; f2.id = 102; f2.size = 1.0;
  bed.deploy_flow(f1, {0, 1, 4, 5});  // occupies 0->1, 1->4, 4->5
  bed.deploy_flow(f2, {0, 2, 5});     // occupies 0->2, 2->5
  // f1 vacates to the idle direct link; f2 then takes f1's old links.
  bed.schedule_batch_at(sim::milliseconds(10),
                        {{f1.id, {0, 5}}, {f2.id, {0, 1, 4, 5}}});
  bed.run();
  EXPECT_EQ(bed.monitor().violations().capacity, 0u);
  EXPECT_TRUE(bed.flow_db().duration(f1.id, 2).has_value());
  EXPECT_TRUE(bed.flow_db().duration(f2.id, 2).has_value());
}

}  // namespace
}  // namespace p4u::baseline
