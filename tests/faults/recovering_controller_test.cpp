// Controller recovery, system by system: the completion-timer schedule and
// its give-up outcome, and two liveness regressions where a controller
// stranded a request after a fault or a same-flow resubmit.
#include <gtest/gtest.h>

#include <vector>

#include "harness/scenario.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

net::Flow flow_along(const net::Path& path) {
  net::Flow f;
  f.ingress = path.front();
  f.egress = path.back();
  f.id = net::flow_id_of(f.ingress, f.egress);
  f.size = 1.0;
  return f;
}

// Every link has half the flow's size, so the congestion-aware update can
// never become safe: each system resends on the backoff schedule (200 ms,
// then doubling) and, after the fourth resend's wait, rolls back onto the
// old path, which is still healthy.
TEST(RecoveringControllerTest, UnsafeUpdateRollsBackAfterFourResends) {
  for (const SystemKind kind : {SystemKind::kP4Update, SystemKind::kEzSegway,
                                SystemKind::kCentral}) {
    SCOPED_TRACE(to_string(kind));
    net::NamedTopology topo = net::fig1_topology();
    net::set_uniform_capacity(topo.graph, 0.5);
    TestBedParams params;
    params.system = kind;
    params.congestion_mode = true;
    params.recovery.enabled = true;
    TestBed bed(topo.graph, params);
    const net::Flow f = flow_along(topo.old_path);
    bed.deploy_flow(f, topo.old_path);
    const sim::Time issue = sim::milliseconds(10);
    bed.schedule_update_at(issue, f.id, topo.new_path);

    const auto resends = [&bed] {
      return bed.metrics().counter_total("ctrl.recovery_resends");
    };
    const sim::Duration resend_after[] = {
        sim::milliseconds(200), sim::milliseconds(600),
        sim::milliseconds(1400), sim::milliseconds(3000)};
    for (std::uint64_t k = 0; k < 4; ++k) {
      bed.run(issue + resend_after[k] - 1);
      EXPECT_EQ(resends(), k) << "before resend " << k + 1;
      bed.run(issue + resend_after[k]);
      EXPECT_EQ(resends(), k + 1) << "at resend " << k + 1;
    }
    const sim::Time give_up = issue + sim::milliseconds(6200);
    bed.run(give_up - 1);
    EXPECT_EQ(bed.flow_db().history(f.id).back().outcome,
              control::UpdateOutcome::kPending);
    bed.run(sim::seconds(120));

    const control::UpdateRecord& rec = bed.flow_db().history(f.id).back();
    EXPECT_EQ(rec.version, 2u);
    EXPECT_EQ(rec.outcome, control::UpdateOutcome::kRolledBack);
    EXPECT_EQ(rec.issued_at, issue);
    EXPECT_EQ(rec.completed_at, give_up);
    EXPECT_EQ(resends(), 4u);
    EXPECT_EQ(bed.metrics().counter_value("ctrl.recovery_gaveup",
                                          {{"outcome", "rolled-back"}}),
              1u);
    ASSERT_EQ(bed.flow_db().requests().size(), 1u);
    const control::RequestRecord& req = bed.flow_db().requests().front();
    EXPECT_EQ(req.state, control::RequestState::kRolledBack);
    EXPECT_EQ(req.finished_at, give_up);
  }
}

// ez-Segway holds a flow's second request until the first one settles
// (§4.2). When a permanent egress crash leaves the first one no repair
// path, abandoning it must still release the queued request.
TEST(RecoveringControllerTest, EzSegwayAbandonIssuesTheQueuedRequest) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  params.recovery.enabled = true;
  params.fault_plan.switch_crash(sim::milliseconds(15), topo.old_path.back());
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_along(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  // Back to the installed path: a no-op update once it is issued.
  bed.schedule_update_at(sim::milliseconds(11), f.id, topo.old_path);
  bed.run(sim::seconds(120));

  EXPECT_TRUE(bed.simulator().idle());
  const std::vector<control::RequestRecord>& reqs = bed.flow_db().requests();
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].state, control::RequestState::kAbandoned);
  EXPECT_EQ(reqs[1].state, control::RequestState::kCompleted);
  EXPECT_EQ(reqs[1].version, 3u);
  EXPECT_TRUE(bed.flow_db().all_requests_terminal());
}

// Central keeps one job per flow behind a global round barrier. A second
// request for a flow whose job still has unacknowledged commands replaces
// that job; the barrier must stop waiting for the replaced job's acks, or
// no flow ever gets another round.
TEST(RecoveringControllerTest, CentralSameFlowResubmitKeepsTheBarrierOpen) {
  for (const bool recovery : {false, true}) {
    SCOPED_TRACE(recovery ? "recovery on" : "recovery off");
    net::FatTree ft = net::fattree_topology(4);
    TestBedParams params;
    params.system = SystemKind::kCentral;
    params.recovery.enabled = recovery;
    TestBed bed(ft.graph, params);
    const std::vector<net::Path> x = net::k_shortest_paths(
        ft.graph, ft.edge[0], ft.edge[2], 3, net::Metric::kHops);
    const std::vector<net::Path> y = net::k_shortest_paths(
        ft.graph, ft.edge[4], ft.edge[6], 2, net::Metric::kHops);
    ASSERT_EQ(x.size(), 3u);
    ASSERT_EQ(y.size(), 2u);
    bed.deploy_flow(flow_along(x[0]), x[0]);
    bed.deploy_flow(flow_along(y[0]), y[0]);
    bed.schedule_update_at(sim::milliseconds(10), flow_along(x[0]).id, x[1]);
    bed.schedule_update_at(sim::milliseconds(11), flow_along(x[0]).id, x[2]);
    bed.schedule_update_at(sim::seconds(5), flow_along(y[0]).id, y[1]);
    bed.run(sim::seconds(120));

    EXPECT_TRUE(bed.flow_db().all_requests_terminal());
    const std::vector<control::RequestRecord>& reqs =
        bed.flow_db().requests();
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[1].state, control::RequestState::kCompleted);
    EXPECT_EQ(reqs[2].state, control::RequestState::kCompleted);
    EXPECT_GT(bed.central().rounds_issued(), 1u);
    EXPECT_EQ(bed.monitor().violations().loops, 0u);
    EXPECT_EQ(bed.monitor().violations().blackholes, 0u);
  }
}

}  // namespace
}  // namespace p4u::harness
