// Controller recovery, system by system: the completion-timer schedule and
// its give-up outcome, and two liveness regressions where a controller
// stranded a request after a fault or a same-flow resubmit.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "baselines/ezsegway_controller.hpp"
#include "core/p4update_controller.hpp"
#include "faults/recovery.hpp"
#include "harness/scenario.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "p4rt/control_channel.hpp"
#include "p4rt/fabric.hpp"

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
    EXPECT_EQ(bed.flow_db().latest(f.id)->outcome,
              control::UpdateOutcome::kPending);
    bed.run(sim::seconds(120));

    const control::UpdateRecord& rec = *bed.flow_db().latest(f.id);
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

// The lifecycle with no protocol: every update is begun and never sent, so
// the test reads back what the shared store recorded for each version.
class LedgerOnlyController final : public faults::RecoveringController {
 public:
  LedgerOnlyController(p4rt::ControlChannel& channel, const net::Graph& g)
      : RecoveringController(channel, control::Nib(g), {}) {}

  p4rt::Version schedule_update(net::FlowId flow,
                                const net::Path& new_path) override {
    return begin_update(flow, new_path);
  }
  void handle_from_switch(net::NodeId, const p4rt::Packet&) override {}

  /// The path (flow, v) was issued for; empty when none was.
  [[nodiscard]] net::Path issued(net::FlowId flow, p4rt::Version v) const {
    const std::span<const net::NodeId> p = issued_path(flow, v);
    return net::Path(p.begin(), p.end());
  }

 private:
  void resend(net::FlowId, p4rt::Version) override {}
  void cancel_inflight(net::FlowId, p4rt::Version, bool) override {}
  void pump_next(std::span<const net::FlowId>) override {}
  void redeploy(net::FlowId, net::NodeId) override {}
};

// Late completions, retriggers and repairs look up the path of an older
// version, so the store answers for every version ever issued, per flow,
// however the flows' updates interleave.
TEST(RecoveringControllerTest, IssuedPathAnswersForEveryIssuedVersion) {
  const net::FatTree ft = net::fattree_topology(4);
  sim::Simulator sim;
  p4rt::Fabric fabric(sim, ft.graph, p4rt::SwitchParams{}, 1);
  p4rt::ControlChannel channel(
      sim, fabric,
      std::vector<sim::Duration>(ft.graph.node_count(), sim::milliseconds(1)),
      sim::milliseconds(1));
  LedgerOnlyController ctrl(channel, ft.graph);

  const std::vector<net::Path> x = net::k_shortest_paths(
      ft.graph, ft.edge[0], ft.edge[2], 3, net::Metric::kHops);
  const std::vector<net::Path> y = net::k_shortest_paths(
      ft.graph, ft.edge[4], ft.edge[7], 3, net::Metric::kHops);
  ASSERT_EQ(x.size(), 3u);
  ASSERT_EQ(y.size(), 3u);
  const net::Flow fx = flow_along(x[0]);
  const net::Flow fy = flow_along(y[0]);
  ctrl.register_flow(fx, x[0]);
  ctrl.register_flow(fy, y[0]);

  // Versions 2..13 of each flow, interleaved across the two flows.
  std::vector<net::Path> want_x{{}, {}};
  std::vector<net::Path> want_y{{}, {}};
  for (std::size_t i = 0; i < 12; ++i) {
    const net::Path& px = x[(i + 1) % x.size()];
    const net::Path& py = y[(i * 2 + 1) % y.size()];
    EXPECT_EQ(ctrl.schedule_update(fx.id, px), i + 2);
    EXPECT_EQ(ctrl.schedule_update(fy.id, py), i + 2);
    want_x.push_back(px);
    want_y.push_back(py);
  }
  for (p4rt::Version v = 2; v < 14; ++v) {
    EXPECT_EQ(ctrl.issued(fx.id, v), want_x[static_cast<std::size_t>(v)])
        << "flow x, version " << v;
    EXPECT_EQ(ctrl.issued(fy.id, v), want_y[static_cast<std::size_t>(v)])
        << "flow y, version " << v;
  }
  EXPECT_TRUE(ctrl.issued(fx.id, 1).empty()) << "deployed, never issued";
  EXPECT_TRUE(ctrl.issued(fx.id, 14).empty()) << "not issued yet";
}

// A version that settles after its successor was issued makes the NIB
// believe that version's own path, not the newest one issued.
TEST(RecoveringControllerTest, LateCompletionBelievesItsOwnPath) {
  net::NamedTopology topo = net::fig1_topology();
  sim::Simulator sim;
  p4rt::Fabric fabric(sim, topo.graph, p4rt::SwitchParams{}, 1);
  p4rt::ControlChannel channel(
      sim, fabric,
      std::vector<sim::Duration>(topo.graph.node_count(),
                                 sim::milliseconds(5)),
      sim::milliseconds(1));
  core::P4UpdateController ctrl(channel, control::Nib(topo.graph));
  const net::Flow f = flow_along(topo.old_path);
  ctrl.register_flow(f, topo.old_path);
  ASSERT_EQ(ctrl.schedule_update(f.id, topo.new_path), 2u);
  ASSERT_EQ(ctrl.schedule_update(f.id, topo.old_path), 3u);

  p4rt::UfmHeader ufm;
  ufm.flow = f.id;
  ufm.version = 2;
  ufm.success = true;
  ctrl.handle_from_switch(topo.old_path.front(), p4rt::Packet{ufm});
  EXPECT_EQ(ctrl.nib().view(f.id).believed_path, topo.new_path);
  ufm.version = 3;
  ctrl.handle_from_switch(topo.old_path.front(), p4rt::Packet{ufm});
  EXPECT_EQ(ctrl.nib().view(f.id).believed_path, topo.old_path);
}

// ez-Segway issues a flow's next version only once the previous one
// settled; each completion still believes its own version's path.
TEST(RecoveringControllerTest, EzSegwayEachCompletionBelievesItsOwnPath) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kEzSegway;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_along(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  std::vector<net::Path> believed_at_completion;
  bed.ezsegway().on_complete = [&](net::FlowId flow, p4rt::Version,
                                   sim::Time) {
    believed_at_completion.push_back(
        bed.ezsegway().nib().view(flow).believed_path);
  };
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  bed.schedule_update_at(sim::milliseconds(11), f.id, topo.old_path);
  bed.run(sim::seconds(30));

  ASSERT_EQ(believed_at_completion.size(), 2u);
  EXPECT_EQ(believed_at_completion[0], topo.new_path);
  EXPECT_EQ(believed_at_completion[1], topo.old_path);
  EXPECT_EQ(bed.flow_db().latest(f.id)->version, 3u);
}

}  // namespace
}  // namespace p4u::harness
