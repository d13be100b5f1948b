// Central (Dionysus-style) baseline end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/central_controller.hpp"
#include "harness/scenario.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "p4rt/control_channel.hpp"
#include "p4rt/fabric.hpp"

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

TEST(CentralTest, CompletesFig1UpdateWithoutViolations) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kCentral;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_over(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  bed.run();
  ASSERT_TRUE(bed.flow_db().duration(f.id, 2).has_value());
  EXPECT_EQ(bed.monitor().violations().loops, 0u);
  EXPECT_EQ(bed.monitor().violations().blackholes, 0u);
  for (std::size_t i = 0; i + 1 < topo.new_path.size(); ++i) {
    EXPECT_EQ(bed.fabric().sw(topo.new_path[i]).lookup(f.id),
              std::optional<std::int32_t>(topo.graph.port_of(
                  topo.new_path[i], topo.new_path[i + 1])));
  }
}

TEST(CentralTest, DependenciesCostMultipleRounds) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kCentral;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_over(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  bed.run();
  EXPECT_GE(bed.central().rounds_issued(), 3u);
}

TEST(CentralTest, SlowerThanP4UpdateOnSameScenario) {
  // The architectural claim of the paper in one assertion. Under the §9.1
  // single-flow setup (exp(100 ms) straggler installs), Central pays a
  // max-of-round barrier plus a controller round trip per dependency level
  // while P4Update pipelines installs in the data plane.
  net::NamedTopology topo = net::fig1_topology();
  auto mean_over_seeds = [&](SystemKind kind) {
    sim::Duration total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      TestBedParams params;
      params.system = kind;
      params.seed = seed;
      params.switch_params.straggler_mean_ms = 100.0;
      TestBed bed(topo.graph, params);
      const net::Flow f = flow_over(topo.old_path);
      bed.deploy_flow(f, topo.old_path);
      bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
      bed.run();
      auto d = bed.flow_db().duration(f.id, 2);
      EXPECT_TRUE(d.has_value()) << to_string(kind);
      total += d.value_or(0);
    }
    return total;
  };
  EXPECT_GT(mean_over_seeds(SystemKind::kCentral),
            mean_over_seeds(SystemKind::kP4Update));
}

TEST(CentralTest, TrivialUpdateCompletesWithoutCommands) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = SystemKind::kCentral;
  TestBed bed(topo.graph, params);
  const net::Flow f = flow_over(topo.old_path);
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.old_path);
  bed.run();
  ASSERT_TRUE(bed.flow_db().duration(f.id, 2).has_value());
  EXPECT_EQ(*bed.flow_db().duration(f.id, 2), 0);
  EXPECT_EQ(bed.central().rounds_issued(), 0u);
}

TEST(CentralTest, CongestionModeSequencesCapacityMoves) {
  net::NamedTopology topo = net::fig4_topology();
  net::set_uniform_capacity(topo.graph, 1.0);
  TestBedParams params;
  params.system = SystemKind::kCentral;
  params.congestion_mode = true;
  params.monitor_capacity = true;
  TestBed bed(topo.graph, params);
  net::Flow f1;
  f1.ingress = 0; f1.egress = 5; f1.id = 201; f1.size = 1.0;
  net::Flow f2;
  f2.ingress = 0; f2.egress = 5; f2.id = 202; f2.size = 1.0;
  bed.deploy_flow(f1, {0, 1, 4, 5});
  bed.deploy_flow(f2, {0, 2, 5});
  bed.schedule_batch_at(sim::milliseconds(10),
                        {{f1.id, {0, 5}}, {f2.id, {0, 1, 4, 5}}});
  bed.run();
  EXPECT_EQ(bed.monitor().violations().capacity, 0u);
  EXPECT_TRUE(bed.flow_db().duration(f1.id, 2).has_value());
  EXPECT_TRUE(bed.flow_db().duration(f2.id, 2).has_value());
}

/// Records every install command in arrival order and acknowledges it at
/// once, without touching the forwarding table.
class AckingRecorder final : public p4rt::Pipeline {
 public:
  explicit AckingRecorder(std::vector<p4rt::InstallCmdHeader>* log)
      : log_(log) {}
  void handle(p4rt::SwitchDevice& sw, p4rt::Packet pkt,
              std::int32_t in_port) override {
    (void)in_port;
    if (!pkt.is<p4rt::InstallCmdHeader>()) return;
    const auto cmd = pkt.as<p4rt::InstallCmdHeader>();
    if (cmd.remove) return;
    log_->push_back(cmd);
    p4rt::InstallAckHeader ack;
    ack.flow = cmd.flow;
    ack.version = cmd.version;
    ack.node = sw.id();
    ack.round = cmd.round;
    sw.send_to_controller(p4rt::Packet{ack});
  }

 private:
  std::vector<p4rt::InstallCmdHeader>* log_;
};

// One global round visits the live jobs in ascending flow id, whatever
// order their updates were scheduled in: with equal control latency to
// every switch, the commands of a round arrive grouped by flow, ascending.
TEST(CentralTest, RoundCommandsGoOutInAscendingFlowId) {
  const net::FatTree ft = net::fattree_topology(4);
  sim::Simulator sim;
  p4rt::Fabric fabric(sim, ft.graph, p4rt::SwitchParams{}, 1);
  p4rt::ControlChannel channel(
      sim, fabric,
      std::vector<sim::Duration>(ft.graph.node_count(), sim::milliseconds(2)),
      sim::microseconds(100));
  std::vector<p4rt::InstallCmdHeader> log;
  std::vector<std::unique_ptr<AckingRecorder>> pipes;
  for (std::size_t n = 0; n < ft.graph.node_count(); ++n) {
    pipes.push_back(std::make_unique<AckingRecorder>(&log));
    fabric.sw(static_cast<net::NodeId>(n)).set_pipeline(pipes.back().get());
  }
  CentralController ctrl(channel, control::Nib(ft.graph));

  // Three flows on disjoint edge pairs, each moved to another core.
  std::vector<std::pair<net::Flow, net::Path>> moves;
  for (const auto& [a, b] : {std::pair{0, 2}, std::pair{4, 6},
                             std::pair{1, 7}}) {
    const std::vector<net::Path> ksp = net::k_shortest_paths(
        ft.graph, ft.edge[static_cast<std::size_t>(a)],
        ft.edge[static_cast<std::size_t>(b)], 2, net::Metric::kHops);
    ASSERT_EQ(ksp.size(), 2u);
    const net::Flow f = flow_over(ksp[0]);
    ctrl.register_flow(f, ksp[0]);
    moves.emplace_back(f, ksp[1]);
  }
  // Highest id first: its job opens the first round alone, and the other
  // two jobs join it from the second round on.
  std::sort(moves.begin(), moves.end(), [](const auto& x, const auto& y) {
    return x.first.id > y.first.id;
  });
  sim.schedule_at(sim::milliseconds(10), [&] {
    for (const auto& [f, path] : moves) ctrl.schedule_update(f.id, path);
  });
  sim.run();

  std::map<std::int32_t, std::vector<net::FlowId>> flows_by_round;
  for (const p4rt::InstallCmdHeader& cmd : log) {
    flows_by_round[cmd.round].push_back(cmd.flow);
  }
  std::size_t rounds_with_all_three = 0;
  for (const auto& [round, flows] : flows_by_round) {
    EXPECT_TRUE(std::is_sorted(flows.begin(), flows.end()))
        << "round " << round;
    std::vector<net::FlowId> distinct = flows;
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (distinct.size() == 3) ++rounds_with_all_three;
  }
  EXPECT_GE(rounds_with_all_three, 1u);
  EXPECT_TRUE(ctrl.flow_db().all_completed());
}

}  // namespace
}  // namespace p4u::baseline
