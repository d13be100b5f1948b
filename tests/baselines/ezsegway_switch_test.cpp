// EzSegwaySwitch pipeline unit tests (packet-level, no controller).
#include "baselines/ezsegway_switch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "net/topologies.hpp"

namespace p4u::baseline {
namespace {

struct Env {
  Env() : topo(net::fig1_topology()) {
    fabric = std::make_unique<p4rt::Fabric>(sim, topo.graph,
                                            p4rt::SwitchParams{}, 1);
    for (std::size_t n = 0; n < topo.graph.node_count(); ++n) {
      pipes.push_back(std::make_unique<EzSegwaySwitch>(
          static_cast<net::NodeId>(n), topo.graph, EzSwitchParams{}));
      fabric->sw(static_cast<net::NodeId>(n)).set_pipeline(pipes.back().get());
    }
  }
  sim::Simulator sim;
  net::NamedTopology topo;
  std::unique_ptr<p4rt::Fabric> fabric;
  std::vector<std::unique_ptr<EzSegwaySwitch>> pipes;
};

p4rt::EzCmdHeader rule_cmd(net::FlowId flow, net::NodeId target,
                           std::int32_t seg, std::int32_t port,
                           std::int32_t upstream, bool top) {
  p4rt::EzCmdHeader c;
  c.flow = flow;
  c.target = target;
  c.version = 2;
  c.has_rule_change = true;
  c.rule_segment = seg;
  c.egress_port_new = port;
  c.upstream_port = upstream;
  c.is_segment_top = top;
  return c;
}

TEST(EzSegwaySwitchTest, NotifyBeforeCmdIsRetriedUntilCmdArrives) {
  Env env;
  // Notify for a segment whose command arrives 5 ms later.
  p4rt::EzNotifyHeader n;
  n.flow = 42;
  n.version = 2;
  n.segment_id = 0;
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.sim.schedule_in(sim::milliseconds(5), [&]() {
    env.fabric->inject(
        1,
        p4rt::Packet{rule_cmd(42, 1, 0, env.topo.graph.port_of(1, 2), -1,
                              true)},
        -1);
  });
  env.sim.run();
  EXPECT_EQ(env.fabric->sw(1).lookup(42),
            std::optional<std::int32_t>(env.topo.graph.port_of(1, 2)));
}

TEST(EzSegwaySwitchTest, DuplicateNotifyInstallsOnce) {
  Env env;
  env.fabric->inject(
      1,
      p4rt::Packet{rule_cmd(42, 1, 0, env.topo.graph.port_of(1, 2), -1,
                            true)},
      -1);
  p4rt::EzNotifyHeader n;
  n.flow = 42;
  n.version = 2;
  n.segment_id = 0;
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.sim.run();
  EXPECT_EQ(env.fabric->sw(1).installs_completed(), 1u);
}

TEST(EzSegwaySwitchTest, ChainStartWaitsForAwaitedSegments) {
  Env env;
  p4rt::EzCmdHeader start;
  start.flow = 42;
  start.target = 4;
  start.version = 2;
  start.starts_chain = true;
  start.chain_segment = 1;
  start.chain_child_port = env.topo.graph.port_of(4, 3);
  start.await_segments = 2;
  env.fabric->inject(4, p4rt::Packet{start}, -1);
  // Inner member of the chain.
  env.fabric->inject(
      3,
      p4rt::Packet{rule_cmd(42, 3, 1, env.topo.graph.port_of(3, 4), -1,
                            true)},
      -1);
  env.sim.run();
  EXPECT_FALSE(env.fabric->sw(3).lookup(42).has_value()) << "must wait";
  // First dependency resolves: still waiting.
  p4rt::SegmentDoneHeader done;
  done.flow = 42;
  done.version = 2;
  done.segment_id = 2;
  done.final_dst = 4;
  env.fabric->inject(4, p4rt::Packet{done}, -1);
  env.sim.run();
  EXPECT_FALSE(env.fabric->sw(3).lookup(42).has_value());
  // Second dependency resolves: chain fires.
  done.segment_id = 3;
  env.fabric->inject(4, p4rt::Packet{done}, -1);
  env.sim.run();
  EXPECT_TRUE(env.fabric->sw(3).lookup(42).has_value());
}

TEST(EzSegwaySwitchTest, DuplicateSegmentDoneCountsOnce) {
  Env env;
  p4rt::EzCmdHeader start;
  start.flow = 42;
  start.target = 4;
  start.version = 2;
  start.starts_chain = true;
  start.chain_segment = 1;
  start.chain_child_port = env.topo.graph.port_of(4, 3);
  start.await_segments = 2;
  env.fabric->inject(4, p4rt::Packet{start}, -1);
  env.fabric->inject(
      3,
      p4rt::Packet{rule_cmd(42, 3, 1, env.topo.graph.port_of(3, 4), -1,
                            true)},
      -1);
  p4rt::SegmentDoneHeader done;
  done.flow = 42;
  done.version = 2;
  done.segment_id = 2;
  done.final_dst = 4;
  // The same dependency reported twice (a recovery resend re-emits it).
  env.fabric->inject(4, p4rt::Packet{done}, -1);
  env.fabric->inject(4, p4rt::Packet{done}, -1);
  env.sim.run();
  EXPECT_FALSE(env.fabric->sw(3).lookup(42).has_value())
      << "one dependency is still unresolved";
  done.segment_id = 3;
  env.fabric->inject(4, p4rt::Packet{done}, -1);
  env.sim.run();
  EXPECT_TRUE(env.fabric->sw(3).lookup(42).has_value());
}

TEST(EzSegwaySwitchTest, DuplicateNotifyForOlderInstalledVersionIsDropped) {
  Env env;
  const std::int32_t v2_port = env.topo.graph.port_of(1, 2);
  const std::int32_t v3_port = env.topo.graph.port_of(1, 0);
  env.fabric->inject(1, p4rt::Packet{rule_cmd(42, 1, 0, v2_port, -1, true)},
                     -1);
  p4rt::EzNotifyHeader n;
  n.flow = 42;
  n.version = 2;
  n.segment_id = 0;
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.sim.run();
  ASSERT_EQ(env.fabric->sw(1).installs_completed(), 1u);

  // Version 3's command arrives; then a late duplicate of version 2's
  // notify. Version 2 is installed, so the notify is dropped: it neither
  // re-installs nor recirculates waiting for a command.
  p4rt::EzCmdHeader v3 = rule_cmd(42, 1, 0, v3_port, -1, true);
  v3.version = 3;
  env.fabric->inject(1, p4rt::Packet{v3}, -1);
  const sim::Time dup_at = env.sim.now() + sim::milliseconds(1);
  env.sim.schedule_at(dup_at, [&] { env.fabric->inject(1, p4rt::Packet{n}, -1); });
  env.sim.run();
  EXPECT_EQ(env.fabric->sw(1).installs_completed(), 1u);
  EXPECT_EQ(env.fabric->sw(1).lookup(42), std::optional<std::int32_t>(v2_port));
  EXPECT_LT(env.sim.now(), dup_at + sim::milliseconds(100))
      << "a resubmitted notify would recirculate until the retry timeout";
}

TEST(EzSegwaySwitchTest, OlderVersionArrivingAfterNewerKeepsItsOwnEntry) {
  Env env;
  const std::int32_t v2_port = env.topo.graph.port_of(1, 2);
  const std::int32_t v3_port = env.topo.graph.port_of(1, 0);
  // Version 3's command overtakes version 2's: the switch hears of the
  // versions out of order and must still tell them apart.
  p4rt::EzCmdHeader v3 = rule_cmd(42, 1, 0, v3_port, -1, true);
  v3.version = 3;
  env.fabric->inject(1, p4rt::Packet{v3}, -1);
  env.fabric->inject(1, p4rt::Packet{rule_cmd(42, 1, 0, v2_port, -1, true)},
                     -1);
  p4rt::EzNotifyHeader n;
  n.flow = 42;
  n.version = 2;
  n.segment_id = 0;
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.sim.run();
  ASSERT_EQ(env.fabric->sw(1).installs_completed(), 1u);
  EXPECT_EQ(env.fabric->sw(1).lookup(42), std::optional<std::int32_t>(v2_port));

  // Version 3's notify finds version 3's command, not version 2's.
  n.version = 3;
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.sim.run();
  ASSERT_EQ(env.fabric->sw(1).installs_completed(), 2u);
  EXPECT_EQ(env.fabric->sw(1).lookup(42), std::optional<std::int32_t>(v3_port));

  // A late duplicate of version 2's notify is dropped.
  n.version = 2;
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.sim.run();
  EXPECT_EQ(env.fabric->sw(1).installs_completed(), 2u);
  EXPECT_EQ(env.fabric->sw(1).lookup(42), std::optional<std::int32_t>(v3_port));
}

TEST(EzSegwaySwitchTest, SegmentDoneRoutedToDistantGateway) {
  Env env;
  // Deliver a SegmentDone addressed to node 7 by injecting it at node 0;
  // the static management routing must relay it across the topology.
  p4rt::EzCmdHeader start;
  start.flow = 42;
  start.target = 7;
  start.version = 2;
  start.starts_chain = true;
  start.chain_segment = 0;
  start.chain_child_port = env.topo.graph.port_of(7, 6);
  start.await_segments = 1;
  env.fabric->inject(7, p4rt::Packet{start}, -1);
  env.fabric->inject(
      6,
      p4rt::Packet{rule_cmd(42, 6, 0, env.topo.graph.port_of(6, 7), -1,
                            true)},
      -1);
  env.sim.run();
  EXPECT_FALSE(env.fabric->sw(6).lookup(42).has_value());

  p4rt::SegmentDoneHeader done;
  done.flow = 42;
  done.version = 2;
  done.segment_id = 1;
  done.final_dst = 7;
  env.fabric->inject(0, p4rt::Packet{done}, -1);  // far end of the WAN
  env.sim.run();
  EXPECT_TRUE(env.fabric->sw(6).lookup(42).has_value())
      << "SegmentDone must be routed hop-by-hop to node 7";
}

TEST(EzSegwaySwitchTest, CongestionDefersUntilCompetingRuleLeavesPort) {
  // Node 1 sends flow 41 (size 6) out of the 1->2 link, capacity 10. Moving
  // flow 42 (size 6) onto that link would overload it: the notify defers,
  // and the move goes in only once 41's rule leaves the port.
  sim::Simulator sim;
  net::NamedTopology topo = net::fig1_topology();
  const std::int32_t contended = topo.graph.port_of(1, 2);
  const std::int32_t other = topo.graph.port_of(1, 0);
  topo.graph.set_link_capacity(
      topo.graph.neighbors(1).at(static_cast<std::size_t>(contended)).link,
      10.0);
  p4rt::Fabric fabric(sim, topo.graph, p4rt::SwitchParams{}, 1);
  EzSwitchParams params;
  params.congestion_mode = true;
  std::vector<std::unique_ptr<EzSegwaySwitch>> pipes;
  for (std::size_t n = 0; n < topo.graph.node_count(); ++n) {
    pipes.push_back(std::make_unique<EzSegwaySwitch>(
        static_cast<net::NodeId>(n), topo.graph, params));
    fabric.sw(static_cast<net::NodeId>(n)).set_pipeline(pipes.back().get());
  }
  p4rt::SwitchDevice& sw = fabric.sw(1);
  pipes[1]->bootstrap_flow(sw, 41, contended, 6.0);
  pipes[1]->bootstrap_flow(sw, 42, other, 6.0);

  p4rt::EzCmdHeader cmd = rule_cmd(42, 1, 0, contended, -1, true);
  cmd.flow_size = 6.0;
  fabric.inject(1, p4rt::Packet{cmd}, -1);
  p4rt::EzNotifyHeader n;
  n.flow = 42;
  n.version = 2;
  n.segment_id = 0;
  fabric.inject(1, p4rt::Packet{n}, -1);

  const sim::Time freed_at = sim::milliseconds(20);
  std::optional<std::int32_t> port_before_free;
  sim.schedule_at(freed_at, [&] {
    port_before_free = sw.lookup(42);
    sw.remove_rule(41);
  });
  sim.run();

  EXPECT_EQ(port_before_free, std::optional<std::int32_t>(other))
      << "the move must wait while the port is full";
  EXPECT_GT(fabric.trace().count(sim::TraceKind::kCongestionDefer), 0u);
  EXPECT_EQ(sw.lookup(42), std::optional<std::int32_t>(contended));
  EXPECT_EQ(sw.installs_completed(), 1u);
  const auto& installs = fabric.trace().entries();
  const auto installed = std::find_if(
      installs.begin(), installs.end(), [](const sim::TraceEntry& e) {
        return e.kind == sim::TraceKind::kRuleInstalled && e.flow == 42;
      });
  ASSERT_NE(installed, installs.end());
  EXPECT_GT(installed->at, freed_at);
}

TEST(EzSegwaySwitchTest, OnlyAParkedHigherPriorityMoveHoldsThePort) {
  // Node 1 has installed five versions of each of twenty priority-9 flows,
  // the last onto the target port: installed moves hold no priority claim.
  // A parked priority-5 move onto the same port (command here, notify not
  // yet) must hold back a priority-1 move until it is approved itself.
  sim::Simulator sim;
  net::NamedTopology topo = net::fig1_topology();
  const std::int32_t target = topo.graph.port_of(1, 2);
  const std::int32_t other = topo.graph.port_of(1, 0);
  topo.graph.set_link_capacity(
      topo.graph.neighbors(1).at(static_cast<std::size_t>(target)).link,
      1000.0);
  p4rt::Fabric fabric(sim, topo.graph, p4rt::SwitchParams{}, 1);
  EzSwitchParams params;
  params.congestion_mode = true;
  std::vector<std::unique_ptr<EzSegwaySwitch>> pipes;
  for (std::size_t n = 0; n < topo.graph.node_count(); ++n) {
    pipes.push_back(std::make_unique<EzSegwaySwitch>(
        static_cast<net::NodeId>(n), topo.graph, params));
    fabric.sw(static_cast<net::NodeId>(n)).set_pipeline(pipes.back().get());
  }
  p4rt::SwitchDevice& sw = fabric.sw(1);
  const auto move = [&](net::FlowId flow, p4rt::Version v, std::int32_t port,
                        std::uint8_t priority, bool notify) {
    p4rt::EzCmdHeader cmd = rule_cmd(flow, 1, 0, port, -1, true);
    cmd.version = v;
    cmd.priority = priority;
    cmd.flow_size = 1.0;
    fabric.inject(1, p4rt::Packet{cmd}, -1);
    if (!notify) return;
    p4rt::EzNotifyHeader n;
    n.flow = flow;
    n.version = v;
    n.segment_id = 0;
    fabric.inject(1, p4rt::Packet{n}, -1);
  };
  for (net::FlowId flow = 100; flow < 120; ++flow) {
    pipes[1]->bootstrap_flow(sw, flow, other, 1.0);
    for (p4rt::Version v = 2; v <= 6; ++v) {
      move(flow, v, v % 2 == 0 ? target : other, 9, true);
    }
  }
  sim.run();
  ASSERT_EQ(sw.installs_completed(), 100u);
  EXPECT_EQ(fabric.trace().count(sim::TraceKind::kCongestionDefer), 0u);

  pipes[1]->bootstrap_flow(sw, 50, other, 1.0);
  pipes[1]->bootstrap_flow(sw, 42, other, 1.0);
  move(50, 2, target, 5, false);
  move(42, 2, target, 1, true);
  const sim::Time released_at = sim.now() + sim::milliseconds(20);
  std::optional<std::int32_t> port_before_release;
  sim.schedule_at(released_at, [&] {
    port_before_release = sw.lookup(42);
    p4rt::EzNotifyHeader n;
    n.flow = 50;
    n.version = 2;
    n.segment_id = 0;
    fabric.inject(1, p4rt::Packet{n}, -1);
  });
  sim.run();

  EXPECT_EQ(port_before_release, std::optional<std::int32_t>(other))
      << "the lower-priority move must yield to the parked one";
  EXPECT_GT(fabric.trace().count(sim::TraceKind::kCongestionDefer), 0u);
  EXPECT_EQ(sw.lookup(50), std::optional<std::int32_t>(target));
  EXPECT_EQ(sw.lookup(42), std::optional<std::int32_t>(target));
  EXPECT_EQ(sw.installs_completed(), 102u);
  const auto& entries = fabric.trace().entries();
  const auto installed_at = [&](net::FlowId flow) {
    const auto it = std::find_if(
        entries.begin(), entries.end(), [flow](const sim::TraceEntry& e) {
          return e.kind == sim::TraceKind::kRuleInstalled && e.flow == flow;
        });
    return it == entries.end() ? sim::Time{-1} : it->at;
  };
  EXPECT_GT(installed_at(50), released_at);
  EXPECT_GE(installed_at(42), installed_at(50));
}

TEST(EzSegwaySwitchTest, NotifyRetryGivesUpAfterTimeout) {
  Env env;  // command never arrives
  p4rt::EzNotifyHeader n;
  n.flow = 42;
  n.version = 2;
  n.segment_id = 0;
  env.fabric->inject(1, p4rt::Packet{n}, -1);
  env.sim.run(sim::seconds(60));
  EXPECT_TRUE(env.sim.idle()) << "retry must stop at retry_timeout";
  EXPECT_FALSE(env.fabric->sw(1).lookup(42).has_value());
}

}  // namespace
}  // namespace p4u::baseline
