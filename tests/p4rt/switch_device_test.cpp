#include "p4rt/switch_device.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/fattree.hpp"
#include "net/topologies.hpp"
#include "p4rt/fabric.hpp"

namespace p4u::p4rt {
namespace {

struct Env {
  sim::Simulator sim;
  net::NamedTopology topo = net::fig2_topology();
  Fabric fabric{sim, topo.graph, SwitchParams{}, /*seed=*/1};
};

/// Pipeline that records what it saw.
class RecordingPipeline final : public Pipeline {
 public:
  void handle(SwitchDevice& sw, Packet pkt, std::int32_t in_port) override {
    (void)sw;
    handled.push_back({describe(pkt), in_port});
  }
  void on_data_packet(SwitchDevice&, DataHeader& d, std::int32_t) override {
    data_seen.push_back(d.seq);
  }
  std::vector<std::pair<std::string, std::int32_t>> handled;
  std::vector<std::uint32_t> data_seen;
};

TEST(SwitchDeviceTest, ServiceQueueSerializesPackets) {
  Env env;
  RecordingPipeline pipe;
  auto& sw = env.fabric.sw(0);
  sw.set_pipeline(&pipe);
  UnmHeader unm;
  unm.flow = 1;
  // Two packets injected at t=0 drain 200us apart (default service time).
  env.fabric.inject(0, Packet{unm}, -1);
  env.fabric.inject(0, Packet{unm}, -1);
  env.sim.run();
  ASSERT_EQ(pipe.handled.size(), 2u);
  EXPECT_EQ(env.sim.now(), sim::microseconds(400));
}

TEST(SwitchDeviceTest, DataForwardingFollowsRules) {
  Env env;
  // Rule chain 0 -> 1 -> 2, deliver at 2.
  const net::FlowId f = 9;
  env.fabric.sw(0).set_rule_now(f, env.topo.graph.port_of(0, 1));
  env.fabric.sw(1).set_rule_now(f, env.topo.graph.port_of(1, 2));
  env.fabric.sw(2).set_rule_now(f, SwitchDevice::kLocalPort);
  int delivered = 0;
  FabricCallbacks cb;
  cb.delivered = [&](net::NodeId n, const DataHeader&) {
    EXPECT_EQ(n, 2);
    ++delivered;
  };
  const auto sub = env.fabric.subscribe(&cb);
  env.fabric.inject(0, Packet{DataHeader{f, 1, 64}}, -1);
  env.sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(SwitchDeviceTest, MissingRuleIsBlackholeHook) {
  Env env;
  int blackholes = 0;
  FabricCallbacks cb;
  cb.blackhole = [&](net::NodeId, const DataHeader&) { ++blackholes; };
  const auto sub = env.fabric.subscribe(&cb);
  env.fabric.inject(0, Packet{DataHeader{123, 0, 64}}, -1);
  env.sim.run();
  EXPECT_EQ(blackholes, 1);
  EXPECT_EQ(env.fabric.trace().count(sim::TraceKind::kBlackholeDetected), 1u);
}

TEST(SwitchDeviceTest, TtlExpiryDropsPacket) {
  Env env;
  // Loop: 0 -> 1 -> 0.
  const net::FlowId f = 5;
  env.fabric.sw(0).set_rule_now(f, env.topo.graph.port_of(0, 1));
  env.fabric.sw(1).set_rule_now(f, env.topo.graph.port_of(1, 0));
  int expired = 0;
  FabricCallbacks cb;
  cb.ttl_expired = [&](net::NodeId, const DataHeader&) { ++expired; };
  const auto sub = env.fabric.subscribe(&cb);
  env.fabric.inject(0, Packet{DataHeader{f, 0, 8}}, -1);
  env.sim.run();
  EXPECT_EQ(expired, 1);
}

TEST(SwitchDeviceTest, InstallRuleTakesInstallDelay) {
  Env env;
  auto& sw = env.fabric.sw(0);
  bool active = false;
  sim::Time when = 0;
  sw.install_rule(7, 0, [&] {
    active = true;
    when = env.sim.now();
  });
  EXPECT_FALSE(sw.lookup(7).has_value());
  env.sim.run();
  EXPECT_TRUE(active);
  EXPECT_EQ(when, sim::milliseconds(10));  // default install delay
  EXPECT_EQ(sw.lookup(7), std::optional<std::int32_t>(0));
  EXPECT_EQ(sw.installs_completed(), 1u);
}

TEST(SwitchDeviceTest, InstallsRetireInIssueOrderPerFlow) {
  // A straggling older install must not overwrite a newer one, even if the
  // newer was issued later with a shorter delay (fast-forward safety).
  sim::Simulator sim;
  net::NamedTopology topo = net::fig2_topology();
  SwitchParams params;
  params.straggler_mean_ms = 200.0;  // huge variance across installs
  Fabric fabric(sim, topo.graph, params, /*seed=*/3);
  auto& sw = fabric.sw(0);
  std::vector<int> completion_order;
  sw.install_rule(7, 0, [&] { completion_order.push_back(1); });
  sw.install_rule(7, 1, [&] { completion_order.push_back(2); });
  sw.install_rule(7, 0, [&] { completion_order.push_back(3); });
  sw.install_rule(7, 1, [&] { completion_order.push_back(4); });
  sim.run();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sw.lookup(7), std::optional<std::int32_t>(1));  // last write
}

TEST(SwitchDeviceTest, StragglerDelayIncreasesInstallTime) {
  sim::Simulator sim;
  net::NamedTopology topo = net::fig2_topology();
  SwitchParams params;
  params.straggler_mean_ms = 100.0;
  Fabric fabric(sim, topo.graph, params, /*seed=*/5);
  sim::Time done = 0;
  fabric.sw(0).install_rule(1, 0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_GT(done, sim::milliseconds(10));  // base + exp(100ms) sample
}

TEST(SwitchDeviceTest, ResubmitReentersQueueAfterInterval) {
  Env env;
  RecordingPipeline pipe;
  auto& sw = env.fabric.sw(0);
  sw.set_pipeline(&pipe);
  UnmHeader unm;
  unm.flow = 2;
  sw.resubmit(Packet{unm}, 3);
  env.sim.run();
  ASSERT_EQ(pipe.handled.size(), 1u);
  EXPECT_EQ(pipe.handled[0].second, 3);
  // resubmit_interval (1ms) + service (200us).
  EXPECT_EQ(env.sim.now(), sim::milliseconds(1) + sim::microseconds(200));
}

TEST(SwitchDeviceTest, RemoveRuleDeletesEntry) {
  Env env;
  auto& sw = env.fabric.sw(0);
  sw.set_rule_now(4, 1);
  EXPECT_TRUE(sw.lookup(4).has_value());
  sw.remove_rule(4);
  EXPECT_FALSE(sw.lookup(4).has_value());
}

using RuleView = std::vector<std::pair<net::FlowId, std::int32_t>>;

RuleView rule_view(const SwitchDevice& sw) {
  return RuleView(sw.rules().begin(), sw.rules().end());
}

TEST(SwitchDeviceTest, RemoveDuringPendingInstallKeepsIssueOrder) {
  // The removal must not forget the pending install's tail: a quick write
  // issued after it still retires behind the slow one.
  sim::Simulator sim;
  net::NamedTopology topo = net::fig2_topology();
  SwitchParams params;
  params.straggler_mean_ms = 200.0;
  Fabric fabric(sim, topo.graph, params, /*seed=*/3);
  auto& sw = fabric.sw(0);
  std::vector<int> completion_order;
  sw.install_rule(7, 0, [&] { completion_order.push_back(1); });
  sw.remove_rule(7);
  EXPECT_FALSE(sw.lookup(7).has_value());
  sw.install_rule(7, 1, [&] { completion_order.push_back(2); },
                  /*quick=*/true);
  sim.run();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sw.lookup(7), std::optional<std::int32_t>(1));
}

TEST(SwitchDeviceTest, CrashDropsPendingInstalls) {
  Env env;
  auto& sw = env.fabric.sw(0);
  int completions = 0;
  sw.install_rule(7, 0, [&] { ++completions; });
  sw.install_rule(8, 1, [&] { ++completions; });
  sw.crash();
  sw.restart();
  sw.set_rule_now(9, 2);
  env.sim.run();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(sw.installs_completed(), 0u);
  EXPECT_EQ(rule_view(sw), (RuleView{{9, 2}}));
  EXPECT_FALSE(sw.lookup(7).has_value());
  EXPECT_FALSE(sw.lookup(8).has_value());
}

TEST(SwitchDeviceTest, RuleViewIsIdOrderedAndLive) {
  Env env;
  auto& sw = env.fabric.sw(0);
  sw.set_rule_now(30, 3);
  sw.set_rule_now(20, 2);
  sw.set_rule_now(10, 1);
  EXPECT_EQ(rule_view(sw), (RuleView{{10, 1}, {20, 2}, {30, 3}}));
  sw.remove_rule(20);
  EXPECT_EQ(rule_view(sw), (RuleView{{10, 1}, {30, 3}}));
  sw.install_rule(25, 0);
  EXPECT_EQ(rule_view(sw), (RuleView{{10, 1}, {30, 3}}))
      << "a pending install is not a rule yet";
  env.sim.run();
  EXPECT_EQ(rule_view(sw), (RuleView{{10, 1}, {25, 0}, {30, 3}}));
}

TEST(SwitchDeviceTest, RecycledHandleStartsFresh) {
  Env env;
  auto& sw = env.fabric.sw(0);
  const net::FlowId a = 7;
  const net::FlowId b = 8;
  sw.install_rule(a, 1);
  env.sim.run();
  ASSERT_EQ(sw.lookup(a), std::optional<std::int32_t>(1));
  sim::Time issued = 0;
  sim::Time done = 0;
  // One tick past A's completion, so its install tail can no longer delay
  // anything: the removal releases A's entry and B takes it over.
  env.sim.schedule_in(1, [&] {
    sw.remove_rule(a);
    sw.set_rule_now(b, 2);
    EXPECT_FALSE(sw.lookup(a).has_value());
    EXPECT_EQ(sw.lookup(b), std::optional<std::int32_t>(2));
    issued = env.sim.now();
    sw.install_rule(b, 2, [&] { done = env.sim.now(); }, /*quick=*/true);
  });
  env.sim.run();
  EXPECT_EQ(done, issued + SwitchParams{}.register_write_delay);
  EXPECT_FALSE(sw.lookup(a).has_value());
  EXPECT_EQ(sw.lookup(b), std::optional<std::int32_t>(2));
  EXPECT_EQ(rule_view(sw), (RuleView{{b, 2}}));
}

// --- One flow held by several switches ---

/// Fat-tree(4): 20 switches, enough for a chain longer than any inline row.
struct WideEnv {
  sim::Simulator sim;
  net::FatTree ft = net::fattree_topology(4);
  Fabric fabric{sim, ft.graph, SwitchParams{}, /*seed=*/1};
};

TEST(SwitchDeviceTest, RemoveAtOneSwitchKeepsTheOthers) {
  WideEnv env;
  const net::FlowId f = 17;
  for (net::NodeId n = 0; n < 4; ++n) env.fabric.sw(n).set_rule_now(f, n);
  env.fabric.sw(2).remove_rule(f);
  EXPECT_FALSE(env.fabric.sw(2).lookup(f).has_value());
  for (const net::NodeId n : {0, 1, 3}) {
    EXPECT_EQ(env.fabric.sw(n).lookup(f), std::optional<std::int32_t>(n))
        << "switch " << n;
  }
  // Removing the flow at a switch that never held it changes nothing.
  env.fabric.sw(9).remove_rule(f);
  EXPECT_EQ(env.fabric.sw(3).lookup(f), std::optional<std::int32_t>(3));
}

TEST(SwitchDeviceTest, CrashWipesOnlyThatSwitchsRulesAndInstalls) {
  WideEnv env;
  const net::FlowId f = 17;
  const net::FlowId g = 18;
  for (net::NodeId n = 0; n < 3; ++n) env.fabric.sw(n).set_rule_now(f, 1);
  env.fabric.sw(1).set_rule_now(g, 2);
  std::vector<net::NodeId> completed;
  for (net::NodeId n = 0; n < 3; ++n) {
    env.fabric.sw(n).install_rule(f, 0, [&completed, n] {
      completed.push_back(n);
    });
  }
  env.fabric.sw(1).crash();
  EXPECT_FALSE(env.fabric.sw(1).lookup(f).has_value());
  EXPECT_FALSE(env.fabric.sw(1).lookup(g).has_value());
  EXPECT_EQ(env.fabric.sw(0).lookup(f), std::optional<std::int32_t>(1));
  EXPECT_EQ(env.fabric.sw(2).lookup(f), std::optional<std::int32_t>(1));
  env.sim.run();
  EXPECT_EQ(completed, (std::vector<net::NodeId>{0, 2}));
  EXPECT_EQ(env.fabric.sw(0).lookup(f), std::optional<std::int32_t>(0));
  EXPECT_EQ(env.fabric.sw(2).lookup(f), std::optional<std::int32_t>(0));
  EXPECT_FALSE(env.fabric.sw(1).lookup(f).has_value());
  EXPECT_TRUE(rule_view(env.fabric.sw(1)).empty());
  EXPECT_EQ(env.fabric.sw(1).installs_completed(), 0u);
}

TEST(SwitchDeviceTest, EachSwitchListsOnlyItsOwnRules) {
  WideEnv env;
  env.fabric.sw(0).set_rule_now(5, 1);
  env.fabric.sw(1).set_rule_now(5, 2);
  env.fabric.sw(1).set_rule_now(3, 0);
  env.fabric.sw(2).set_rule_now(7, SwitchDevice::kLocalPort);
  env.fabric.sw(0).set_rule_now(9, 3);
  EXPECT_EQ(rule_view(env.fabric.sw(0)), (RuleView{{5, 1}, {9, 3}}));
  EXPECT_EQ(rule_view(env.fabric.sw(1)), (RuleView{{3, 0}, {5, 2}}));
  EXPECT_EQ(rule_view(env.fabric.sw(2)),
            (RuleView{{7, SwitchDevice::kLocalPort}}));
  EXPECT_TRUE(rule_view(env.fabric.sw(3)).empty());
  // A change at one switch leaves the other switches' views as they were.
  env.fabric.sw(1).set_rule_now(5, 3);
  EXPECT_EQ(rule_view(env.fabric.sw(0)), (RuleView{{5, 1}, {9, 3}}));
  EXPECT_EQ(rule_view(env.fabric.sw(1)), (RuleView{{3, 0}, {5, 3}}));
}

TEST(SwitchDeviceTest, LongChainKeepsEveryRule) {
  WideEnv env;
  const net::FlowId f = 21;
  constexpr net::NodeId kChain = 12;
  for (net::NodeId n = 0; n < kChain; ++n) env.fabric.sw(n).set_rule_now(f, n);
  // Pending installs on every other switch of the chain.
  for (net::NodeId n = 0; n < kChain; n += 2) {
    env.fabric.sw(n).install_rule(f, n + 100);
  }
  for (net::NodeId n = 0; n < kChain; ++n) {
    EXPECT_EQ(env.fabric.sw(n).lookup(f), std::optional<std::int32_t>(n))
        << "switch " << n;
    EXPECT_EQ(rule_view(env.fabric.sw(n)), (RuleView{{f, n}}))
        << "switch " << n;
  }
  env.fabric.sw(5).remove_rule(f);
  env.fabric.sw(0).remove_rule(f);  // pending install: the write still lands
  env.sim.run();
  for (net::NodeId n = 0; n < kChain; ++n) {
    const std::optional<std::int32_t> want =
        n == 5 ? std::nullopt
               : std::optional<std::int32_t>(n % 2 == 0 ? n + 100 : n);
    EXPECT_EQ(env.fabric.sw(n).lookup(f), want) << "switch " << n;
  }
  EXPECT_FALSE(env.fabric.sw(kChain).lookup(f).has_value());
}

TEST(SwitchDeviceTest, FlowAddedAgainAfterItsLastRuleWent) {
  WideEnv env;
  const net::FlowId f = 33;
  env.fabric.sw(0).install_rule(f, 1);
  env.fabric.sw(1).set_rule_now(f, 2);
  env.sim.run();
  sim::Time issued = 0;
  sim::Time done = 0;
  // One tick past the install's completion, so no tail holds the flow.
  env.sim.schedule_in(1, [&] {
    env.fabric.sw(0).remove_rule(f);
    env.fabric.sw(1).remove_rule(f);
    EXPECT_FALSE(env.fabric.sw(0).lookup(f).has_value());
    EXPECT_FALSE(env.fabric.sw(1).lookup(f).has_value());
    // Back from scratch: the new install waits behind no earlier tail.
    issued = env.sim.now();
    env.fabric.sw(1).install_rule(f, 3, [&] { done = env.sim.now(); },
                                  /*quick=*/true);
    env.fabric.sw(4).set_rule_now(f, 0);
  });
  env.sim.run();
  EXPECT_EQ(done, issued + SwitchParams{}.register_write_delay);
  EXPECT_FALSE(env.fabric.sw(0).lookup(f).has_value());
  EXPECT_EQ(env.fabric.sw(1).lookup(f), std::optional<std::int32_t>(3));
  EXPECT_EQ(env.fabric.sw(4).lookup(f), std::optional<std::int32_t>(0));
  EXPECT_TRUE(rule_view(env.fabric.sw(0)).empty());
  EXPECT_EQ(rule_view(env.fabric.sw(1)), (RuleView{{f, 3}}));
  EXPECT_EQ(rule_view(env.fabric.sw(4)), (RuleView{{f, 0}}));
}

TEST(SwitchDeviceTest, DataPacketsVisibleToPipelineHook) {
  Env env;
  RecordingPipeline pipe;
  env.fabric.sw(0).set_pipeline(&pipe);
  env.fabric.sw(0).set_rule_now(11, SwitchDevice::kLocalPort);
  env.fabric.inject(0, Packet{DataHeader{11, 42, 64}}, -1);
  env.sim.run();
  ASSERT_EQ(pipe.data_seen.size(), 1u);
  EXPECT_EQ(pipe.data_seen[0], 42u);
}

}  // namespace
}  // namespace p4u::p4rt
