#include "harness/invariant_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "faults/fault_plan.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"

namespace p4u::harness {
namespace {

struct Env {
  explicit Env(faults::FaultPlan plan = {}) {
    net::set_uniform_capacity(topo.graph, 2.0);
    fabric = std::make_unique<p4rt::Fabric>(
        sim, topo.graph, p4rt::SwitchParams{}, 1, std::move(plan));
    monitor = std::make_unique<InvariantMonitor>(*fabric, true);
  }
  net::Flow flow(net::NodeId src, net::NodeId dst, double size,
                 net::FlowId id) {
    net::Flow f;
    f.id = id;
    f.ingress = src;
    f.egress = dst;
    f.size = size;
    monitor->watch_flow(f);
    return f;
  }
  /// Writes flow 1's rule at `n` towards neighbor `next` through the
  /// fabric's install notification and returns whether the attached
  /// monitor counted a loop for it. Every call also checks the count
  /// against the full-scan reference.
  bool install(net::NodeId n, net::NodeId next) {
    const std::uint64_t before = monitor->violations().loops;
    fabric->sw(n).set_rule_now(1, topo.graph.port_of(n, next));
    const bool counted = monitor->violations().loops > before;
    EXPECT_EQ(counted, monitor->has_loop(1)) << "install at " << n;
    return counted;
  }
  /// Brings flow 1 up on fig1's old path 0 -> 4 -> 2 -> 7 and then watches
  /// it, as deploy does, so bring-up counts nothing.
  void bring_up_old_path() {
    fabric->sw(0).set_rule_now(1, topo.graph.port_of(0, 4));
    fabric->sw(4).set_rule_now(1, topo.graph.port_of(4, 2));
    fabric->sw(2).set_rule_now(1, topo.graph.port_of(2, 7));
    fabric->sw(7).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
    flow(0, 7, 1.0, 1);
  }
  /// Trace entries that excused a blackhole of flow 1.
  [[nodiscard]] std::size_t excused_entries() const {
    const auto& entries = fabric->trace().entries();
    return static_cast<std::size_t>(
        std::count_if(entries.begin(), entries.end(), [](const auto& e) {
          return e.flow == 1 && e.kind == sim::TraceKind::kInfo &&
                 e.note == "monitor: blackhole excused by fault";
        }));
  }
  sim::Simulator sim;
  net::NamedTopology topo = net::fig1_topology();
  std::unique_ptr<p4rt::Fabric> fabric;
  std::unique_ptr<InvariantMonitor> monitor;
};

TEST(InvariantMonitorTest, DetectsLoop) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));  // loop!
  EXPECT_TRUE(env.monitor->has_loop(1));
  env.monitor->check_flow(1);
  EXPECT_GE(env.monitor->violations().loops, 1u);
}

TEST(InvariantMonitorTest, UnreachableStaleCycleStillCountsAsLoop) {
  // The forwarding-graph definition (§5) forbids any cycle, reachable from
  // the ingress or not.
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  env.fabric->sw(5).set_rule_now(1, env.topo.graph.port_of(5, 6));
  env.fabric->sw(6).set_rule_now(1, env.topo.graph.port_of(6, 5));
  EXPECT_TRUE(env.monitor->has_loop(1));
}

TEST(InvariantMonitorTest, DetectsBlackholeFromIngressOnly) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  // Node 4 has no rule: reachable blackhole.
  EXPECT_TRUE(env.monitor->has_blackhole(1));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 7));
  env.fabric->sw(7).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  EXPECT_FALSE(env.monitor->has_blackhole(1));
  // A dormant ruleless node elsewhere is NOT a blackhole.
  env.fabric->sw(5).remove_rule(1);
  EXPECT_FALSE(env.monitor->has_blackhole(1));
}

TEST(InvariantMonitorTest, DetectsCapacityOverload) {
  Env env;
  env.flow(0, 2, 1.5, 1);
  env.flow(4, 2, 1.5, 2);
  // Both flows on directed link 4->2 (capacity 2.0 < 3.0).
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  env.fabric->sw(4).set_rule_now(2, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(2, p4rt::SwitchDevice::kLocalPort);
  const auto overloads = env.monitor->capacity_overloads();
  ASSERT_EQ(overloads.size(), 1u);
  EXPECT_NE(overloads[0].find("4->2"), std::string::npos);
}

TEST(InvariantMonitorTest, AttachChainsIntoRuleInstallHook) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.monitor->attach();
  // Installing a rule that forms a loop triggers the check automatically.
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));
  EXPECT_GE(env.monitor->violations().loops, 1u);
  EXPECT_FALSE(env.monitor->findings().empty());
}

// The install-time loop check scans the flow's forwarding-table row. The
// cases below cover each way a cycle can appear or go without the monitor
// being told of it; fig1's links include the triangle 2-3-4 and the pair
// 5-6.

TEST(InvariantMonitorTest, CycleBrokenByUnnotifiedRemovalIsDropped) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.monitor->attach();
  EXPECT_FALSE(env.install(2, 3));
  EXPECT_FALSE(env.install(3, 4));
  EXPECT_TRUE(env.install(4, 2));  // closes 2 -> 3 -> 4 -> 2
  env.fabric->sw(3).remove_rule(1);  // the monitor is not told
  EXPECT_FALSE(env.install(0, 4));
  EXPECT_EQ(env.monitor->violations().loops, 1u);
}

TEST(InvariantMonitorTest, CycleWipedByCrashIsDropped) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.monitor->attach();
  EXPECT_FALSE(env.install(5, 6));
  EXPECT_TRUE(env.install(6, 5));
  // A bare switch crash: the table is wiped and no observer hears of it.
  env.fabric->sw(6).crash();
  EXPECT_FALSE(env.install(0, 4));
  EXPECT_EQ(env.monitor->violations().loops, 1u);
}

TEST(InvariantMonitorTest, CycleBuiltBeforeWatchIsSeeded) {
  Env env;
  env.monitor->attach();
  // The flow's first rule is off the cycle, so the check must walk from
  // every switch holding a rule, not only from the first.
  env.fabric->sw(2).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  env.fabric->sw(5).set_rule_now(1, env.topo.graph.port_of(5, 6));
  env.fabric->sw(6).set_rule_now(1, env.topo.graph.port_of(6, 5));
  EXPECT_EQ(env.monitor->violations().loops, 0u);  // not watched yet
  env.flow(0, 7, 1.0, 1);
  // An install far from the stale cycle still reports it.
  EXPECT_TRUE(env.install(0, 4));
  EXPECT_TRUE(env.install(4, 2));
}

TEST(InvariantMonitorTest, TwoDisjointCyclesAreTrackedSeparately) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.monitor->attach();
  EXPECT_FALSE(env.install(5, 6));
  EXPECT_TRUE(env.install(6, 5));  // first cycle 5 <-> 6
  EXPECT_TRUE(env.install(2, 3));
  EXPECT_TRUE(env.install(3, 4));
  EXPECT_TRUE(env.install(4, 2));  // second cycle 2 -> 3 -> 4 -> 2
  EXPECT_TRUE(env.install(6, 7));  // breaks the first; the second remains
  EXPECT_FALSE(env.install(2, 7));  // breaks the second
}

TEST(InvariantMonitorTest, InstallThatMovesACycleOntoItsNodeIsCounted) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.monitor->attach();
  EXPECT_FALSE(env.install(2, 3));
  EXPECT_FALSE(env.install(3, 4));
  EXPECT_TRUE(env.install(4, 2));  // 2 -> 3 -> 4 -> 2, closed at 4
  // 3 -> 2 -> 3: the cycle now runs through 3, and 4 only leads into it.
  EXPECT_TRUE(env.install(3, 2));
  EXPECT_TRUE(env.install(0, 4));  // an unrelated install still sees it
  EXPECT_FALSE(env.install(2, 7));  // breaks it
}

TEST(InvariantMonitorTest, CycleAmongSpilledHopsIsCounted) {
  // A row keeps six hops inline. The cycle 2 -> 3 -> 4 -> 2 is written as
  // the sixth to eighth hops, so the check must reach the spilled ones.
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.monitor->attach();
  env.fabric->sw(7).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  EXPECT_FALSE(env.install(6, 7));
  EXPECT_FALSE(env.install(5, 6));
  EXPECT_FALSE(env.install(0, 1));
  EXPECT_FALSE(env.install(1, 2));
  EXPECT_FALSE(env.install(2, 3));
  EXPECT_FALSE(env.install(3, 4));
  EXPECT_TRUE(env.install(4, 2));  // the eighth hop closes the cycle
  ASSERT_EQ(env.fabric->forwarding_table().row(1)->size(), 8u);
  env.monitor->check_flow(1);
  EXPECT_EQ(env.monitor->violations().loops, 2u);
  EXPECT_FALSE(env.install(4, 5));  // breaks it: 4 -> 5 -> 6 -> 7
  env.monitor->check_flow(1);
  EXPECT_EQ(env.monitor->violations().loops, 2u);
}

TEST(InvariantMonitorTest, HopKeptByPendingInstallEndsTheWalkUntilItLands) {
  Env env;
  env.flow(5, 7, 1.0, 1);
  env.monitor->attach();
  env.fabric->sw(7).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  EXPECT_FALSE(env.install(6, 7));
  EXPECT_FALSE(env.install(5, 6));
  const std::uint64_t blackholes = env.monitor->violations().blackholes;
  // A timed install of 6 -> 5, then a removal before it lands: the monitor
  // is told of neither, and the hop stays, without a port, for the install.
  env.fabric->sw(6).install_rule(1, env.topo.graph.port_of(6, 5));
  env.fabric->sw(6).remove_rule(1);
  const p4rt::ForwardingTable::Hop* kept =
      env.fabric->forwarding_table().find(1, 6);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->port, p4rt::ForwardingTable::kNoPort);
  EXPECT_FALSE(env.install(0, 4));  // 5 -> 6 ends at 6: a blackhole
  env.monitor->check_flow(1);
  EXPECT_EQ(env.monitor->violations().loops, 0u);
  EXPECT_EQ(env.monitor->violations().blackholes, blackholes + 2);
  env.sim.run();  // the install lands and closes 5 -> 6 -> 5
  EXPECT_EQ(env.monitor->violations().loops, 1u);
  EXPECT_TRUE(env.monitor->has_loop(1));
  env.monitor->check_flow(1);
  EXPECT_EQ(env.monitor->violations().loops, 2u);
}

TEST(InvariantMonitorTest, LinkDownOnTheWalkExcusesBlackholesUntilDelivered) {
  faults::FaultPlan plan;
  plan.link_down(sim::milliseconds(1), 4, 2);
  Env env(std::move(plan));
  env.monitor->attach();
  env.bring_up_old_path();
  env.sim.run();  // 4-2 goes down under the flow's walk
  env.flow(0, 7, 1.0, 1);  // watching the flow again keeps its excuse

  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 1));
  EXPECT_EQ(env.monitor->violations().faulted_walks, 1u);
  EXPECT_EQ(env.monitor->violations().blackholes, 0u);
  EXPECT_EQ(env.excused_entries(), 1u);
  EXPECT_TRUE(env.monitor->findings().empty());

  // 0 -> 1 -> 2 -> 7 is delivered, which ends the excuse.
  env.fabric->sw(1).set_rule_now(1, env.topo.graph.port_of(1, 2));
  EXPECT_EQ(env.monitor->violations().faulted_walks, 1u);
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  EXPECT_EQ(env.monitor->violations().faulted_walks, 1u);
  EXPECT_EQ(env.monitor->violations().blackholes, 1u);
  EXPECT_EQ(env.excused_entries(), 1u);
  ASSERT_EQ(env.monitor->findings().size(), 1u);
  EXPECT_NE(env.monitor->findings()[0].find("blackhole in flow 1"),
            std::string::npos);
}

TEST(InvariantMonitorTest, LinkDownOffTheWalkExcusesNothing) {
  faults::FaultPlan plan;
  plan.link_down(sim::milliseconds(1), 5, 6);
  Env env(std::move(plan));
  env.monitor->attach();
  env.bring_up_old_path();
  env.sim.run();
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 1));
  EXPECT_EQ(env.monitor->violations().faulted_walks, 0u);
  EXPECT_EQ(env.monitor->violations().blackholes, 1u);
  EXPECT_EQ(env.excused_entries(), 0u);
}

TEST(InvariantMonitorTest, LoopCountsWhileTheFlowIsExcused) {
  faults::FaultPlan plan;
  plan.link_down(sim::milliseconds(1), 4, 2);
  Env env(std::move(plan));
  env.monitor->attach();
  env.bring_up_old_path();
  env.sim.run();
  // 0 -> 4 now stops at the downed link: a faulted walk, no blackhole.
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  EXPECT_EQ(env.monitor->violations().faulted_walks, 1u);
  EXPECT_EQ(env.monitor->violations().loops, 0u);
  // 3 -> 4 closes 4 -> 2 -> 3 -> 4.
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));
  EXPECT_EQ(env.monitor->violations().loops, 1u);
  EXPECT_EQ(env.monitor->violations().faulted_walks, 2u);
  EXPECT_EQ(env.monitor->violations().blackholes, 0u);
  ASSERT_EQ(env.monitor->findings().size(), 1u);
  EXPECT_NE(env.monitor->findings()[0].find("loop in flow 1"),
            std::string::npos);
}

TEST(InvariantMonitorTest, ExportsPerInvariantViolationCounters) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));  // loop
  env.monitor->check_flow(1);
  const auto v = env.monitor->violations();
  ASSERT_GE(v.loops, 1u);

  obs::MetricsRegistry m;
  env.monitor->export_violations(m);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "loop"}}).value(),
            v.loops);
  // Zero cells are exported too, so every report has the full breakdown.
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "blackhole"}}).value(),
            0u);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "capacity"}}).value(),
            0u);
  EXPECT_EQ(m.counter("monitor.faulted_walks").value(), v.faulted_walks);
}

TEST(InvariantMonitorTest, ExportIsIdempotentAcrossRepeatedCalls) {
  // collect_metrics() may run more than once per bed; the top-up pattern
  // must not double-count violations already exported.
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));
  env.monitor->check_flow(1);
  const auto first = env.monitor->violations().loops;

  obs::MetricsRegistry m;
  env.monitor->export_violations(m);
  env.monitor->export_violations(m);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "loop"}}).value(),
            first);

  // New violations after an export are topped up, not re-added.
  env.monitor->check_flow(1);
  env.monitor->export_violations(m);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "loop"}}).value(),
            env.monitor->violations().loops);
}

}  // namespace
}  // namespace p4u::harness
