#include "harness/churn.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "harness/scenario.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

ChurnParams small_params() {
  ChurnParams p;
  p.pairs = 4;
  p.initial_flows = 8;
  p.arrivals_per_sec = 50.0;
  p.duration = sim::seconds(2);
  p.paths_per_pair = 3;
  return p;
}

TEST(ChurnWorkloadTest, SameSeedRollsIdenticalWorkload) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams p = small_params();
  p.endpoints = ft.edge;
  const ChurnWorkload a = make_churn_workload(ft.graph, 42, p);
  const ChurnWorkload b = make_churn_workload(ft.graph, 42, p);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].flow_slot, b.events[i].flow_slot);
    EXPECT_EQ(a.events[i].path_choice, b.events[i].path_choice);
  }
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].flow.id, b.flows[i].flow.id);
    EXPECT_EQ(a.flows[i].pair, b.flows[i].pair);
  }
}

TEST(ChurnWorkloadTest, DifferentSeedsRollDifferentStreams) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams p = small_params();
  p.endpoints = ft.edge;
  const ChurnWorkload a = make_churn_workload(ft.graph, 1, p);
  const ChurnWorkload b = make_churn_workload(ft.graph, 2, p);
  bool differ = a.events.size() != b.events.size();
  for (std::size_t i = 0; !differ && i < a.events.size(); ++i) {
    differ = a.events[i].at != b.events[i].at ||
             a.events[i].flow_slot != b.events[i].flow_slot;
  }
  EXPECT_TRUE(differ);
}

TEST(ChurnWorkloadTest, WorkloadShapeIsWellFormed) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams p = small_params();
  p.endpoints = ft.edge;
  const ChurnWorkload wl = make_churn_workload(ft.graph, 7, p);

  ASSERT_EQ(wl.pairs.size(), p.pairs);
  for (const auto& pair : wl.pairs) {
    ASSERT_GE(pair.paths.size(), 2u) << "reroutes need an alternative";
    for (const net::Path& path : pair.paths) {
      EXPECT_TRUE(net::valid_simple_path(ft.graph, path));
      EXPECT_EQ(path.front(), pair.src);
      EXPECT_EQ(path.back(), pair.dst);
    }
  }
  ASSERT_GE(wl.flows.size(), p.initial_flows);
  for (std::size_t i = 0; i < p.initial_flows; ++i) {
    EXPECT_TRUE(wl.flows[i].initial);
  }
  ASSERT_FALSE(wl.events.empty());
  sim::Time prev = 0;
  for (const ChurnEvent& ev : wl.events) {
    EXPECT_GE(ev.at, p.start);
    EXPECT_LT(ev.at, p.start + p.duration);
    EXPECT_GE(ev.at, prev) << "events are generated in time order";
    prev = ev.at;
    ASSERT_LT(ev.flow_slot, wl.flows.size());
    if (ev.kind == control::RequestKind::kReroute) {
      ASSERT_LT(ev.path_choice,
                wl.pairs[wl.flows[ev.flow_slot].pair].paths.size());
    }
  }
}

TEST(ChurnWorkloadTest, EventMixFollowsWeights) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams p = small_params();
  p.endpoints = ft.edge;
  p.duration = sim::seconds(10);  // ~500 events: enough to see the mix
  const ChurnWorkload wl = make_churn_workload(ft.graph, 3, p);
  std::size_t reroutes = 0;
  for (const ChurnEvent& ev : wl.events) {
    if (ev.kind == control::RequestKind::kReroute) ++reroutes;
  }
  // w_reroute = 0.70; allow a wide band, this is one sample.
  const double frac =
      static_cast<double>(reroutes) / static_cast<double>(wl.events.size());
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.9);
}

TEST(ChurnInstallTest, AllRequestsTerminalOnEverySystem) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams p = small_params();
  p.endpoints = ft.edge;
  const ChurnWorkload wl = make_churn_workload(ft.graph, 11, p);

  for (SystemKind kind : {SystemKind::kP4Update, SystemKind::kEzSegway,
                          SystemKind::kCentral}) {
    TestBedParams params;
    params.system = kind;
    params.trace_enabled = false;
    params.admission.max_inflight_global = 16;
    params.admission.max_inflight_per_flow = 1;
    params.admission.coalesce = true;
    TestBed bed(ft.graph, params);
    // A capacity hint far above the run's needs must not size the pool.
    bed.reserve_events(1u << 20);
    install_churn(bed, wl);
    bed.run(sim::seconds(120));
    EXPECT_TRUE(bed.flow_db().all_requests_terminal())
        << to_string(kind) << ": churn left non-terminal requests";
    EXPECT_GT(bed.system().admission().dispatched_total(), 0u);
    EXPECT_EQ(bed.monitor().violations().loops, 0u) << to_string(kind);
    EXPECT_EQ(bed.monitor().violations().blackholes, 0u) << to_string(kind);

    // Slabs come from the run: its pending peak plus the running handler's
    // slot, rounded up to whole 1,024-slot slabs.
    const sim::Simulator& s = bed.simulator();
    const std::size_t bound = (s.pending_peak() + 1 + 1023) / 1024 * 1024;
    EXPECT_GT(s.pool_slots(), 0u) << to_string(kind);
    EXPECT_LE(s.pool_slots(), bound) << to_string(kind);
  }
}

// Regression: per-flow terminal notifications must arrive in version order
// even when a later reroute supersedes an in-flight one (the admission
// queue notifies kSuperseded for the old request *before* kCompleted for
// the new one). Pinned against the P4Update fast-forward path, where the
// data plane skips ahead and the old version never completes on its own.
TEST(ChurnNotifyTest, SupersededNotifiedBeforeCompletingSuccessor) {
  net::NamedTopology topo = net::fig4_topology();
  TestBedParams params;
  params.switch_params.straggler_mean_ms = 50.0;
  params.admission.max_inflight_per_flow = 2;  // both reroutes go in flight
  TestBed bed(topo.graph, params);
  net::Flow f;
  f.ingress = 0;
  f.egress = 5;
  f.id = net::flow_id_of(0, 5);
  f.size = 1.0;
  bed.deploy_flow(f, topo.old_path);

  std::vector<control::RequestRecord> notified;
  bed.system().set_notify(
      [&notified](const control::RequestRecord& r) { notified.push_back(r); });

  bed.schedule_update_at(sim::milliseconds(10), f.id, {0, 2, 1, 4, 5});
  bed.schedule_update_at(sim::milliseconds(14), f.id, {0, 2, 5});
  bed.run();

  ASSERT_EQ(notified.size(), 2u);
  EXPECT_EQ(notified[0].state, control::RequestState::kSuperseded);
  EXPECT_EQ(notified[1].state, control::RequestState::kCompleted);
  EXPECT_LT(notified[0].version, notified[1].version);
  EXPECT_EQ(notified[0].flow, f.id);
  EXPECT_EQ(notified[1].flow, f.id);
  EXPECT_TRUE(bed.flow_db().all_requests_terminal());
  EXPECT_EQ(bed.monitor().violations().total(), 0u);
}

}  // namespace
}  // namespace p4u::harness
