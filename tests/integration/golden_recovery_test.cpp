// Golden-ledger regression for controller recovery under element faults: a
// chaos-style bed per (system, seed) must settle, with its recovery
// counters, exactly what it settled when the digests below were captured.
//
// The churn digests (golden_churn_test.cpp) see only a lossy control plane,
// so their recovery is resends and give-ups. These beds also take one link
// outage and one switch crash with restart mid-update, which drives the
// whole recovery lifecycle of all three controllers: completion timers
// with backoff, repairs around dead elements, abandons, re-issues after a
// heal and re-deploys across a restarted switch. Every row must fire each
// of those paths, or the digest would pin less than it claims.
//
// The digests must never be re-pinned to make a recovery change pass: a
// mismatch means observable behaviour changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/traffic.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xffu;
    h *= kFnvPrime;
    v >>= 8;
  }
}

void mix_time(std::uint64_t& h, sim::Time t) {
  mix_u64(h, static_cast<std::uint64_t>(t));
}

constexpr const char* kRecoveryCounters[] = {
    "ctrl.recovery_resends",   "ctrl.recovery_repairs",
    "ctrl.recovery_reissues",  "ctrl.recovery_redeploys",
    "ctrl.recovery_stranded",  "ctrl.recovery_gaveup",
    "ctrl.retriggers",
};

struct FaultRun {
  std::uint64_t digest = 0;
  std::uint64_t repairs = 0;
  std::uint64_t reissues = 0;
  std::uint64_t redeploys = 0;
  std::uint64_t gaveup = 0;
};

/// The chaos campaign's bed (bench/chaos, row chaos_ft4_drop05) for one
/// seed: a gravity batch with one update per flow on fat-tree(4), 5%
/// control drop, and one link outage plus one switch crash drawn in
/// [20, 150) ms, both healing after 2 s. Folds every RequestRecord, every
/// flow's update history, the executed-event count, the rule-install total
/// and the recovery counters into an FNV-1a-64 digest.
FaultRun element_fault_run(SystemKind kind, std::uint64_t seed) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  const net::Graph& g = ft.graph;
  sim::Rng traffic_rng(seed ^ 0x7AFF1Cull);
  const std::vector<TrafficFlow> flows = gravity_multiflow(g, traffic_rng);

  TestBedParams params;
  params.system = kind;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  params.fault_plan.model.control_drop_prob = 0.05;
  params.recovery.enabled = true;
  params.enable_retrigger = true;
  params.p4u_uim_watchdog = sim::milliseconds(500);
  params.p4u_wait_timeout = sim::milliseconds(500);
  sim::Rng chaos_rng(seed ^ 0xC4A05ull);
  const auto draw_at = [&chaos_rng] {
    return sim::milliseconds(20) +
           static_cast<sim::Time>(chaos_rng.uniform(
               static_cast<std::uint64_t>(sim::milliseconds(130))));
  };
  const net::Link& l = g.link(
      static_cast<net::LinkId>(chaos_rng.uniform(g.link_count())));
  params.fault_plan.link_down_for(draw_at(), l.a, l.b, sim::seconds(2));
  const auto victim =
      static_cast<net::NodeId>(chaos_rng.uniform(g.node_count()));
  params.fault_plan.switch_crash_for(draw_at(), victim, sim::seconds(2));

  TestBed bed(g, params);
  std::vector<std::pair<net::FlowId, net::Path>> batch;
  for (const TrafficFlow& tf : flows) {
    bed.deploy_flow(tf.flow, tf.old_path);
    batch.emplace_back(tf.flow.id, tf.new_path);
  }
  bed.schedule_batch_at(sim::milliseconds(10), std::move(batch));
  bed.run(sim::seconds(300));
  EXPECT_TRUE(bed.flow_db().all_requests_terminal())
      << to_string(kind) << " seed " << seed;

  std::uint64_t h = kFnvOffset;
  for (const control::RequestRecord& r : bed.flow_db().requests()) {
    mix_u64(h, r.id);
    mix_u64(h, static_cast<std::uint64_t>(r.kind));
    mix_u64(h, static_cast<std::uint64_t>(r.state));
    mix_u64(h, r.version);
    mix_time(h, r.submitted_at);
    mix_time(h, r.dispatched_at);
    mix_time(h, r.finished_at);
  }
  for (const TrafficFlow& tf : flows) {
    bed.flow_db().for_each_record(
        tf.flow.id, [&h](const control::UpdateRecord& r) {
          mix_u64(h, r.version);
          mix_time(h, r.issued_at);
          mix_time(h, r.completed_at);
          mix_u64(h, static_cast<std::uint64_t>(r.state));
          mix_u64(h, r.alarms);
          mix_u64(h, static_cast<std::uint64_t>(r.outcome));
        });
  }
  const obs::MetricsRegistry& m = bed.metrics();
  mix_u64(h, bed.simulator().executed());
  mix_u64(h, m.counter_total("switch.rule_installs"));
  for (const char* name : kRecoveryCounters) mix_u64(h, m.counter_total(name));

  FaultRun run;
  run.digest = h;
  run.repairs = m.counter_total("ctrl.recovery_repairs");
  run.reissues = m.counter_total("ctrl.recovery_reissues");
  run.redeploys = m.counter_total("ctrl.recovery_redeploys");
  run.gaveup = m.counter_total("ctrl.recovery_gaveup");
  return run;
}

struct GoldenFaultCase {
  SystemKind kind;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Captured before the three controllers' recovery code moved into
// faults::RecoveringController.
// Seeds 9001 and 9020 are the first two chaos seeds on which every system
// fires all four recovery paths.
constexpr GoldenFaultCase kGolden[] = {
    {SystemKind::kP4Update, 9001, 0x7588b207610801ccull},
    {SystemKind::kP4Update, 9020, 0xd3d7dc2e5c0b68c2ull},
    {SystemKind::kEzSegway, 9001, 0x7959a6f8962ba77eull},
    {SystemKind::kEzSegway, 9020, 0xcf1c58413bc0abadull},
    {SystemKind::kCentral, 9001, 0xddfdb6d99b6b2e70ull},
    {SystemKind::kCentral, 9020, 0xb6fc4a3b95f1185bull},
};

TEST(GoldenRecoveryTest, ElementFaultDigestsArePinned) {
  for (const GoldenFaultCase& c : kGolden) {
    const FaultRun run = element_fault_run(c.kind, c.seed);
    const char* system = to_string(c.kind);
    EXPECT_EQ(run.digest, c.digest)
        << system << " seed " << c.seed
        << ": element-fault digest drifted (got 0x" << std::hex << run.digest
        << ")";
    // The row exercises every recovery path, not only resends.
    EXPECT_GT(run.repairs, 0u) << system << " seed " << c.seed;
    EXPECT_GT(run.reissues, 0u) << system << " seed " << c.seed;
    EXPECT_GT(run.redeploys, 0u) << system << " seed " << c.seed;
    EXPECT_GT(run.gaveup, 0u) << system << " seed " << c.seed;
  }
}

}  // namespace
}  // namespace p4u::harness
