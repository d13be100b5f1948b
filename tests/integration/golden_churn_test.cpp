// Golden-ledger regression for steady churn: a smoke-size churn bed per
// system must settle, for each pinned (system, fault mode, seed), exactly
// the request ledger it settled when the digests below were captured.
//
// The single-flow golden trace (golden_trace_test.cpp) never removes a rule
// and installs it again. Churn does: reroutes clean up old-path rules and
// later reroutes bring them back, so the forwarding table's entries come
// and go while installs for the same flow are still in flight. Any change
// to how the table keeps or forgets an entry, or in which order its
// installs retire, shifts a ledger timestamp, the executed-event count or
// the install total, and so the digest.
//
// The digests must never be re-pinned to make a table change pass: a
// mismatch means observable behaviour changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/churn.hpp"
#include "harness/scenario.hpp"
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

/// churn_test's smoke workload: 4 pairs, 8 initial flows, 2 s at 50/s.
ChurnParams small_params(const std::vector<net::NodeId>& edge) {
  ChurnParams p;
  p.pairs = 4;
  p.initial_flows = 8;
  p.arrivals_per_sec = 50.0;
  p.duration = sim::seconds(2);
  p.paths_per_pair = 3;
  p.endpoints = edge;
  return p;
}

/// Runs one churn bed on fat-tree(4) and folds every RequestRecord (id,
/// kind, state, version, submitted/dispatched/finished), the executed-event
/// count and the switch.rule_installs total into an FNV-1a-64 digest.
std::uint64_t churn_ledger_digest(SystemKind kind, bool lossy,
                                  std::uint64_t seed) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  const ChurnWorkload wl =
      make_churn_workload(ft.graph, seed, small_params(ft.edge));

  TestBedParams params;
  params.system = kind;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  params.admission.max_inflight_global = 16;
  params.admission.max_inflight_per_flow = 1;
  params.admission.coalesce = true;
  if (lossy) {
    params.fault_plan.model.control_drop_prob = 0.05;
    params.recovery.enabled = true;
    params.enable_retrigger = true;
    params.p4u_uim_watchdog = sim::milliseconds(500);
    params.p4u_wait_timeout = sim::milliseconds(500);
  }
  TestBed bed(ft.graph, params);
  install_churn(bed, wl);
  bed.run(sim::seconds(120));
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
  mix_u64(h, bed.simulator().executed());
  mix_u64(h, bed.metrics().counter_total("switch.rule_installs"));
  return h;
}

struct GoldenChurnCase {
  SystemKind kind;
  bool lossy;  // 5% control-message drop with recovery on
  std::uint64_t seed;
  std::uint64_t digest;
};

// Captured before the flat forwarding table replaced the std::map one.
constexpr GoldenChurnCase kGolden[] = {
    {SystemKind::kP4Update, false, 11, 0x1a4a2f49f0254cf9ull},
    {SystemKind::kP4Update, false, 29, 0x9788fc5a9e9e6da4ull},
    {SystemKind::kP4Update, true, 11, 0x9d529ee0ba6bf43bull},
    {SystemKind::kP4Update, true, 29, 0xe805fc20a93b7555ull},
    {SystemKind::kEzSegway, false, 11, 0x27025692f8f8078eull},
    {SystemKind::kEzSegway, false, 29, 0xe6ffaeee811b9740ull},
    {SystemKind::kEzSegway, true, 11, 0x9d6ea7ec50e2009dull},
    {SystemKind::kEzSegway, true, 29, 0xb54f393afd9071b6ull},
    {SystemKind::kCentral, false, 11, 0x5f475d7d00281a99ull},
    {SystemKind::kCentral, false, 29, 0xc56ee30798ba7ea6ull},
    {SystemKind::kCentral, true, 11, 0x457066c372d1d70cull},
    {SystemKind::kCentral, true, 29, 0x81fef8cb19a64224ull},
};

TEST(GoldenChurnTest, LedgerDigestsArePinned) {
  for (const GoldenChurnCase& c : kGolden) {
    const std::uint64_t got = churn_ledger_digest(c.kind, c.lossy, c.seed);
    EXPECT_EQ(got, c.digest)
        << to_string(c.kind) << (c.lossy ? " drop05" : " clean") << " seed "
        << c.seed << ": churn ledger digest drifted (got 0x" << std::hex
        << got << ")";
  }
}

}  // namespace
}  // namespace p4u::harness
