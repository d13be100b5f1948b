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
// A sibling test runs the same beds with the static preflight on and pins
// every metrics-registry row after the harvest: which cells exist, their
// labels and their values.
//
// The digests must never be re-pinned to make a table change pass: a
// mismatch means observable behaviour changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
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

/// Runs one churn bed on fat-tree(4) to the end: the smoke workload through
/// a 16-wide admission window, with 5% control-message drop and recovery on
/// when `lossy`, and the static preflight on when `preflight`.
std::unique_ptr<TestBed> run_churn_bed(SystemKind kind, bool lossy,
                                       std::uint64_t seed, bool preflight) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  const ChurnWorkload wl =
      make_churn_workload(ft.graph, seed, small_params(ft.edge));

  TestBedParams params;
  params.system = kind;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  params.static_preflight = preflight;
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
  auto bed = std::make_unique<TestBed>(ft.graph, params);
  install_churn(*bed, wl);
  bed->run(sim::seconds(120));
  EXPECT_TRUE(bed->flow_db().all_requests_terminal())
      << to_string(kind) << " seed " << seed;
  return bed;
}

/// Folds every RequestRecord (id, kind, state, version, submitted /
/// dispatched / finished), the executed-event count and the
/// switch.rule_installs total of one churn bed into an FNV-1a-64 digest.
std::uint64_t churn_ledger_digest(SystemKind kind, bool lossy,
                                  std::uint64_t seed) {
  const std::unique_ptr<TestBed> run =
      run_churn_bed(kind, lossy, seed, /*preflight=*/false);
  TestBed& bed = *run;

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

/// Runs the churn bed with the static preflight on and folds every
/// registry row after the harvest into an FNV-1a-64 digest: each counter,
/// gauge and histogram's name, labels and value (histograms: count, sum,
/// min, max and every bucket count). Pins the set of cells the run creates
/// as well as their values.
std::uint64_t churn_registry_digest(SystemKind kind, bool lossy,
                                    std::uint64_t seed) {
  const std::unique_ptr<TestBed> bed =
      run_churn_bed(kind, lossy, seed, /*preflight=*/true);
  bed->collect_metrics();

  std::uint64_t h = kFnvOffset;
  const auto mix_str = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
    mix_u64(h, s.size());
  };
  const auto mix_double = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix_u64(h, bits);
  };
  const auto mix_row = [&](const std::string& name,
                           const obs::LabelSet& labels) {
    mix_str(name);
    mix_u64(h, labels.size());
    for (const auto& [k, v] : labels) {
      mix_str(k);
      mix_str(v);
    }
  };
  const obs::MetricsRegistry& m = bed->metrics();
  for (const auto& row : m.counters()) {
    mix_row(row.name, row.labels);
    mix_u64(h, row.value);
  }
  for (const auto& row : m.gauges()) {
    mix_row(row.name, row.labels);
    mix_double(row.value);
  }
  for (const auto& row : m.histograms()) {
    mix_row(row.name, row.labels);
    mix_u64(h, row.value->count);
    mix_double(row.value->sum);
    mix_double(row.value->min);
    mix_double(row.value->max);
    for (const std::uint64_t c : row.value->counts) mix_u64(h, c);
  }
  return h;
}

TEST(GoldenChurnTest, LedgerDigestsArePinned) {
  for (const GoldenChurnCase& c : kGolden) {
    const std::uint64_t got = churn_ledger_digest(c.kind, c.lossy, c.seed);
    EXPECT_EQ(got, c.digest)
        << to_string(c.kind) << (c.lossy ? " drop05" : " clean") << " seed "
        << c.seed << ": churn ledger digest drifted (got 0x" << std::hex
        << got << ")";
  }
}

// Captured before per-event metric updates moved onto handles resolved on
// first use.
constexpr GoldenChurnCase kGoldenRegistry[] = {
    {SystemKind::kP4Update, false, 11, 0x1a841a47a1de5358ull},
    {SystemKind::kP4Update, false, 29, 0x67ad8ee55c0f91c2ull},
    {SystemKind::kP4Update, true, 11, 0x2fcce97820eda2ccull},
    {SystemKind::kP4Update, true, 29, 0x707c6c9dba2711b3ull},
    {SystemKind::kEzSegway, false, 11, 0xdf783e5e787a9e72ull},
    {SystemKind::kEzSegway, false, 29, 0x40fb5625b94231ffull},
    {SystemKind::kEzSegway, true, 11, 0x7e7657a4f7e04653ull},
    {SystemKind::kEzSegway, true, 29, 0x4b9f3c08870c560full},
    {SystemKind::kCentral, false, 11, 0x24e5e8332467aa86ull},
    {SystemKind::kCentral, false, 29, 0xe74390e8dc4191f8ull},
    {SystemKind::kCentral, true, 11, 0x94e3ab3aed1ca185ull},
    {SystemKind::kCentral, true, 29, 0x35ffe00021055cdeull},
};

TEST(GoldenChurnTest, RegistryRowsArePinned) {
  for (const GoldenChurnCase& c : kGoldenRegistry) {
    const std::uint64_t got = churn_registry_digest(c.kind, c.lossy, c.seed);
    EXPECT_EQ(got, c.digest)
        << to_string(c.kind) << (c.lossy ? " drop05" : " clean") << " seed "
        << c.seed << ": registry digest drifted (got 0x" << std::hex << got
        << ")";
  }
}

}  // namespace
}  // namespace p4u::harness
