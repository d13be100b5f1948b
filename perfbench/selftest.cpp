// perfbench self-test: pins the benchmark's own arithmetic so a change to
// the simulator's statistics code cannot move the benchmark's numbers.
//
//   - exact tails: nearest-rank values, p50 <= p99, and the n/a rule;
//   - the ledger digest sees every field it covers;
//   - workload purity: the same seed rolls the same request stream (churn
//     and reroute), different seeds roll different ones.
//
// Exit 0 when every check holds; prints each failure and exits 1 otherwise.
#include <cstdio>
#include <vector>

#include "core.hpp"
#include "net/topologies.hpp"
#include "sim/random.hpp"

namespace {

using namespace p4u;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tails() {
  using perfbench::kP50;
  using perfbench::kP99;
  using perfbench::nearest_rank;
  check(perfbench::min_samples(kP50) == 20, "p50 needs 20 samples");
  check(perfbench::min_samples(kP99) == 1000, "p99 needs 1000 samples");

  const std::vector<double> hundred = iota_samples(100);
  check(nearest_rank(hundred, kP50).value == 50.0, "p50 of 1..100 is 50");
  check(nearest_rank(hundred, kP99).value == 99.0, "p99 of 1..100 is 99");
  const std::vector<double> thousand = iota_samples(1000);
  check(nearest_rank(thousand, kP99).value == 990.0, "p99 of 1..1000 is 990");

  // The n/a rule: fewer than 10 / (1 - q) samples never yield a number.
  check(!nearest_rank(iota_samples(19), kP50).supported, "p50 n/a at n=19");
  check(nearest_rank(iota_samples(20), kP50).supported, "p50 ok at n=20");
  check(!nearest_rank(iota_samples(999), kP99).supported, "p99 n/a at n=999");
  check(nearest_rank(thousand, kP99).supported, "p99 ok at n=1000");
  check(!nearest_rank({}, kP50).supported, "empty sample is n/a");

  // Monotone on arbitrary (skewed, tied) samples.
  sim::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> v;
    const std::size_t n = 1 + rng.uniform(3000);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(rng.uniform(50));
      v.push_back(x * x);
    }
    std::sort(v.begin(), v.end());
    check(nearest_rank(v, kP50).value <= nearest_rank(v, kP99).value,
          "p50 <= p99");
  }
}

void test_ledger_digest() {
  std::vector<control::RequestRecord> ledger(3);
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    ledger[i].id = i + 1;
    ledger[i].version = 2;
    ledger[i].submitted_at = sim::milliseconds(10);
    ledger[i].dispatched_at = sim::milliseconds(11);
    ledger[i].finished_at = sim::milliseconds(40);
    ledger[i].state = control::RequestState::kCompleted;
  }
  const std::uint64_t base = perfbench::ledger_digest(ledger);
  check(base == perfbench::ledger_digest(ledger), "digest is deterministic");
  auto moved = ledger;
  moved[1].finished_at += 1;
  check(perfbench::ledger_digest(moved) != base, "digest sees finished_at");
  moved = ledger;
  moved[2].dispatched_at += 1;
  check(perfbench::ledger_digest(moved) != base, "digest sees dispatched_at");
  moved = ledger;
  moved[0].state = control::RequestState::kRolledBack;
  check(perfbench::ledger_digest(moved) != base, "digest sees state");
  moved = ledger;
  moved[0].kind = control::RequestKind::kAdd;
  check(perfbench::ledger_digest(moved) != base, "digest sees kind");
  moved = ledger;
  moved[0].version = 3;
  check(perfbench::ledger_digest(moved) != base, "digest sees version");
}

void test_workload_purity() {
  net::FatTree ft8 = net::fattree_topology(8);
  net::set_uniform_capacity(ft8.graph, 100.0);
  const harness::ChurnParams cp = perfbench::churn_params(ft8.edge);
  const auto churn = [&](std::uint64_t seed) {
    return perfbench::workload_digest(
        harness::make_churn_workload(ft8.graph, seed, cp));
  };
  const std::uint64_t s1 = perfbench::unit_seed(1, 0);
  const std::uint64_t s2 = perfbench::unit_seed(2, 0);
  check(churn(s1) == churn(s1), "churn: same seed, same stream");
  check(churn(s1) != churn(s2), "churn: different seeds, different streams");

  net::FatTree ft16 = net::fattree_topology(16);
  net::set_uniform_capacity(ft16.graph, 100.0);
  const auto reroute = [&](std::uint64_t seed) {
    return perfbench::workload_digest(
        perfbench::roll_reroute(ft16.graph, ft16.edge, seed));
  };
  check(reroute(s1) == reroute(s1), "reroute: same seed, same stream");
  check(reroute(s1) != reroute(s2),
        "reroute: different seeds, different streams");
}

}  // namespace

int main() {
  test_tails();
  test_ledger_digest();
  test_workload_purity();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
