// Property: the churn family is deterministic and live. Over 24 seeds of
// Poisson add/remove/reroute churn against P4Update with 5% control-plane
// drops and recovery on, every request reaches a terminal RequestState
// (the per-run sample is gated on all_requests_terminal), the monitor
// stays loop- and blackhole-free, the merged campaign report is
// byte-identical whatever --jobs, and the pooled latency series holds
// exactly the completed reroutes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "harness/campaign.hpp"
#include "harness/churn.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

constexpr int kSeeds = 24;

RunSpec churn_spec() {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  RunSpec spec;
  spec.slug = "churn_prop.P4Update.updates_per_sec";
  spec.sample_unit = "req/s";
  spec.family = ScenarioFamily::kChurn;
  spec.churn.pairs = 8;
  spec.churn.initial_flows = 16;
  spec.churn.arrivals_per_sec = 25.0;
  spec.churn.duration = sim::seconds(4);
  spec.churn.endpoints = ft.edge;
  spec.graph = std::make_shared<const net::Graph>(std::move(ft.graph));
  spec.bed.admission.max_inflight_global = 32;
  spec.bed.admission.max_inflight_per_flow = 1;
  spec.bed.admission.coalesce = true;
  spec.bed.static_preflight = true;
  spec.bed.fault_plan.model.control_drop_prob = 0.05;
  spec.bed.recovery.enabled = true;
  spec.bed.enable_retrigger = true;
  spec.bed.p4u_uim_watchdog = sim::milliseconds(500);
  spec.bed.p4u_wait_timeout = sim::milliseconds(500);
  spec.runs = kSeeds;
  spec.base_seed = 7000;
  return spec;
}

std::map<std::string, std::string> slurp_dir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    files[entry.path().filename().string()] = body.str();
  }
  return files;
}

TEST(ChurnDeterminismProperty, TwentyFourSeedsTerminalAndJobInvariant) {
  Campaign campaign;
  campaign.add(churn_spec());
  const std::vector<SpecResult> serial = campaign.run(/*jobs=*/1);
  const std::vector<SpecResult> parallel = campaign.run(/*jobs=*/4);

  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(parallel.size(), 1u);

  // Liveness over all 24 seeds: run_churn_job only emits a throughput
  // sample when every request of the run settled terminally, so a full
  // sample series IS the all-terminal assertion.
  EXPECT_EQ(serial[0].result.incomplete_runs, 0u);
  EXPECT_EQ(serial[0].result.update_times_ms.count(),
            static_cast<std::size_t>(kSeeds));

  // Safety: drops may delay or roll back updates, never break forwarding.
  EXPECT_EQ(serial[0].result.violations.loops, 0u);
  EXPECT_EQ(serial[0].result.violations.blackholes, 0u);

  // Determinism: sample series identical in seed order, not merely as
  // multisets.
  EXPECT_EQ(serial[0].result.update_times_ms.raw(),
            parallel[0].result.update_times_ms.raw());

  // The pooled latency series the bench's tails come from: raw-identical
  // across job counts, one entry per completed reroute in the merged
  // ledger counter, and no 0 ms add or remove among them.
  const sim::Samples& lat = serial[0].result.reroute_latency_ms;
  EXPECT_EQ(lat.raw(), parallel[0].result.reroute_latency_ms.raw());
  EXPECT_EQ(lat.count(),
            serial[0].result.metrics.counter_value(
                "ctrl.request", {{"kind", "reroute"}, {"state", "completed"}}));
  ASSERT_FALSE(lat.empty());
  EXPECT_GT(lat.min(), 0.0);

  // The shipped artifact: written reports must match byte for byte.
  // A directory of this process's own, removed when the test ends.
  struct OwnDir {
    const std::string path =
        make_unique_dir(::testing::TempDir(), "churn_prop");
    ~OwnDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } own;
  const std::string dir1 = own.path + "/jobs1";
  const std::string dir4 = own.path + "/jobs4";
  ASSERT_FALSE(
      write_campaign_report(dir1, "churn_prop", {{"campaign", "churn_prop"}},
                            serial)
          .empty());
  ASSERT_FALSE(
      write_campaign_report(dir4, "churn_prop", {{"campaign", "churn_prop"}},
                            parallel)
          .empty());
  const auto files1 = slurp_dir(dir1);
  const auto files4 = slurp_dir(dir4);
  ASSERT_FALSE(files1.empty());
  ASSERT_EQ(files1.size(), files4.size());
  for (const auto& [name, bytes] : files1) {
    ASSERT_TRUE(files4.count(name)) << name;
    EXPECT_EQ(bytes, files4.at(name)) << name << " differs across job counts";
  }
}

}  // namespace
}  // namespace p4u::harness
