// Property: the failure domain beyond §5 — a probabilistic control-message
// coin plus a scheduled mid-update link outage — never wedges an update.
// With controller recovery on, every system settles every flow's latest
// update and every request at a terminal outcome, P4Update's monitor stays
// loop- and blackhole-free, and the chaos campaign's merged output is
// byte-identical whatever --jobs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "harness/campaign.hpp"
#include "harness/scenario.hpp"
#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

// Case p runs seed p % 10 on system p / 10: cases 0-9 are P4Update's.
class ChaosTerminationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaosTerminationProperty, DropsPlusLinkDownAlwaysSettleTerminally) {
  const int seed = GetParam() % 10;
  const SystemKind system = kSystems[GetParam() / 10];
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.system = system;
  params.seed = static_cast<std::uint64_t>(seed);
  params.fault_plan.model.control_drop_prob = 0.05;
  // One mid-update outage on an interior hop of the new path: issued at
  // 10 ms, cut at 15 ms, healed two seconds later.
  params.fault_plan.link_down_for(sim::milliseconds(15), topo.new_path[1],
                                  topo.new_path[2], sim::seconds(2));
  params.recovery.enabled = true;
  params.enable_retrigger = true;
  params.p4u_uim_watchdog = sim::milliseconds(500);
  params.p4u_wait_timeout = sim::milliseconds(500);
  TestBed bed(topo.graph, params);

  net::Flow f;
  f.ingress = topo.old_path.front();
  f.egress = topo.old_path.back();
  f.id = net::flow_id_of(f.ingress, f.egress);
  f.size = 1.0;
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  bed.run(sim::seconds(120));

  // Liveness: the update settled — Completed, RolledBack, or Abandoned,
  // never a forever-pending record — and so did the request behind it.
  EXPECT_TRUE(bed.flow_db().all_terminal());
  EXPECT_TRUE(bed.flow_db().all_requests_terminal());
  const control::UpdateRecord* last = bed.flow_db().latest(f.id);
  ASSERT_NE(last, nullptr);
  EXPECT_NE(last->outcome, control::UpdateOutcome::kPending);
  EXPECT_TRUE(bed.simulator().idle());
  // Safety: faults may excuse broken walks, never loops or blackholes. Only
  // P4Update verifies before installing; the baselines' violations are data.
  if (system == SystemKind::kP4Update) {
    EXPECT_EQ(bed.monitor().violations().loops, 0u);
    EXPECT_EQ(bed.monitor().violations().blackholes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTerminationProperty,
                         ::testing::Range(0, 30));

RunSpec chaos_spec() {
  net::NamedTopology topo = net::fig1_topology();
  net::set_uniform_capacity(topo.graph, 100.0);
  RunSpec spec;
  spec.slug = "chaos_prop.P4Update.completed_updates";
  spec.sample_unit = "updates";
  spec.family = ScenarioFamily::kChaos;
  spec.graph = std::make_shared<const net::Graph>(std::move(topo.graph));
  spec.bed.fault_plan.model.control_drop_prob = 0.05;
  spec.bed.recovery.enabled = true;
  spec.bed.enable_retrigger = true;
  spec.bed.p4u_uim_watchdog = sim::milliseconds(500);
  spec.bed.p4u_wait_timeout = sim::milliseconds(500);
  spec.runs = 6;
  spec.base_seed = 4242;
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

TEST(ChaosCampaignTest, MergedReportsAreByteIdenticalAcrossJobCounts) {
  Campaign campaign;
  campaign.add(chaos_spec());
  const std::vector<SpecResult> serial = campaign.run(/*jobs=*/1);
  const std::vector<SpecResult> parallel = campaign.run(/*jobs=*/4);

  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(parallel.size(), 1u);
  // Terminal per the family contract: no seeded run left an update pending.
  EXPECT_EQ(serial[0].result.incomplete_runs, 0u);
  EXPECT_EQ(serial[0].result.violations.loops, 0u);
  EXPECT_EQ(serial[0].result.violations.blackholes, 0u);
  // Sample series identical in seed order, not merely equal as multisets.
  EXPECT_EQ(serial[0].result.update_times_ms.raw(),
            parallel[0].result.update_times_ms.raw());

  // The shipped artifact: written reports must match byte for byte.
  // A directory of this process's own, removed when the test ends.
  struct OwnDir {
    const std::string path =
        make_unique_dir(::testing::TempDir(), "chaos_prop");
    ~OwnDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } own;
  const std::string dir1 = own.path + "/jobs1";
  const std::string dir4 = own.path + "/jobs4";
  ASSERT_FALSE(
      write_campaign_report(dir1, "chaos_prop", {{"campaign", "chaos_prop"}},
                            serial)
          .empty());
  ASSERT_FALSE(
      write_campaign_report(dir4, "chaos_prop", {{"campaign", "chaos_prop"}},
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
