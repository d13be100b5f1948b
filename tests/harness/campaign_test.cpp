#include "harness/campaign.hpp"

#include <gtest/gtest.h>
#include <unistd.h>  // getpid (POSIX)

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

std::shared_ptr<const net::Graph> fig1_graph() {
  net::NamedTopology topo = net::fig1_topology();
  net::set_uniform_capacity(topo.graph, 100.0);
  return std::make_shared<net::Graph>(std::move(topo.graph));
}

RunSpec small_single_flow(SystemKind kind, int runs) {
  net::NamedTopology topo = net::fig1_topology();
  RunSpec spec;
  spec.slug = std::string("test.") + to_string(kind) + ".update_time_ms";
  spec.family = ScenarioFamily::kSingleFlow;
  spec.graph = fig1_graph();
  spec.old_path = topo.old_path;
  spec.new_path = topo.new_path;
  spec.bed.system = kind;
  spec.bed.ctrl_latency_model = CtrlLatencyModel::kFixed;
  spec.bed.switch_params.straggler_mean_ms = 20.0;
  spec.runs = runs;
  return spec;
}

Campaign small_campaign(int runs) {
  Campaign c;
  c.add(small_single_flow(SystemKind::kP4Update, runs));
  c.add(small_single_flow(SystemKind::kEzSegway, runs));
  return c;
}

/// The tentpole guarantee: a campaign's merged output is byte-identical
/// whatever the worker count. Raw sample series (order included) and every
/// metric row must match between serial and parallel execution.
TEST(CampaignTest, ParallelRunIsByteIdenticalToSerial) {
  const Campaign campaign = small_campaign(6);
  const std::vector<SpecResult> serial = campaign.run(/*jobs=*/1);
  const std::vector<SpecResult> parallel = campaign.run(/*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].slug);
    EXPECT_EQ(serial[i].slug, parallel[i].slug);
    // Sample series: same values in the same (seed) order.
    EXPECT_EQ(serial[i].result.update_times_ms.raw(),
              parallel[i].result.update_times_ms.raw());
    EXPECT_EQ(serial[i].result.alarms, parallel[i].result.alarms);
    EXPECT_EQ(serial[i].result.violations.total(),
              parallel[i].result.violations.total());
    EXPECT_EQ(serial[i].result.incomplete_runs,
              parallel[i].result.incomplete_runs);
    // Metric rows: identical counters and identical histogram state.
    const auto sc = serial[i].result.metrics.counters();
    const auto pc = parallel[i].result.metrics.counters();
    ASSERT_EQ(sc.size(), pc.size());
    for (std::size_t r = 0; r < sc.size(); ++r) {
      EXPECT_EQ(sc[r].name, pc[r].name);
      EXPECT_EQ(sc[r].labels, pc[r].labels);
      EXPECT_EQ(sc[r].value, pc[r].value) << sc[r].name;
    }
    const auto sh = serial[i].result.metrics.histograms();
    const auto ph = parallel[i].result.metrics.histograms();
    ASSERT_EQ(sh.size(), ph.size());
    for (std::size_t r = 0; r < sh.size(); ++r) {
      EXPECT_EQ(sh[r].name, ph[r].name);
      EXPECT_EQ(sh[r].value->counts, ph[r].value->counts) << sh[r].name;
      EXPECT_EQ(sh[r].value->sum, ph[r].value->sum) << sh[r].name;
    }
  }
}

TEST(CampaignTest, OversubscribedJobsMatchSerialToo) {
  // More workers than jobs: the pool must not invent or drop runs.
  Campaign c;
  c.add(small_single_flow(SystemKind::kP4Update, 2));
  const auto serial = c.run(1);
  const auto wide = c.run(16);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_EQ(serial[0].result.update_times_ms.raw(),
            wide[0].result.update_times_ms.raw());
}

TEST(CampaignTest, ExecuteRunMatchesCampaignExpansion) {
  // Run index r of a spec is seed base_seed + r; the campaign's series is
  // exactly [execute_run(spec, 0), execute_run(spec, 1), ...].
  const RunSpec spec = small_single_flow(SystemKind::kP4Update, 3);
  Campaign c;
  c.add(spec);
  const auto results = c.run(1);
  ASSERT_EQ(results[0].result.update_times_ms.count(), 3u);
  for (int r = 0; r < 3; ++r) {
    const RunOutcome o = execute_run(spec, r);
    ASSERT_TRUE(o.sample.has_value()) << r;
    EXPECT_EQ(*o.sample, results[0].result.update_times_ms.raw()[r]) << r;
  }
}

TEST(CampaignTest, TotalRunsSumsSpecs) {
  Campaign c;
  c.add(small_single_flow(SystemKind::kP4Update, 3));
  c.add(small_single_flow(SystemKind::kEzSegway, 5));
  EXPECT_EQ(c.total_runs(), 8u);
}

TEST(CampaignTest, AddValidatesSpecs) {
  Campaign c;
  RunSpec no_graph = small_single_flow(SystemKind::kP4Update, 3);
  no_graph.graph = nullptr;
  EXPECT_THROW(c.add(std::move(no_graph)), std::invalid_argument);

  RunSpec negative = small_single_flow(SystemKind::kP4Update, 3);
  negative.runs = -1;
  EXPECT_THROW(c.add(std::move(negative)), std::invalid_argument);

  // The demo families build their own topologies: no graph needed.
  RunSpec demo;
  demo.slug = "fig4.P4Update.u3_completion_ms";
  demo.family = ScenarioFamily::kFig4FastForward;
  demo.bed.system = SystemKind::kP4Update;
  demo.runs = 1;
  demo.base_seed = 1;
  EXPECT_NO_THROW(c.add(std::move(demo)));
}

TEST(CampaignTest, DemoFamiliesProduceSamples) {
  Campaign c;
  for (SystemKind kind : {SystemKind::kP4Update, SystemKind::kEzSegway}) {
    RunSpec fig4;
    fig4.slug = std::string("fig4.") + to_string(kind) + ".u3_completion_ms";
    fig4.family = ScenarioFamily::kFig4FastForward;
    fig4.bed.system = kind;
    fig4.runs = 2;
    fig4.base_seed = 1;
    c.add(std::move(fig4));
  }
  const auto results = c.run(2);
  ASSERT_EQ(results.size(), 2u);
  for (const SpecResult& r : results) {
    EXPECT_EQ(r.result.update_times_ms.count(), 2u) << r.slug;
    EXPECT_EQ(r.result.violations.total(), 0u) << r.slug;
  }
  // P4Update fast-forwards; ez-Segway serializes. Order must hold per seed.
  EXPECT_LT(results[0].result.update_times_ms.mean(),
            results[1].result.update_times_ms.mean());
}

/// Samples merge (add_all of another run's raw series) is what the campaign
/// does per spec; the result must depend only on the merge order chosen,
/// which the campaign fixes to seed order — not on which worker finished
/// first.
TEST(CampaignTest, SamplesMergePreservesSeedOrder) {
  sim::Samples into;
  into.add(3.0);
  sim::Samples other;
  other.add(1.0);
  other.add(2.0);
  into.add_all(other.raw());
  EXPECT_EQ(into.raw(), (std::vector<double>{3.0, 1.0, 2.0}));
}

/// The benches' --jobs gate compares two distinct reports or none: with
/// one worker it runs the campaign once and reports "not run", never a
/// report compared with itself (which would always read identical).
TEST(CampaignTest, JobsGateNeverComparesAReportWithItself) {
  const Campaign campaign = small_campaign(2);
  const std::string root =
      make_unique_dir(::testing::TempDir(), "campaign_jobs_gate");
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"campaign", "gate"}};

  const JobsGate one = run_jobs_gate(campaign, 1, root, "gate", meta);
  EXPECT_FALSE(one.ran);
  EXPECT_EQ(one.jobs, 1);
  EXPECT_TRUE(std::filesystem::exists(one.serial_report));
  EXPECT_TRUE(one.parallel_report.empty());
  EXPECT_EQ(one.verdict(),
            "--jobs 1 vs --jobs N reports: not run (one worker)");
  EXPECT_STREQ(one.json(), "null");
  EXPECT_TRUE(one.passed());
  EXPECT_EQ(one.results.size(), campaign.specs().size());

  for (const int jobs : {0, 2, 3}) {
    SCOPED_TRACE(jobs);
    const JobsGate gate = run_jobs_gate(campaign, jobs, root, "gate", meta);
    EXPECT_TRUE(gate.ran);
    EXPECT_EQ(gate.jobs, jobs > 0 ? jobs : 4);
    ASSERT_TRUE(std::filesystem::exists(gate.serial_report));
    ASSERT_TRUE(std::filesystem::exists(gate.parallel_report));
    EXPECT_FALSE(std::filesystem::equivalent(gate.serial_report,
                                             gate.parallel_report));
    EXPECT_TRUE(gate.identical);
    EXPECT_EQ(gate.verdict(), "--jobs 1 and --jobs " +
                                  std::to_string(gate.jobs) +
                                  " reports byte-identical: YES");
    EXPECT_STREQ(gate.json(), "true");
  }
  std::filesystem::remove_all(root);
}

/// Without a report root the gate's reports are temporary: a gate that
/// passed (or did not run) removes them, so a bench run without --out
/// leaves nothing in the temp directory.
TEST(CampaignTest, JobsGateRemovesItsTemporaryReports) {
  const Campaign campaign = small_campaign(2);
  // A run name of this process's own: no concurrent run's directory
  // carries the prefix counted below.
  const std::string run_name = "gate_tmp_" + std::to_string(::getpid());
  const std::string prefix = "p4u_" + run_name + "_reports_";
  const auto leftovers = [&prefix] {
    int n = 0;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
      if (e.path().filename().string().starts_with(prefix)) ++n;
    }
    return n;
  };
  for (const int jobs : {1, 2}) {
    SCOPED_TRACE(jobs);
    const JobsGate gate = run_jobs_gate(campaign, jobs, "", run_name, {});
    EXPECT_TRUE(gate.passed());
    EXPECT_TRUE(gate.serial_report.empty());
    EXPECT_TRUE(gate.parallel_report.empty());
    EXPECT_EQ(leftovers(), 0);
  }
}

}  // namespace
}  // namespace p4u::harness
