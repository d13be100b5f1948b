// Chaos campaign: consistent updates under mid-update failures.
//
// The paper's §5 verification model covers dropped and reordered update
// packets; this campaign stresses the regime beyond it — every seeded run
// draws one link outage and one switch crash (registers wiped per Table 1)
// while a gravity batch of flow updates is in flight, on top of a
// probabilistic control-message drop coin. The InvariantMonitor watches
// every intermediate rule mix; controller recovery (completion timers with
// exponential backoff, repair re-routing around dead elements) must drive
// every update to a terminal outcome: Completed, RolledBack, or Abandoned.
//
// Liveness is gated for every system: a run counts as non-terminal when a
// flow's latest update or any request in the ledger is still pending, and
// any non-terminal run fails the campaign. Safety is one-sided by design:
// P4Update runs are gated hard on zero loop/blackhole violations, while the
// baselines' violations are *recorded as data* — ez-Segway executes
// whatever command arrives without verification, which is exactly the
// failure mode (Fig. 2) the paper holds against it.
//
// Emits BENCH_chaos.json (per-spec violations/outcomes) plus the usual
// --out run report. Deterministic for any --jobs value.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/campaign.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"
#include "net/topology_zoo.hpp"

namespace {

using namespace p4u;
using harness::RunSpec;
using harness::ScenarioFamily;
using harness::SpecResult;
using harness::SystemKind;

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

/// One fault-intensity row of the table; expands into a spec per system.
struct ChaosRow {
  const char* slug;   // "chaos_ft4_drop05"
  const char* title;  // report heading
  std::shared_ptr<const net::Graph> graph;
  double control_drop = 0.0;
};

std::vector<ChaosRow> chaos_rows() {
  std::vector<ChaosRow> rows;
  auto ft4 = [] {
    net::FatTree ft = net::fattree_topology(4);
    net::set_uniform_capacity(ft.graph, 100.0);
    return std::make_shared<const net::Graph>(std::move(ft.graph));
  };
  rows.push_back({"chaos_ft4_drop05",
                  "fat-tree K=4, 5% control drop + link-down + switch-crash",
                  ft4(), 0.05});
  rows.push_back({"chaos_ft4_drop15",
                  "fat-tree K=4, 15% control drop + link-down + switch-crash",
                  ft4(), 0.15});
  {
    net::Graph g = net::b4_topology();
    net::set_uniform_capacity(g, 100.0);
    rows.push_back({"chaos_b4_drop05",
                    "B4 (topology zoo), 5% control drop + link-down + "
                    "switch-crash",
                    std::make_shared<const net::Graph>(std::move(g)), 0.05});
  }
  return rows;
}

RunSpec spec_for(const ChaosRow& row, SystemKind kind,
                 const harness::BenchCli& cli) {
  RunSpec spec;
  spec.slug = std::string(row.slug) + "." + harness::to_string(kind) +
              ".completed_updates";
  spec.sample_unit = "updates";
  spec.family = ScenarioFamily::kChaos;
  spec.graph = row.graph;
  spec.bed.system = kind;
  // The failure domain under test: the probabilistic coin from the table
  // (per-run link-down/switch-crash events are drawn by the chaos job),
  // §11 data-plane retriggering, and the controller recovery machinery.
  spec.bed.fault_plan.model.control_drop_prob = row.control_drop;
  spec.bed.recovery.enabled = true;
  spec.bed.enable_retrigger = true;
  spec.bed.p4u_uim_watchdog = sim::milliseconds(500);
  spec.bed.p4u_wait_timeout = sim::milliseconds(500);
  // CLI fault flags stack on top of the table row: probabilities override
  // when given, scheduled events append.
  if (cli.fault_plan.model.control_drop_prob > 0.0) {
    spec.bed.fault_plan.model.control_drop_prob =
        cli.fault_plan.model.control_drop_prob;
  }
  if (cli.fault_plan.model.data_drop_prob > 0.0) {
    spec.bed.fault_plan.model.data_drop_prob =
        cli.fault_plan.model.data_drop_prob;
  }
  if (cli.fault_plan.model.reorder_jitter > 0) {
    spec.bed.fault_plan.model.reorder_jitter =
        cli.fault_plan.model.reorder_jitter;
  }
  for (const faults::FaultEvent& e : cli.fault_plan.events()) {
    switch (e.kind) {
      case faults::FaultKind::kLinkDown:
        spec.bed.fault_plan.link_down(e.at, e.a, e.b);
        break;
      case faults::FaultKind::kLinkUp:
        spec.bed.fault_plan.link_up(e.at, e.a, e.b);
        break;
      case faults::FaultKind::kSwitchCrash:
        spec.bed.fault_plan.switch_crash(e.at, e.a);
        break;
      case faults::FaultKind::kSwitchRestart:
        spec.bed.fault_plan.switch_restart(e.at, e.a);
        break;
      case faults::FaultKind::kSetModel:
        spec.bed.fault_plan.set_model(e.at, e.model);
        break;
    }
  }
  spec.traffic.target_utilization = 0.9;
  spec.runs = cli.runs_or(24);
  spec.base_seed = cli.seed_or(9000);
  return spec;
}

std::uint64_t outcome_count(const obs::MetricsRegistry& m,
                            const char* outcome) {
  return m.counter_value("ctrl.outcome", {{"outcome", outcome}});
}

void write_bench_json(const std::string& out_dir,
                      const std::vector<SpecResult>& results, bool smoke) {
  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  const std::string path =
      (out_dir.empty() ? std::string{} : out_dir + "/") + "BENCH_chaos.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "chaos: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"chaos\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"specs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SpecResult& sr = results[i];
    const auto& r = sr.result;
    std::fprintf(f, "    {\"slug\": \"%s\", ", sr.slug.c_str());
    std::fprintf(f,
                 "\"loops\": %llu, \"blackholes\": %llu, "
                 "\"faulted_walks\": %llu, \"incomplete_runs\": %llu, ",
                 static_cast<unsigned long long>(r.violations.loops),
                 static_cast<unsigned long long>(r.violations.blackholes),
                 static_cast<unsigned long long>(r.violations.faulted_walks),
                 static_cast<unsigned long long>(r.incomplete_runs));
    std::fprintf(
        f,
        "\"completed\": %llu, \"rolled_back\": %llu, \"abandoned\": %llu, "
        "\"resends\": %llu, \"repairs\": %llu}%s\n",
        static_cast<unsigned long long>(outcome_count(r.metrics, "completed")),
        static_cast<unsigned long long>(
            outcome_count(r.metrics, "rolled-back")),
        static_cast<unsigned long long>(outcome_count(r.metrics, "abandoned")),
        static_cast<unsigned long long>(
            r.metrics.counter_total("ctrl.recovery_resends")),
        static_cast<unsigned long long>(
            r.metrics.counter_total("ctrl.recovery_repairs")),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("chaos trajectory: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec cli_spec;
  cli_spec.program = "chaos";
  cli_spec.description =
      "Chaos campaign: link-down + switch-crash mid-update; every update "
      "and request must settle, P4Update must stay loop/blackhole-free.";
  cli_spec.with_faults = true;
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, cli_spec);

  const std::vector<ChaosRow> rows = chaos_rows();
  harness::Campaign campaign;
  for (const ChaosRow& row : rows) {
    for (SystemKind kind : kSystems) campaign.add(spec_for(row, kind, cli));
  }

  std::printf("Chaos campaign: %d seeded runs per system per row\n",
              campaign.specs().front().runs);
  const std::vector<SpecResult> results = campaign.run(cli.jobs);

  bool p4u_clean = true;
  bool all_terminal = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("\n================ %s ================\n", rows[i].title);
    for (std::size_t s = 0; s < 3; ++s) {
      const SpecResult& sr = results[i * 3 + s];
      const auto& r = sr.result;
      const auto completed = outcome_count(r.metrics, "completed");
      const auto rolled = outcome_count(r.metrics, "rolled-back");
      const auto abandoned = outcome_count(r.metrics, "abandoned");
      std::printf(
          "  %-10s loops %llu  blackholes %llu  nonterminal-runs %llu  "
          "outcomes C/R/A %llu/%llu/%llu  resends %llu  repairs %llu\n",
          harness::to_string(kSystems[s]),
          static_cast<unsigned long long>(r.violations.loops),
          static_cast<unsigned long long>(r.violations.blackholes),
          static_cast<unsigned long long>(r.incomplete_runs),
          static_cast<unsigned long long>(completed),
          static_cast<unsigned long long>(rolled),
          static_cast<unsigned long long>(abandoned),
          static_cast<unsigned long long>(
              r.metrics.counter_total("ctrl.recovery_resends")),
          static_cast<unsigned long long>(
              r.metrics.counter_total("ctrl.recovery_repairs")));
      all_terminal = all_terminal && r.incomplete_runs == 0;
      if (kSystems[s] == SystemKind::kP4Update) {
        p4u_clean = p4u_clean && r.violations.loops == 0 &&
                    r.violations.blackholes == 0;
      }
    }
  }

  const std::string report_path = harness::write_campaign_report(
      cli.out_dir, "chaos",
      {{"campaign", "chaos"},
       {"runs_per_system", std::to_string(campaign.specs().front().runs)}},
      results);
  if (!report_path.empty()) {
    std::printf("\nrun report: %s\n", report_path.c_str());
  }
  write_bench_json(cli.out_dir, results, cli.smoke);

  std::printf("\n---- verdict ----\n");
  std::printf("P4Update: zero loops/blackholes across all rows: %s\n",
              p4u_clean ? "YES" : "NO");
  std::printf("Every system: every update and request terminal across all "
              "rows: %s\n",
              all_terminal ? "YES" : "NO");
  // The gates hold in smoke mode too: consistency and liveness are not
  // statistics questions, three seeds must be as clean as twenty-four.
  return p4u_clean && all_terminal ? 0 : 1;
}
