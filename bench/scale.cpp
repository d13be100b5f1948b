// Scale campaign: million-flow flat state on a fat-tree(16).
//
// The tentpole question this bench answers: does per-flow state stay flat
// — index-addressed pools instead of per-flow hash maps — when a single
// bed holds 10^6 resident flows and reroutes a pinned subset? Three
// numbers come out:
//
//   - flows/sec: wall-clock rate of one full seeded run (deploy + update
//     batch + drain), the end-to-end state-layer throughput;
//   - bytes/flow: peak RSS (VmHWM) divided by the resident flow count,
//     the flat-storage footprint CI pins a ceiling on;
//   - a byte-identity verdict: the merged campaign report for --jobs 1
//     must equal the report for --jobs N bit for bit, proving the flat
//     rebuild kept the spec-then-seed merge deterministic (not run with
//     one worker).
//
// Wall time and RSS are nondeterministic, so they go ONLY into
// BENCH_scale.json (a trajectory artifact, like BENCH_hotpath.json) and
// never into a campaign report. Smoke mode runs fat-tree(8) with 50k
// flows — same code path, CI-sized.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <chrono>

// p4u-detlint: allow(wall-clock) throughput measurement: wall time is the measurand (flows/sec); results go to the BENCH_scale.json trajectory artifact, never into a campaign report
using BenchClock = std::chrono::steady_clock;

#include "harness/bench_cli.hpp"
#include "harness/campaign.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"

namespace {

using namespace p4u;
using harness::RunSpec;
using harness::ScenarioFamily;
using harness::SpecResult;
using harness::SystemKind;

struct ScaleTable {
  int fattree_k;
  std::size_t flows;
  std::size_t update_flows;
  std::size_t pairs;
  const char* slug;
};

constexpr ScaleTable kFull{16, 1000000, 4096, 256, "scale_ft16_1m"};
constexpr ScaleTable kSmoke{8, 50000, 1024, 128, "scale_ft8_50k"};

RunSpec spec_for(const ScaleTable& t, const harness::BenchCli& cli) {
  net::FatTree ft = net::fattree_topology(t.fattree_k);
  net::set_uniform_capacity(ft.graph, 100.0);

  RunSpec spec;
  spec.slug = std::string(t.slug) + ".P4Update.batch_completion_ms";
  spec.sample_unit = "ms";
  spec.family = ScenarioFamily::kScale;
  spec.scale_endpoints = ft.edge;  // flows run between edge switches (§9.1)
  spec.graph = std::make_shared<const net::Graph>(std::move(ft.graph));
  spec.bed.system = SystemKind::kP4Update;
  spec.scale_flows = t.flows;
  spec.scale_update_flows = t.update_flows;
  spec.scale_pairs = t.pairs;
  spec.runs = cli.runs_or(2);
  spec.base_seed = cli.seed_or(11000);
  return spec;
}

/// Peak resident set size in bytes from /proc/self/status (VmHWM), or 0
/// when the file or field is unavailable.
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::size_t kb = 0;
      is >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

bool spec_clean(const SpecResult& sr) {
  const auto& r = sr.result;
  return r.incomplete_runs == 0 && r.violations.loops == 0 &&
         r.violations.blackholes == 0;
}

void write_bench_json(const std::string& out_dir, const ScaleTable& t,
                      bool smoke, double flows_per_sec,
                      std::size_t bytes_per_flow, std::size_t peak_rss,
                      double run_seconds, const harness::JobsGate& gate) {
  const SpecResult& merged = gate.results.front();
  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  const std::string path =
      (out_dir.empty() ? std::string{} : out_dir + "/") + "BENCH_scale.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "scale: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"topology\": \"fat-tree(%d)\",\n", t.fattree_k);
  std::fprintf(f, "  \"resident_flows\": %llu,\n",
               static_cast<unsigned long long>(t.flows));
  std::fprintf(f, "  \"updated_flows\": %llu,\n",
               static_cast<unsigned long long>(t.update_flows));
  std::fprintf(f, "  \"run_seconds\": %.3f,\n", run_seconds);
  std::fprintf(f, "  \"flows_per_sec\": %.1f,\n", flows_per_sec);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(peak_rss));
  std::fprintf(f, "  \"bytes_per_flow\": %llu,\n",
               static_cast<unsigned long long>(bytes_per_flow));
  std::fprintf(f, "  \"jobs_reports_identical\": %s,\n", gate.json());
  std::fprintf(f, "  \"incomplete_runs\": %llu,\n",
               static_cast<unsigned long long>(merged.result.incomplete_runs));
  std::fprintf(
      f, "  \"violations\": {\"loops\": %llu, \"blackholes\": %llu}\n",
      static_cast<unsigned long long>(merged.result.violations.loops),
      static_cast<unsigned long long>(merged.result.violations.blackholes));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("scale trajectory: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec cli_spec;
  cli_spec.program = "scale";
  cli_spec.description =
      "Million-flow flat-state campaign on a fat-tree: measures flows/sec "
      "and bytes/flow, and gates on byte-identical --jobs 1 vs --jobs N "
      "reports.";
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, cli_spec);

  const ScaleTable& table = cli.smoke ? kSmoke : kFull;
  const RunSpec spec = spec_for(table, cli);
  std::printf("Scale campaign: fat-tree(%d), %llu resident flows, %llu "
              "updated, %d seeded runs\n",
              table.fattree_k, static_cast<unsigned long long>(table.flows),
              static_cast<unsigned long long>(table.update_flows), spec.runs);

  // Measured run first (seed = base, alone in the process) so VmHWM is
  // dominated by one bed and bytes/flow means what it says.
  const auto t0 = BenchClock::now();
  const harness::RunOutcome measured = harness::execute_run(spec, 0);
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  const std::size_t peak_rss = peak_rss_bytes();
  const double flows_per_sec =
      dt.count() > 0.0 ? static_cast<double>(table.flows) / dt.count() : 0.0;
  const std::size_t bytes_per_flow = peak_rss / table.flows;
  std::printf("measured run: %.2fs  %.0f flows/sec  peak RSS %.1f MiB  "
              "(%llu bytes/flow)  batch completion %s\n",
              dt.count(), flows_per_sec,
              static_cast<double>(peak_rss) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(bytes_per_flow),
              measured.sample ? "OK" : "INCOMPLETE");

  harness::Campaign campaign;
  campaign.add(spec);
  const harness::JobsGate gate = harness::run_jobs_gate(
      campaign, cli.jobs, cli.out_dir, "scale",
      {{"campaign", "scale"},
       {"topology", "fat-tree(" + std::to_string(table.fattree_k) + ")"},
       {"resident_flows", std::to_string(table.flows)}});

  write_bench_json(cli.out_dir, table, cli.smoke, flows_per_sec,
                   bytes_per_flow, peak_rss, dt.count(), gate);

  const bool clean =
      spec_clean(gate.results.front()) && measured.sample.has_value();
  std::printf("\n---- verdict ----\n");
  std::printf("all updates completed, zero violations: %s\n",
              clean ? "YES" : "NO");
  std::printf("%s\n", gate.verdict().c_str());
  return clean && gate.passed() ? 0 : 1;
}
