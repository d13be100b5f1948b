// Churn campaign: steady-state request streams through the ticketed
// controller API (ROADMAP item 3).
//
// Every earlier campaign issued one batch at t=10ms and waited for the
// drain. This bench instead sustains a Poisson stream of flow add / remove
// / reroute requests — rolled offline from the seed, so all three systems
// replay the byte-identical load — through the admission queue (bounded
// in-flight, deterministic FIFO, per-flow coalescing) and reports, per
// system and fault row:
//
//   - updates/sec: settled requests per *virtual* second (deterministic
//     controller throughput, no wall clock in any report);
//   - completion tails: p50/p99/p999 of submit -> completion latency over
//     every completed reroute, pooled across the seeded runs (adds and
//     removes settle at submit and are left out), printed with their n
//     and as n/a where n < 10 / (1 - p);
//   - queue behaviour: admission queue/in-flight peaks, coalesced and
//     refused request counts;
//   - per-system counters: P4Update preflight verdicts and recovery
//     actions under the 5%-drop row.
//
// Gates: every request terminal in every run (liveness), zero
// loop/blackhole violations on the P4Update rows, and the --jobs 1 vs
// --jobs N campaign reports byte-identical (not run with one worker).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

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

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

struct ChurnTable {
  std::size_t pairs;
  std::size_t initial_flows;
  double arrivals_per_sec;
  sim::Duration duration;
  int runs;
};

constexpr ChurnTable kFull{64, 128, 100.0, sim::seconds(60), 8};
constexpr ChurnTable kSmoke{24, 48, 25.0, sim::seconds(8), 3};

/// One fault-intensity row; expands into a spec per system.
struct ChurnRow {
  const char* slug;
  double control_drop = 0.0;
};

constexpr ChurnRow kRows[] = {
    {"churn_ft8_clean", 0.0},
    {"churn_ft8_drop05", 0.05},
};

RunSpec spec_for(const ChurnRow& row, SystemKind kind, const ChurnTable& t,
                 const std::shared_ptr<const net::Graph>& graph,
                 const std::vector<net::NodeId>& edge,
                 const harness::BenchCli& cli) {
  RunSpec spec;
  spec.slug = std::string(row.slug) + "." + harness::to_string(kind) +
              ".updates_per_sec";
  spec.sample_unit = "req/s";
  spec.family = ScenarioFamily::kChurn;
  spec.graph = graph;
  spec.bed.system = kind;
  spec.churn.pairs = t.pairs;
  spec.churn.initial_flows = t.initial_flows;
  spec.churn.arrivals_per_sec = t.arrivals_per_sec;
  spec.churn.duration = t.duration;
  spec.churn.endpoints = edge;  // flows run between edge switches (§9.1)
  // The admission window: one in-flight update per flow (serializes
  // concurrent reroutes of the same flow for every system — Central keeps
  // one job per flow) and a bounded global window with coalescing, the
  // regime the request ledger exists to account for.
  spec.bed.admission.max_inflight_global = 32;
  spec.bed.admission.max_inflight_per_flow = 1;
  spec.bed.admission.coalesce = true;
  // P4Update counts (but does not enforce) static preflight verdicts, so
  // the capability accessor rows in BENCH_churn.json are live.
  spec.bed.static_preflight = true;
  if (row.control_drop > 0.0) {
    spec.bed.fault_plan.model.control_drop_prob = row.control_drop;
    spec.bed.recovery.enabled = true;
    spec.bed.enable_retrigger = true;
    spec.bed.p4u_uim_watchdog = sim::milliseconds(500);
    spec.bed.p4u_wait_timeout = sim::milliseconds(500);
  }
  spec.runs = cli.runs_or(t.runs);
  spec.base_seed = cli.seed_or(12000);
  return spec;
}

/// Largest observation of one histogram family (0 when absent): the
/// per-run queue peaks land one observation per seeded run.
double hist_max(const obs::MetricsRegistry& m, const std::string& name) {
  for (const auto& row : m.histograms()) {
    if (row.name == name && row.value != nullptr && row.value->count > 0) {
      return row.value->max;
    }
  }
  return 0.0;
}

/// Sum of the request-ledger counter for one terminal state across kinds.
std::uint64_t requests_in_state(const obs::MetricsRegistry& m,
                                const char* state) {
  std::uint64_t total = 0;
  for (const auto& row : m.counters()) {
    if (row.name != "ctrl.request") continue;
    for (const auto& [k, v] : row.labels) {
      if (k == "state" && v == state) total += row.value;
    }
  }
  return total;
}

bool is_p4update_spec(const SpecResult& sr) {
  return sr.slug.find(".P4Update.") != std::string::npos;
}

/// The p-th percentile of the pooled latencies as "%.4f", or `na` when
/// the pool is too small to support it.
std::string tail(const sim::Samples& s, double p, const char* na) {
  if (!s.supports(p)) return na;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", s.percentile(p));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec cli_spec;
  cli_spec.program = "churn";
  cli_spec.description =
      "Steady-state churn campaign on a fat-tree(8): a Poisson add/remove/"
      "reroute stream through the admission queue for all three systems; "
      "reports updates/sec and completion tails, gates on liveness and "
      "byte-identical --jobs 1 vs --jobs N reports.";
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, cli_spec);

  const ChurnTable& table = cli.smoke ? kSmoke : kFull;
  net::FatTree ft = net::fattree_topology(8);
  net::set_uniform_capacity(ft.graph, 100.0);
  const std::vector<net::NodeId> edge = ft.edge;
  const auto graph = std::make_shared<const net::Graph>(std::move(ft.graph));

  harness::Campaign campaign;
  for (const ChurnRow& row : kRows) {
    for (const SystemKind kind : kSystems) {
      campaign.add(spec_for(row, kind, table, graph, edge, cli));
    }
  }
  std::printf("Churn campaign: fat-tree(8), %llu pairs, %llu initial flows, "
              "%.0f req/s for %.0f virtual seconds, %d seeded runs/spec\n",
              static_cast<unsigned long long>(table.pairs),
              static_cast<unsigned long long>(table.initial_flows),
              table.arrivals_per_sec, sim::to_ms(table.duration) / 1000.0,
              campaign.specs().front().runs);

  const std::vector<std::pair<std::string, std::string>> meta = {
      {"campaign", "churn"},
      {"topology", "fat-tree(8)"},
      {"arrivals_per_sec", std::to_string(table.arrivals_per_sec)}};
  const harness::JobsGate gate =
      harness::run_jobs_gate(campaign, cli.jobs, cli.out_dir, "churn", meta);
  const std::vector<SpecResult>& serial = gate.results;

  // Per-spec verdicts + the BENCH_churn.json trajectory artifact.
  bool all_terminal = true;
  bool p4u_clean = true;
  if (!cli.out_dir.empty()) std::filesystem::create_directories(cli.out_dir);
  const std::string json_path =
      (cli.out_dir.empty() ? std::string{} : cli.out_dir + "/") +
      "BENCH_churn.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"churn\",\n  \"mode\": \"%s\",\n",
                 cli.smoke ? "smoke" : "full");
    std::fprintf(f, "  \"topology\": \"fat-tree(8)\",\n");
    std::fprintf(f, "  \"arrivals_per_sec\": %.1f,\n", table.arrivals_per_sec);
    std::fprintf(f, "  \"jobs_reports_identical\": %s,\n", gate.json());
    std::fprintf(f, "  \"specs\": [\n");
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SpecResult& sr = serial[i];
    const auto& r = sr.result;
    const obs::MetricsRegistry& m = r.metrics;
    const bool terminal = r.incomplete_runs == 0;
    all_terminal = all_terminal && terminal;
    if (is_p4update_spec(sr)) {
      p4u_clean = p4u_clean && r.violations.loops == 0 &&
                  r.violations.blackholes == 0;
    }
    const double ups = r.update_times_ms.count() > 0
                           ? r.update_times_ms.mean()
                           : 0.0;
    const sim::Samples& lat = r.reroute_latency_ms;
    std::printf(
        "%-42s %8.1f req/s  n %6zu  p50 %s  p99 %s  p999 %s ms  "
        "peak q=%.0f/i=%.0f  coalesced %llu  %s\n",
        sr.slug.c_str(), ups, lat.count(), tail(lat, 50.0, "n/a").c_str(),
        tail(lat, 99.0, "n/a").c_str(), tail(lat, 99.9, "n/a").c_str(),
        hist_max(m, "churn.queue_peak"), hist_max(m, "churn.inflight_peak"),
        static_cast<unsigned long long>(m.counter_total("churn.coalesced")),
        terminal ? "all-terminal" : "INCOMPLETE");
    if (f != nullptr) {
      std::fprintf(f, "    {\"slug\": \"%s\",\n", sr.slug.c_str());
      std::fprintf(f, "     \"updates_per_sec_mean\": %.3f,\n", ups);
      std::fprintf(f, "     \"latency_n\": %zu,\n", lat.count());
      std::fprintf(f, "     \"latency_p50_ms\": %s,\n",
                   tail(lat, 50.0, "null").c_str());
      std::fprintf(f, "     \"latency_p99_ms\": %s,\n",
                   tail(lat, 99.0, "null").c_str());
      std::fprintf(f, "     \"latency_p999_ms\": %s,\n",
                   tail(lat, 99.9, "null").c_str());
      std::fprintf(f, "     \"queue_peak\": %.0f,\n",
                   hist_max(m, "churn.queue_peak"));
      std::fprintf(f, "     \"inflight_peak\": %.0f,\n",
                   hist_max(m, "churn.inflight_peak"));
      std::fprintf(
          f, "     \"dispatched\": %llu, \"coalesced\": %llu,\n",
          static_cast<unsigned long long>(m.counter_total("churn.dispatched")),
          static_cast<unsigned long long>(m.counter_total("churn.coalesced")));
      std::fprintf(
          f,
          "     \"superseded\": %llu, \"rolled_back\": %llu, "
          "\"abandoned\": %llu,\n",
          static_cast<unsigned long long>(requests_in_state(m, "superseded")),
          static_cast<unsigned long long>(requests_in_state(m, "rolled-back")),
          static_cast<unsigned long long>(requests_in_state(m, "abandoned")));
      std::fprintf(
          f,
          "     \"preflight\": {\"safe\": %llu, \"unsafe\": %llu, "
          "\"unknown\": %llu, \"skipped\": %llu},\n",
          static_cast<unsigned long long>(
              m.counter_total("ctrl.preflight_safe")),
          static_cast<unsigned long long>(
              m.counter_total("ctrl.preflight_unsafe")),
          static_cast<unsigned long long>(
              m.counter_total("ctrl.preflight_unknown")),
          static_cast<unsigned long long>(
              m.counter_total("ctrl.preflight_skipped")));
      std::fprintf(
          f,
          "     \"recovery\": {\"resends\": %llu, \"repairs\": %llu, "
          "\"retriggers\": %llu},\n",
          static_cast<unsigned long long>(
              m.counter_total("ctrl.recovery_resends")),
          static_cast<unsigned long long>(
              m.counter_total("ctrl.recovery_repairs")),
          static_cast<unsigned long long>(m.counter_total("ctrl.retriggers")));
      std::fprintf(
          f,
          "     \"incomplete_runs\": %llu, \"loops\": %llu, "
          "\"blackholes\": %llu}%s\n",
          static_cast<unsigned long long>(r.incomplete_runs),
          static_cast<unsigned long long>(r.violations.loops),
          static_cast<unsigned long long>(r.violations.blackholes),
          i + 1 < serial.size() ? "," : "");
    }
  }
  if (f != nullptr) {
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("churn trajectory: %s\n", json_path.c_str());
  }

  std::printf("\n---- verdict ----\n");
  std::printf("every request terminal in every run: %s\n",
              all_terminal ? "YES" : "NO");
  std::printf("P4Update rows free of loops/blackholes: %s\n",
              p4u_clean ? "YES" : "NO");
  std::printf("%s\n", gate.verdict().c_str());
  return all_terminal && p4u_clean && gate.passed() ? 0 : 1;
}
