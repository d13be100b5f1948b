// Campaign: declarative experiment specs over the simulator.
//
// Every figure in the paper's §9 evaluation is a matrix of (topology ×
// scenario family × system × seeds). A RunSpec names one cell of that
// matrix; a Campaign expands its specs into independent seeded jobs (one
// TestBed, Rng, InvariantMonitor, and MetricsRegistry per job), runs them
// — serially or across a thread pool (harness/parallel_runner.hpp) — and
// merges per-spec results in spec-then-seed order. Because jobs share
// nothing mutable and the merge order is fixed, the merged result is
// byte-identical whatever the job count: `--jobs 8` is the same experiment
// as `--jobs 1`, just ~8x sooner.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/churn.hpp"
#include "harness/scenario.hpp"
#include "harness/traffic.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace p4u::harness {

/// Aggregated outcome of one spec's seeded runs.
struct ExperimentResult {
  sim::Samples update_times_ms;  // per run: the measured completion time
  /// kChurn only: every run's completed-reroute latencies, pooled in
  /// seed order (RunOutcome::reroute_latency_ms). Empty for the other
  /// families.
  sim::Samples reroute_latency_ms;
  std::uint64_t alarms = 0;
  InvariantMonitor::Violations violations;
  std::uint64_t incomplete_runs = 0;
  /// Merged across every seeded run (counters add, histograms merge).
  obs::MetricsRegistry metrics;
};

/// The scenario family a RunSpec belongs to; picks the per-seed job body.
enum class ScenarioFamily {
  kSingleFlow,        // §9.2: one flow old -> new; sample = update duration
  kMultiFlow,         // §9.2: gravity batch; sample = last flow's completion
  kFig2Inconsistency, // §4.1 demo; sample = packets delivered at the egress
  kFig4FastForward,   // §4.2 demo; sample = U3 completion time
  kChaos,             // gravity batch + per-seed link-down & switch-crash
                      // mid-update; sample = updates settling kCompleted
  kScale,             // million-flow flat-state campaign: scale_flows
                      // resident flows over pinned edge pairs, a prefix of
                      // scale_update_flows rerouted in one batch; sample =
                      // the batch's last completion time
  kChurn,             // steady-state churn: a Poisson stream of add /
                      // remove / reroute requests through the admission
                      // queue; sample = settled requests per virtual
                      // second, tails from the pooled reroute_latency_ms
};

const char* to_string(ScenarioFamily f);

/// One cell of an evaluation matrix: everything a seeded run needs, plus
/// how many seeds to expand it into. Declarative — building a RunSpec
/// executes nothing.
struct RunSpec {
  /// Series name for reports, e.g. "fig7a.P4Update.update_time_ms".
  std::string slug;
  ScenarioFamily family = ScenarioFamily::kSingleFlow;
  /// Shared read-only across jobs; each TestBed copies it. Unused by the
  /// demo families (they build their own §4 topologies).
  std::shared_ptr<const net::Graph> graph;
  // Single-flow knobs.
  net::Path old_path;
  net::Path new_path;
  // Multi-flow knobs.
  TrafficParams traffic;
  // Chaos knobs (kChaos only): each seeded run draws one link outage and
  // one switch crash — element and instant chosen from a fault-only rng
  // stream inside [chaos_from, chaos_to] — and appends them to
  // `bed.fault_plan`. Both outages heal after `chaos_outage`.
  sim::Time chaos_from = sim::milliseconds(20);
  sim::Time chaos_to = sim::milliseconds(150);
  sim::Duration chaos_outage = sim::seconds(2);
  // Scale knobs (kScale only). The run deploys `scale_flows` resident
  // flows with synthetic unique ids (splitmix64 of the flow index —
  // bijective, so a million flows never collide) distributed round-robin
  // over up to `scale_pairs` pinned edge-switch (src, dst) pairs; the
  // first `scale_update_flows` of them are rerouted old -> 2nd-shortest
  // in one batch. Keeping the distinct pair set small bounds the k-paths
  // precompute while the per-flow state still scales with scale_flows.
  std::size_t scale_flows = 100000;
  std::size_t scale_update_flows = 1000;
  std::size_t scale_pairs = 256;
  /// Candidate flow endpoints (e.g. the fat-tree's edge switches); pairs
  /// are drawn from here. Empty = every node is a candidate.
  std::vector<net::NodeId> scale_endpoints;
  // Churn knobs (kChurn only): the offline-rolled request stream; see
  // harness/churn.hpp. `bed.admission` bounds the in-flight window.
  ChurnParams churn;
  /// System under test, latency model, fault knobs, congestion mode, ...
  /// (`bed.seed` is overwritten per run with base_seed + run index).
  TestBedParams bed;
  /// Optional per-run event-ordering strategy (e.g. a SeededStrategy for
  /// A/B-testing the strategy path, or a ReplayStrategy for re-running a
  /// recorded schedule). Called once per seeded job with that job's seed;
  /// the job owns the returned strategy for its bed's lifetime. Leave
  /// empty for the simulator's historical fast path. Note: the §4 demo
  /// families build their own beds and ignore this hook.
  std::function<std::unique_ptr<sim::ScheduleStrategy>(std::uint64_t)>
      strategy_factory;
  int runs = 30;
  std::uint64_t base_seed = 1000;
  std::string sample_unit = "ms";
};

/// Outcome of a single seeded run (one expanded job).
struct RunOutcome {
  std::optional<double> sample;  // absent = the run did not complete
  /// kChurn only: submit -> completion latency of every reroute the
  /// ledger completed, in ledger order. Adds and removes settle at submit
  /// and superseded, rolled-back or abandoned requests never complete, so
  /// none of them is an update time.
  std::vector<double> reroute_latency_ms;
  std::uint64_t alarms = 0;
  InvariantMonitor::Violations violations;
  obs::MetricsRegistry metrics;
};

/// Executes one seeded run of `spec` (seed = base_seed + run_index).
/// Thread-safe for concurrent calls with distinct run indices: the job
/// owns its whole simulation stack.
RunOutcome execute_run(const RunSpec& spec, int run_index);

/// One spec's merged outcome, in the campaign's spec order.
struct SpecResult {
  std::string slug;
  std::string sample_unit;
  ExperimentResult result;
};

class Campaign {
 public:
  /// Appends a spec; returns it for fluent tweaks.
  RunSpec& add(RunSpec spec);

  [[nodiscard]] const std::vector<RunSpec>& specs() const { return specs_; }
  /// Total number of seeded jobs the campaign expands into.
  [[nodiscard]] std::size_t total_runs() const;

  /// Expands every spec into seeded jobs, executes them on up to `jobs`
  /// workers (<= 0: every core), and merges outcomes in spec-then-seed
  /// order. The merged results are byte-identical for every job count.
  [[nodiscard]] std::vector<SpecResult> run(int jobs = 1) const;

 private:
  std::vector<RunSpec> specs_;
};

/// Convenience used by every bench: builds a RunReport named `run_name`
/// under `out_dir` carrying each spec's merged metrics and sample series
/// (named by slug), plus the given meta entries. Returns the JSONL path,
/// or an empty string when out_dir is empty.
std::string write_campaign_report(
    const std::string& out_dir, const std::string& run_name,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::vector<SpecResult>& results);

/// Creates a new directory `<base>/<prefix>_XXXXXX` whose suffix no other
/// process holds (mkdtemp) and returns its path; throws std::runtime_error
/// when it cannot. Concurrent runs on one host never share it.
[[nodiscard]] std::string make_unique_dir(const std::string& base,
                                          const std::string& prefix);

/// Outcome of run_jobs_gate.
struct JobsGate {
  std::vector<SpecResult> results;  // the one-worker merge
  int jobs = 1;                     // worker count of the second run
  bool ran = false;                 // false: one worker, nothing compared
  bool identical = false;           // the two reports match byte for byte
  // Empty when the reports were temporary and removed (run_jobs_gate).
  std::string serial_report;        // <root>/jobs1/<run_name>.jsonl
  std::string parallel_report;      // <root>/jobs<N>/...; empty if !ran

  [[nodiscard]] bool passed() const { return !ran || identical; }
  /// The bench's verdict line: "... byte-identical: YES" (or NO), or
  /// "... not run (one worker)".
  [[nodiscard]] std::string verdict() const;
  /// "true", "false" or "null", for a BENCH_*.json artifact.
  [[nodiscard]] const char* json() const;
};

/// The --jobs determinism gate of the campaign benches: runs `campaign`
/// on one worker, writes its report under `<report_root>/jobs1`, and —
/// when `jobs` asks for more than one worker (<= 0: the default, 4) —
/// runs it again on `jobs` workers, writes `<report_root>/jobs<N>` and
/// byte-compares the two reports. With one worker the campaign runs once
/// (single-threaded, as a profiler wants it) and the gate is "not run",
/// never a report compared with itself. An empty `report_root` writes
/// into a new directory of this process's own under the system temp
/// directory (make_unique_dir) and removes it before returning, unless the
/// gate failed; the removed reports' paths read empty. Prints one line
/// naming the reports.
JobsGate run_jobs_gate(
    const Campaign& campaign, int jobs, std::string report_root,
    const std::string& run_name,
    const std::vector<std::pair<std::string, std::string>>& meta);

}  // namespace p4u::harness
