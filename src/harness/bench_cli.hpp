// Shared command-line interface of the bench binaries and examples.
//
// Replaces the old ad-hoc obs::parse_out_dir: every flag is validated (a
// trailing `--out` with no value and any unknown flag are hard usage
// errors instead of silent drops), and all benches speak the same dialect:
//
//   --out <dir>   write a JSONL/CSV run report under <dir>
//   --jobs <N>    run seeded jobs on N worker threads (default: all cores)
//   --runs <N>    override each spec's run count
//   --seed <S>    override each spec's base seed
//   --smoke       quick end-to-end pass: 3 runs/spec, no shape gating
//
// Flags a binary does not support (spec.with_*) are rejected as unknown.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"

namespace p4u::harness {

/// Which flags a binary accepts, plus its usage header.
struct BenchCliSpec {
  std::string program;      // shown in usage; argv[0] used when empty
  std::string description;  // one-liner under the usage header
  bool with_jobs = true;
  bool with_runs = true;    // enables both --runs and --seed
  bool with_smoke = true;
  /// Enables the failure-domain flags: --ctrl-drop, --data-drop, and
  /// repeatable --link-down t:u-v:dur (all collected into cli.fault_plan).
  bool with_faults = false;
  /// Enables the model-checking flags: --strategy <seeded|explore>,
  /// --replay <schedule.json>, --max-depth <N>. Conflicting combinations
  /// (--replay with --strategy, --replay with --runs > 1, --max-depth
  /// without --strategy explore) are hard usage errors.
  bool with_mc = false;
  /// Enables --static-verify: cross-check every cell against the static
  /// update-plan verifier (DESIGN.md §12) and gate on verdict agreement.
  bool with_static_verify = false;
  /// Arguments starting with one of these prefixes are left in argv for a
  /// downstream parser (e.g. "--benchmark" for google-benchmark).
  std::vector<std::string> passthrough_prefixes;
};

struct BenchCli {
  std::string out_dir;               // empty = no report
  int jobs = 0;                      // 0 = every core
  std::optional<int> runs;           // --runs override
  std::optional<std::uint64_t> seed; // --seed override
  bool smoke = false;
  /// Fault knobs collected from --ctrl-drop / --data-drop / --link-down
  /// (with_faults only). Benches merge this into their TestBedParams.
  faults::FaultPlan fault_plan;
  /// Model-checking knobs (with_mc only). `strategy` is "seeded",
  /// "explore", or empty (the bench's default); `replay_path` names a
  /// recorded schedule to re-execute (mutually exclusive with --strategy
  /// and with --runs > 1); `max_depth` bounds the explorer's branch depth.
  std::string strategy;
  std::string replay_path;
  std::optional<int> max_depth;
  /// --static-verify (with_static_verify only): run the static verifier
  /// alongside the dynamic cells and fail on any verdict disagreement.
  bool static_verify = false;

  /// Run count for a spec whose table default is `table_runs`: an explicit
  /// --runs wins, then --smoke caps at 3, else the table value.
  [[nodiscard]] int runs_or(int table_runs) const;
  /// Base seed for a spec whose table default is `table_seed`.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t table_seed) const;
};

struct BenchCliResult {
  BenchCli cli;
  bool help = false;   // --help / -h was given
  std::string error;   // empty = parse succeeded
};

/// Renders the usage text for `spec`.
std::string bench_cli_usage(const BenchCliSpec& spec);

/// Parses and strips the shared flags from argv (compacting it in place,
/// argc updated). On success only argv[0] and passthrough arguments
/// remain. Never exits: errors (unknown flag, missing or malformed value,
/// stray positional argument) are reported in `error`.
BenchCliResult parse_bench_cli(int& argc, char** argv,
                               const BenchCliSpec& spec);

/// parse_bench_cli, with the usual main() behavior: on --help prints usage
/// and exits 0; on error prints the error plus usage to stderr and exits 2.
BenchCli parse_bench_cli_or_exit(int& argc, char** argv,
                                 const BenchCliSpec& spec);

}  // namespace p4u::harness
