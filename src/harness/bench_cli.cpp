#include "harness/bench_cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace p4u::harness {

namespace {

/// Parses a full-string unsigned integer; false on garbage or overflow.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10) {
      return false;
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

bool parse_positive_int(const std::string& s, int& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v == 0 || v > 1'000'000) return false;
  out = static_cast<int>(v);
  return true;
}

/// Parses a full-string probability in [0, 1]; false on garbage.
bool parse_prob(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  out = v;
  return true;
}

/// A flag either consumes the next argv entry or carries "=value".
struct FlagValue {
  bool present = false;
  bool missing_value = false;
  std::string value;
};

FlagValue match_flag(const std::string& arg, const char* name, int& r,
                     int argc, char** argv) {
  FlagValue out;
  const std::string flag(name);
  if (arg == flag) {
    out.present = true;
    if (r + 1 >= argc) {
      out.missing_value = true;
    } else {
      out.value = argv[++r];
    }
    return out;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    out.present = true;
    out.value = arg.substr(flag.size() + 1);
    if (out.value.empty()) out.missing_value = true;
  }
  return out;
}

}  // namespace

int BenchCli::runs_or(int table_runs) const {
  if (runs) return *runs;
  if (smoke) return std::min(3, table_runs);
  return table_runs;
}

std::uint64_t BenchCli::seed_or(std::uint64_t table_seed) const {
  return seed ? *seed : table_seed;
}

std::string bench_cli_usage(const BenchCliSpec& spec) {
  std::string prog = spec.program.empty() ? "<bench>" : spec.program;
  std::string u = "usage: " + prog + " [--out <dir>]";
  if (spec.with_jobs) u += " [--jobs <N>]";
  if (spec.with_runs) u += " [--runs <N>] [--seed <S>]";
  if (spec.with_smoke) u += " [--smoke]";
  u += "\n";
  if (!spec.description.empty()) u += "  " + spec.description + "\n";
  u += "  --out <dir>   write a JSONL/CSV run report under <dir>\n";
  if (spec.with_jobs) {
    u += "  --jobs <N>    worker threads for seeded runs (default: all "
         "cores);\n                results are identical for every N\n";
  }
  if (spec.with_runs) {
    u += "  --runs <N>    override the per-spec run count\n";
    u += "  --seed <S>    override the per-spec base seed\n";
  }
  if (spec.with_smoke) {
    u += "  --smoke       quick pass: 3 runs per spec, no shape gating\n";
  }
  if (spec.with_faults) {
    u += "  --ctrl-drop <p>         drop each control message with prob p\n";
    u += "  --data-drop <p>         drop each data packet with prob p\n";
    u += "  --link-down <t:u-v:dur> down link u-v at t ms for dur ms "
         "(repeatable)\n";
  }
  if (spec.with_mc) {
    u += "  --strategy <seeded|explore>  event-ordering strategy\n";
    u += "  --replay <file>              re-execute a recorded schedule "
         "(forces --runs 1)\n";
    u += "  --max-depth <N>              bound the explorer's branch depth "
         "(explore only)\n";
  }
  if (spec.with_static_verify) {
    u += "  --static-verify              cross-check cells against the "
         "static plan verifier\n";
  }
  for (const std::string& p : spec.passthrough_prefixes) {
    u += "  " + p + "*  passed through\n";
  }
  return u;
}

BenchCliResult parse_bench_cli(int& argc, char** argv,
                               const BenchCliSpec& spec) {
  BenchCliResult out;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      continue;
    }
    if (auto v = match_flag(arg, "--out", r, argc, argv); v.present) {
      if (v.missing_value) {
        out.error = "--out requires a directory";
        return out;
      }
      out.cli.out_dir = v.value;
      continue;
    }
    if (spec.with_jobs) {
      if (auto v = match_flag(arg, "--jobs", r, argc, argv); v.present) {
        if (v.missing_value || !parse_positive_int(v.value, out.cli.jobs)) {
          out.error = "--jobs requires a positive integer";
          return out;
        }
        continue;
      }
    }
    if (spec.with_runs) {
      if (auto v = match_flag(arg, "--runs", r, argc, argv); v.present) {
        int runs = 0;
        if (v.missing_value || !parse_positive_int(v.value, runs)) {
          out.error = "--runs requires a positive integer";
          return out;
        }
        out.cli.runs = runs;
        continue;
      }
      if (auto v = match_flag(arg, "--seed", r, argc, argv); v.present) {
        std::uint64_t seed = 0;
        if (v.missing_value || !parse_u64(v.value, seed)) {
          out.error = "--seed requires a non-negative integer";
          return out;
        }
        out.cli.seed = seed;
        continue;
      }
    }
    if (spec.with_smoke && arg == "--smoke") {
      out.cli.smoke = true;
      continue;
    }
    if (spec.with_faults) {
      if (auto v = match_flag(arg, "--ctrl-drop", r, argc, argv); v.present) {
        if (v.missing_value ||
            !parse_prob(v.value, out.cli.fault_plan.model.control_drop_prob)) {
          out.error = "--ctrl-drop requires a probability in [0, 1]";
          return out;
        }
        continue;
      }
      if (auto v = match_flag(arg, "--data-drop", r, argc, argv); v.present) {
        if (v.missing_value ||
            !parse_prob(v.value, out.cli.fault_plan.model.data_drop_prob)) {
          out.error = "--data-drop requires a probability in [0, 1]";
          return out;
        }
        continue;
      }
      if (auto v = match_flag(arg, "--link-down", r, argc, argv); v.present) {
        std::string err;
        if (v.missing_value ||
            !faults::parse_link_down_spec(v.value, out.cli.fault_plan, &err)) {
          out.error = err.empty()
                          ? "--link-down requires a t:u-v:dur spec"
                          : err;
          return out;
        }
        continue;
      }
    }
    if (spec.with_mc) {
      if (auto v = match_flag(arg, "--strategy", r, argc, argv); v.present) {
        if (v.missing_value ||
            (v.value != "seeded" && v.value != "explore")) {
          out.error = "--strategy must be 'seeded' or 'explore'";
          return out;
        }
        out.cli.strategy = v.value;
        continue;
      }
      if (auto v = match_flag(arg, "--replay", r, argc, argv); v.present) {
        if (v.missing_value) {
          out.error = "--replay requires a schedule file";
          return out;
        }
        out.cli.replay_path = v.value;
        continue;
      }
      if (auto v = match_flag(arg, "--max-depth", r, argc, argv); v.present) {
        int depth = 0;
        if (v.missing_value || !parse_positive_int(v.value, depth)) {
          out.error = "--max-depth requires a positive integer";
          return out;
        }
        out.cli.max_depth = depth;
        continue;
      }
    }
    if (spec.with_static_verify && arg == "--static-verify") {
      out.cli.static_verify = true;
      continue;
    }
    const bool passthrough =
        std::any_of(spec.passthrough_prefixes.begin(),
                    spec.passthrough_prefixes.end(),
                    [&arg](const std::string& p) {
                      return arg.rfind(p, 0) == 0;
                    });
    if (passthrough) {
      argv[w++] = argv[r];
      continue;
    }
    out.error = "unknown argument '" + arg + "'";
    return out;
  }
  // Cross-flag conflicts: checked after the loop so the diagnostics do not
  // depend on argument order.
  if (!out.cli.replay_path.empty()) {
    if (!out.cli.strategy.empty()) {
      out.error = "--replay and --strategy are mutually exclusive: a replay "
                  "fixes the schedule";
      return out;
    }
    if (out.cli.runs && *out.cli.runs > 1) {
      out.error = "--replay re-executes one recorded schedule: --runs must "
                  "be 1";
      return out;
    }
  }
  if (out.cli.max_depth && out.cli.strategy != "explore") {
    out.error = "--max-depth requires --strategy explore";
    return out;
  }
  argc = w;
  return out;
}

BenchCli parse_bench_cli_or_exit(int& argc, char** argv,
                                 const BenchCliSpec& spec) {
  BenchCliSpec named = spec;
  if (named.program.empty() && argc > 0) named.program = argv[0];
  const BenchCliResult r = parse_bench_cli(argc, argv, named);
  if (r.help) {
    std::fputs(bench_cli_usage(named).c_str(), stdout);
    std::exit(0);
  }
  if (!r.error.empty()) {
    std::fprintf(stderr, "%s: %s\n%s", named.program.c_str(), r.error.c_str(),
                 bench_cli_usage(named).c_str());
    std::exit(2);
  }
  return r.cli;
}

}  // namespace p4u::harness
