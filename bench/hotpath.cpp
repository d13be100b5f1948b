// Hot-path microbenchmarks: event dispatch, fabric forwarding, and a
// fat-tree campaign job, reported as events per second of wall time.
//
// `dispatch.inlinefn` runs the live sim::Simulator (InlineFn inline storage,
// slab event pool with a free list, 4-ary heap of pool indices) on a
// self-rescheduling workload, so the rate isolates the event core. Its
// speedup over the std::function + std::priority_queue core it replaced is
// recorded in CHANGES.md rather than re-measured here.
//
// Numbers are a trajectory artifact, not a gate: the bench emits
// BENCH_hotpath.json (plus the usual --out run report) and CI uploads it so
// regressions show up as a curve, without flaky wall-clock thresholds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/scenario.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "obs/run_report.hpp"
#include "p4rt/fabric.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace p4u;

// p4u-detlint: allow(wall-clock) throughput microbenchmark: wall time is the measurand; results go to the BENCH_hotpath.json trajectory artifact, never into a campaign report
using BenchClock = std::chrono::steady_clock;

// Workload: `chains` independent self-rescheduling handlers, each carrying a
// fabric-handler-sized payload (a Packet-and-context capture is 152 bytes).
// Delays come from a per-chain LCG, so the heap sees interleaved, shuffled
// expiries rather than FIFO order. The chain count sets the steady-state
// pending-event population, because queue depth is where scheduler
// data-structure choices show up.

// Sized so the chain_step capture below ({Simulator&, rng, remaining, Payload})
// lands at 152 bytes — exactly what the fabric's deliver handler carries
// (sizeof(Packet) == 136 plus this/port/node context).
struct Payload {
  unsigned char bytes[128] = {};
};

void chain_step(sim::Simulator& sim, std::uint64_t rng,
                std::uint32_t remaining, Payload p) {
  if (remaining == 0) return;
  rng = rng * 6364136223846793005ull + 1442695040888963407ull;
  const auto delay = static_cast<sim::Duration>((rng >> 33) & 0xFFFFu);
  sim.schedule_in(delay, [&sim, rng, remaining, p]() mutable {
    p.bytes[remaining % sizeof(p.bytes)] ^=
        static_cast<unsigned char>(remaining);
    chain_step(sim, rng, remaining - 1, p);
  });
}

double dispatch_events_per_sec(std::uint32_t chains, std::uint32_t steps) {
  sim::Simulator sim;
  for (std::uint32_t c = 0; c < chains; ++c) {
    chain_step(sim, 0x9E3779B97F4A7C15ull + c, steps, Payload{});
  }
  const auto t0 = BenchClock::now();
  const std::size_t n = sim.run();
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  return static_cast<double>(n) / dt.count();
}

/// Data packets through a rule chain on a K=4 fat-tree: stresses the
/// service queue, the move-through forward path, and the cached fabric
/// counters together.
double fabric_forward_events_per_sec(std::uint32_t packets) {
  sim::Simulator sim;
  net::FatTree ft = net::fattree_topology(4);
  p4rt::Fabric fabric(sim, ft.graph, p4rt::SwitchParams{}, /*seed=*/1);
  fabric.trace().set_enabled(false);

  const net::NodeId src = ft.edge.front();
  const net::NodeId dst = ft.edge.back();
  const auto path = net::shortest_path(ft.graph, src, dst);
  const net::FlowId flow = 77;
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    fabric.sw((*path)[i])
        .set_rule_now(flow, ft.graph.port_of((*path)[i], (*path)[i + 1]));
  }
  fabric.sw(path->back()).set_rule_now(flow, p4rt::SwitchDevice::kLocalPort);

  sim.reserve(packets * 2);
  for (std::uint32_t i = 0; i < packets; ++i) {
    fabric.inject(src, p4rt::Packet{p4rt::DataHeader{flow, i, 64}}, -1);
  }
  const auto t0 = BenchClock::now();
  const std::size_t n = sim.run();
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  return static_cast<double>(n) / dt.count();
}

/// One pinned single-flow fat-tree update per seed (the golden-trace
/// scenario), `runs` seeds spread over `jobs` workers: end-to-end campaign
/// events/sec including controller, verification, and metrics.
double fattree_campaign_events_per_sec(int runs, int jobs) {
  const auto t0 = BenchClock::now();
  const std::vector<std::uint64_t> executed = harness::parallel_map_indexed(
      static_cast<std::size_t>(runs), jobs, [](std::size_t i) {
        net::FatTree ft = net::fattree_topology(4);
        net::set_uniform_capacity(ft.graph, 100.0);
        harness::TestBedParams params;
        params.seed = 1 + static_cast<std::uint64_t>(i);
        params.switch_params.straggler_mean_ms = 100.0;
        params.trace_enabled = false;
        params.measure_prep_wallclock = false;
        harness::TestBed bed(ft.graph, params);
        bed.simulator().reserve(ft.graph.node_count() * 96 + 512);

        const net::NodeId src = ft.edge.front();
        const net::NodeId dst = ft.edge.back();
        const auto old_p = net::shortest_path(ft.graph, src, dst);
        const auto new_p =
            net::shortest_path_avoiding(ft.graph, src, dst, {(*old_p)[1]});
        net::Flow f;
        f.ingress = src;
        f.egress = dst;
        f.id = net::flow_id_of(src, dst);
        f.size = 1.0;
        bed.deploy_flow(f, *old_p);
        bed.schedule_update_at(sim::milliseconds(10), f.id, *new_p);
        bed.run(sim::seconds(300));
        return bed.simulator().executed();
      });
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  std::uint64_t total = 0;
  for (std::uint64_t e : executed) total += e;
  return static_cast<double>(total) / dt.count();
}

struct CaseResult {
  std::string name;
  double events_per_sec = 0.0;
};

/// Best-of-`reps` throughput (standard for wall-clock rate benchmarks: the
/// fastest rep is the least-perturbed one).
template <typename F>
double best_of(int reps, F&& f) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) best = std::max(best, f());
  return best;
}

void write_bench_json(const std::string& out_dir,
                      const std::vector<CaseResult>& results, bool smoke) {
  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  const std::string path =
      (out_dir.empty() ? std::string{} : out_dir + "/") + "BENCH_hotpath.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hotpath: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"hotpath\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"unit\": \"events/sec\",\n  \"cases\": {\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.1f%s\n",
                 obs::json_escape(results[i].name).c_str(),
                 results[i].events_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec spec;
  spec.program = "hotpath";
  spec.description =
      "Hot-path microbenchmarks: event dispatch, fabric forwarding, "
      "fat-tree campaign throughput.";
  spec.with_runs = true;
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, spec);

  // Smoke trims steps (samples), not chains: the pending-event depth is
  // what exercises the scheduler, so both modes run the campaign-scale
  // population.
  const std::uint32_t chains = 4096;
  const std::uint32_t steps = cli.smoke ? 128 : 250;
  const std::uint32_t packets = cli.smoke ? 2000 : 50000;
  const int campaign_runs = cli.runs_or(cli.smoke ? 2 : 8);
  const int reps = cli.smoke ? 3 : 7;

  std::vector<CaseResult> results;
  results.push_back({"dispatch.inlinefn", best_of(reps, [&] {
                       return dispatch_events_per_sec(chains, steps);
                     })});
  results.push_back({"fabric.forward", best_of(reps, [&] {
                       return fabric_forward_events_per_sec(packets);
                     })});
  results.push_back({"fattree.campaign", fattree_campaign_events_per_sec(
                                             campaign_runs, cli.jobs)});

  std::printf("%-20s %15s\n", "case", "events/sec");
  for (const CaseResult& r : results) {
    std::printf("%-20s %15.0f\n", r.name.c_str(), r.events_per_sec);
  }

  write_bench_json(cli.out_dir, results, cli.smoke);
  return 0;
}
