// perfbench: one unit of a benchmark workload, timed end to end and, with
// --trace 1, split by layer.
//
// A unit is the workload's fixed simulated work: every seed of the unit,
// for each of P4Update, ez-Segway and Central, on one thread. The
// benchmark drives the library only through its public API
// (make_churn_workload / roll_reroute, TestBed, reserve_events,
// deploy_flow, install_churn / schedule_update_at, run, collect_metrics)
// and records spans around those calls; nothing inside the program is
// instrumented. run.py repeats units for the measurement window and
// aggregates them; see README.md for the metrics.
//
// Usage:
//   perfbench --workload NAME --system p4update|ezsegway|central --seed N
//             --out DIR [--trace 0|1] [--spans FILE]
//
// One process runs one system's share of the unit; run.py runs the three
// systems in turn, each in its own process, so that peak RSS is one
// system's and not the allocator's leftovers from the system before it.
//
// Prints one JSON object on stdout. Exit status: 0 when every correctness
// check held, 1 on a violation or error, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <chrono>

// p4u-detlint: allow(wall-clock) benchmark timing: host time is the measurand; it is printed by the benchmark and never feeds simulation state or a campaign report
using Clock = std::chrono::steady_clock;

#include "core.hpp"
#include "harness/scenario.hpp"
#include "net/topologies.hpp"
#include "obs/run_report.hpp"

namespace {

using namespace p4u;
using harness::SystemKind;
using perfbench::Tail;

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};
constexpr sim::Time kRunUntil = sim::seconds(300);

const char* slug(SystemKind k) {
  switch (k) {
    case SystemKind::kP4Update: return "p4update";
    case SystemKind::kEzSegway: return "ezsegway";
    case SystemKind::kCentral: return "central";
  }
  return "?";
}

double since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// One field of /proc/self/status in MiB (VmHWM, VmRSS), 0 if unavailable.
double proc_status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream is(line.substr(prefix.size()));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at exit.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Opens a span starting at `t0`; returns its index (-1 when off).
  int open(const char* name, const std::string& id, int parent,
           Clock::time_point t0) {
    if (!on_) return -1;
    spans_.push_back({name, id, since(epoch_, t0), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int span, Clock::time_point t1) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = since(epoch_, t1);
  }

  /// One JSON object per line: name, id, start, end (s), parent index.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "\"start\": %.9f, \"end\": %.9f, \"parent\": %d}", s.start,
                    s.end, s.parent);
      out << "{\"span\": " << i << ", \"name\": \"" << s.name
          << "\", \"id\": \"" << s.id << "\", " << buf << "\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::string id;  // workload/system/seed
    double start;
    double end;
    int parent;
  };
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Times `body` into `acc` and, when tracing, records it as a span.
template <typename Body>
void timed(Tracer& tr, const char* name, const std::string& id, int parent,
           double& acc, Body&& body) {
  const auto t0 = Clock::now();
  const int span = tr.open(name, id, parent, t0);
  body();
  const auto t1 = Clock::now();
  acc += since(t0, t1);
  tr.close(span, t1);
}

// ---------------------------------------------------------------------------
// Per-system accumulation over the unit's seeds.

/// Counts rule installs, split at run(): bring-up installs during deploy,
/// then the installs the invariant monitor checks. The monitor checks an
/// install only when its flow is watched, and a flow added mid-run becomes
/// watched right after its bring-up, so each added flow's first
/// `bring_up` installs (one per hop of its deploy path) are not checks.
class InstallCounter final : public p4rt::FabricObserver {
 public:
  struct Watched {
    net::FlowId flow;
    std::uint32_t bring_up;  // installs before the monitor watches it
  };
  explicit InstallCounter(std::vector<Watched> watched)
      : watched_(std::move(watched)) {
    std::sort(watched_.begin(), watched_.end(),
              [](const Watched& a, const Watched& b) { return a.flow < b.flow; });
  }
  void on_rule_installed(net::NodeId node, net::FlowId flow,
                         std::int32_t port) override {
    (void)node;
    (void)port;
    if (!running) {
      ++deploy_installs;
      return;
    }
    const auto it = std::lower_bound(
        watched_.begin(), watched_.end(), flow,
        [](const Watched& w, net::FlowId f) { return w.flow < f; });
    if (it == watched_.end() || it->flow != flow) return;
    if (it->bring_up > 0) {
      --it->bring_up;
    } else {
      ++checks;
    }
  }
  [[nodiscard]] const std::vector<Watched>& watched() const {
    return watched_;
  }

  bool running = false;
  std::uint64_t deploy_installs = 0;
  std::uint64_t checks = 0;

 private:
  std::vector<Watched> watched_;
};

/// One system's totals over the unit's seeds.
struct Totals {
  // Host time (s).
  double wall_s = 0, setup_s = 0;
  double workload_s = 0, testbed_s = 0, reserve_s = 0, deploy_s = 0;
  double run_s = 0, harvest_s = 0, report_s = 0, probe_s = 0;
  std::uint64_t probe_flows = 0;
  double rss_after_setup_mb = 0;
  // Simulator.
  std::uint64_t reserved_slots = 0, pending_peak = 0, events = 0;
  // Counters read from the bed.
  std::uint64_t deploy_installs = 0, monitor_checks = 0;
  std::uint64_t fabric_tx = 0, fabric_drop = 0, rule_installs = 0;
  std::uint64_t msgs_in = 0, msgs_out = 0;
  std::uint64_t resends = 0, repairs = 0, retriggers = 0, gaveup = 0;
  std::uint64_t preflight_safe = 0, preflight_unsafe = 0, preflight_unknown = 0;
  std::uint64_t queue_peak = 0, inflight_peak = 0, coalesced = 0;
  // Ledger.
  std::uint64_t submitted = 0, superseded = 0, failed = 0, nonterminal = 0;
  std::vector<double> update_ms, queue_wait_ms, settle_ms;
  std::vector<std::pair<std::string, std::string>> digests;  // (key, hex)
  // Run-wide.
  std::vector<std::string> errors;
  obs::MetricsRegistry merged;
};

harness::TestBedParams bed_params(const perfbench::WorkloadSpec& w,
                                  SystemKind kind, std::uint64_t seed) {
  harness::TestBedParams p;
  p.system = kind;
  p.seed = seed;
  p.trace_enabled = false;
  p.measure_prep_wallclock = false;
  if (w.shape == perfbench::Shape::kChurn) {
    // bench/churn's full-table bed: a bounded admission window with
    // per-flow serialization and coalescing; P4Update counts preflight
    // verdicts without enforcing them.
    p.admission.max_inflight_global = 32;
    p.admission.max_inflight_per_flow = 1;
    p.admission.coalesce = true;
    p.static_preflight = true;
    if (w.control_drop > 0.0) {
      p.fault_plan.model.control_drop_prob = w.control_drop;
      p.recovery.enabled = true;
      p.enable_retrigger = true;
      p.p4u_uim_watchdog = sim::milliseconds(500);
      p.p4u_wait_timeout = sim::milliseconds(500);
    }
  } else {
    // The fat-tree controller latencies of the paper's §9.1 (per-switch
    // truncated normal), as bench/fig7 and bench/par use on fat-trees.
    p.ctrl_latency_model = harness::CtrlLatencyModel::kFattreeNormal;
  }
  return p;
}

/// Reads the ledger: latency samples, terminal accounting, the digest.
void read_ledger(const control::FlowDb& db, Totals& st) {
  for (const control::RequestRecord& r : db.requests()) {
    ++st.submitted;
    if (!control::is_terminal(r.state)) {
      ++st.nonterminal;
      continue;
    }
    if (r.state == control::RequestState::kRolledBack ||
        r.state == control::RequestState::kAbandoned) {
      ++st.failed;
    }
    if (r.state == control::RequestState::kSuperseded) ++st.superseded;
    // Adds and removes settle at submit; only reroutes carry latency.
    if (r.kind != control::RequestKind::kReroute) continue;
    const bool dispatched = r.dispatched_at != 0;
    if (dispatched) {
      st.queue_wait_ms.push_back(sim::to_ms(r.dispatched_at - r.submitted_at));
    }
    if (r.state == control::RequestState::kCompleted) {
      st.update_ms.push_back(sim::to_ms(r.finished_at - r.submitted_at));
      st.settle_ms.push_back(sim::to_ms(r.finished_at - r.dispatched_at));
    }
  }
}

void read_counters(harness::TestBed& bed, Totals& st) {
  const obs::MetricsRegistry& m = bed.metrics();
  st.fabric_tx += m.counter_total("fabric.tx");
  st.fabric_drop += m.counter_total("fabric.drop");
  st.rule_installs += m.counter_total("switch.rule_installs");
  st.msgs_in += m.counter_total("ctrl.msgs_in");
  st.msgs_out += m.counter_total("ctrl.msgs_out");
  st.resends += m.counter_total("ctrl.recovery_resends");
  st.repairs += m.counter_total("ctrl.recovery_repairs");
  st.retriggers += m.counter_total("ctrl.retriggers");
  st.gaveup += m.counter_total("ctrl.recovery_gaveup");
  const harness::PreflightCounters pf = bed.system().preflight_counters();
  st.preflight_safe += pf.safe;
  st.preflight_unsafe += pf.unsafe;
  st.preflight_unknown += pf.unknown;
  control::AdmissionQueue& q = bed.system().admission();
  st.queue_peak = std::max<std::uint64_t>(st.queue_peak, q.queued_peak());
  st.inflight_peak = std::max<std::uint64_t>(st.inflight_peak, q.inflight_peak());
  st.coalesced += q.coalesced_total();
  st.pending_peak =
      std::max<std::uint64_t>(st.pending_peak, bed.simulator().pending_peak());
  st.events += bed.simulator().executed();
}

/// One (system, seed) bed, end to end. Everything between the roll and the
/// harvest, plus teardown, counts toward wall_s; roll through deploy is
/// setup_s.
void run_bed(const perfbench::WorkloadSpec& w, const net::FatTree& ft,
             SystemKind kind, std::uint64_t seed, Tracer& tr, int unit_span,
             Totals& st) {
  const std::string id =
      std::string(w.name) + "/" + slug(kind) + "/" + std::to_string(seed);
  const auto t_bed = Clock::now();
  const int bed_span = tr.open("bed", id, unit_span, t_bed);

  harness::ChurnWorkload churn;
  perfbench::RerouteWorkload reroute;
  timed(tr, "harness.workload", id, bed_span, st.workload_s, [&] {
    if (w.shape == perfbench::Shape::kChurn) {
      churn = harness::make_churn_workload(ft.graph, seed,
                                           perfbench::churn_params(ft.edge));
    } else {
      reroute = perfbench::roll_reroute(ft.graph, ft.edge, seed);
    }
  });

  harness::TestBedParams params = bed_params(w, kind, seed);
  if (w.shape == perfbench::Shape::kReroute) {
    // The scale campaign's capacity hints for a large resident population.
    params.expected_flows = reroute.flows.size();
    params.expected_flows_per_switch =
        reroute.flows.size() * 12 / ft.graph.node_count();
  }
  std::unique_ptr<harness::TestBed> bed;
  timed(tr, "harness.testbed", id, bed_span, st.testbed_s,
        [&] { bed = std::make_unique<harness::TestBed>(ft.graph, params); });

  // Traced runs count installs with a benchmark-owned observer; it watches
  // what the invariant monitor watches.
  std::unique_ptr<InstallCounter> installs;
  p4rt::ObserverHandle installs_handle;
  if (tr.on()) {
    std::vector<InstallCounter::Watched> watched;
    if (w.shape == perfbench::Shape::kChurn) {
      for (const auto& slot : churn.flows) {
        const auto hops = static_cast<std::uint32_t>(
            churn.pairs[slot.pair].paths[0].size());
        watched.push_back({slot.flow.id, slot.initial ? 0 : hops});
      }
    } else {
      for (std::size_t i = 0; i < reroute.rerouted; ++i) {
        watched.push_back({reroute.flows[i].id, 0});
      }
    }
    installs = std::make_unique<InstallCounter>(std::move(watched));
    installs_handle = bed->fabric().subscribe(installs.get());
  }

  // Event-pool sizing as the campaign jobs do it.
  const std::size_t slots =
      w.shape == perfbench::Shape::kChurn
          ? ft.graph.node_count() * 64 + churn.events.size() * 256 + 1024
          : ft.graph.node_count() * 64 + reroute.rerouted * 192 + 512;
  timed(tr, "sim.reserve", id, bed_span, st.reserve_s,
        [&] { bed->reserve_events(slots); });
  st.reserved_slots = std::max<std::uint64_t>(st.reserved_slots, slots);

  timed(tr, "harness.deploy", id, bed_span, st.deploy_s, [&] {
    if (w.shape == perfbench::Shape::kChurn) {
      harness::install_churn(*bed, churn);
      return;
    }
    for (std::size_t i = 0; i < reroute.flows.size(); ++i) {
      const net::Flow& f = reroute.flows[i];
      const auto& pp = reroute.pairs[i % reroute.pairs.size()];
      const bool rerouted = i < reroute.rerouted;
      bed->deploy_flow(f, pp.old_path, /*watch=*/rerouted);
      if (rerouted) {
        bed->schedule_update_at(reroute.reroute_at[i], f.id, pp.new_path);
      }
    }
  });
  const double setup = since(t_bed, Clock::now());
  if (tr.on()) {
    st.rss_after_setup_mb =
        std::max(st.rss_after_setup_mb, proc_status_mb("VmRSS"));
    installs->running = true;
  }

  timed(tr, "sim.run", id, bed_span, st.run_s, [&] { bed->run(kRunUntil); });

  timed(tr, "obs.harvest", id, bed_span, st.harvest_s, [&] {
    bed->collect_metrics();
    st.merged.merge_from(bed->metrics());
  });
  const auto t_harvest_end = Clock::now();
  double wall = since(t_bed, t_harvest_end);

  // Benchmark bookkeeping, outside wall_s: correctness, ledger, counters.
  const control::FlowDb& db = bed->flow_db();
  const std::size_t nonterminal_before = st.nonterminal;
  const std::size_t failed_before = st.failed;
  read_ledger(db, st);
  read_counters(*bed, st);
  st.digests.emplace_back(
      std::string(slug(kind)) + "." + std::to_string(seed),
      perfbench::hex64(perfbench::ledger_digest(db.requests())));
  if (st.nonterminal != nonterminal_before) {
    st.errors.push_back(id + ": " +
                        std::to_string(st.nonterminal - nonterminal_before) +
                        " requests never reached a terminal state");
  }
  if (w.control_drop == 0.0 && st.failed != failed_before) {
    st.errors.push_back(id + ": requests failed on a fault-free workload");
  }
  const harness::InvariantMonitor::Violations v = bed->monitor().violations();
  if (kind == SystemKind::kP4Update && (v.loops != 0 || v.blackholes != 0)) {
    st.errors.push_back(id + ": P4Update loops=" + std::to_string(v.loops) +
                        " blackholes=" + std::to_string(v.blackholes));
  }

  if (tr.on()) {
    st.deploy_installs += installs->deploy_installs;
    st.monitor_checks += installs->checks;
    // The monitor's const predicates, timed per watched flow on the final
    // state (violations were harvested above, so this cannot move them).
    const auto t0 = Clock::now();
    const int span = tr.open("monitor.probe", id, bed_span, t0);
    std::uint64_t positives = 0;
    for (const InstallCounter::Watched& f : installs->watched()) {
      positives += bed->monitor().has_loop(f.flow) ? 1 : 0;
      positives += bed->monitor().has_blackhole(f.flow) ? 1 : 0;
    }
    const auto t1 = Clock::now();
    tr.close(span, t1);
    st.probe_s += since(t0, t1);
    st.probe_flows += installs->watched().size();
    if (kind == SystemKind::kP4Update && positives != 0) {
      st.errors.push_back(id + ": final state has a loop or blackhole");
    }
    installs_handle.reset();
  }

  double teardown = 0.0;
  timed(tr, "harness.teardown", id, bed_span, teardown, [&] { bed.reset(); });
  wall += teardown;
  tr.close(bed_span, Clock::now());

  st.setup_s += setup;
  st.wall_s += wall;
}

// ---------------------------------------------------------------------------
// Output.

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    field(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + obs::json_escape(v) + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    field(key, json);
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + obs::json_escape(key) + "\": " + value;
  }
  std::string body_;
};

Tail tail_of(std::vector<double>& v, perfbench::Quantile q) {
  std::sort(v.begin(), v.end());
  return perfbench::nearest_rank(v, q);
}

void put_tail(JsonObject& tails, const std::string& name, const Tail& t) {
  JsonObject o;
  o.num("value", t.value);
  o.count("n", t.n);
  o.raw("supported", t.supported ? "true" : "false");
  tails.raw(name, o.text());
}

struct Args {
  std::string workload;
  SystemKind system = SystemKind::kP4Update;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string out_dir;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --system "
               "p4update|ezsegway|central --seed N --out DIR [--trace 0|1] "
               "[--spans FILE]\nworkloads:",
               why);
  for (const perfbench::WorkloadSpec& w : perfbench::kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_system = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--system") {
      const auto* k = std::find_if(
          std::begin(kSystems), std::end(kSystems),
          [&](SystemKind kind) { return val == slug(kind); });
      if (k == std::end(kSystems)) usage(("unknown system " + val).c_str());
      a.system = *k;
      have_system = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (flag == "--out") {
      a.out_dir = val;
    } else if (flag == "--spans") {
      a.spans_path = val;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_system || !have_seed || a.out_dir.empty()) {
    usage("--workload, --system, --seed and --out are required");
  }
  return a;
}

int run(const Args& args) {
  const perfbench::WorkloadSpec* w = perfbench::find_workload(args.workload);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  const std::string s = slug(args.system);

  net::FatTree ft = net::fattree_topology(w->fattree_k);
  net::set_uniform_capacity(ft.graph, 100.0);

  Tracer tr(args.trace);
  Totals st;
  const auto t_unit = Clock::now();
  const int unit_span = tr.open("unit", args.workload + "/" + s, -1, t_unit);
  for (int i = 0; i < w->seeds; ++i) {
    run_bed(*w, ft, args.system, perfbench::unit_seed(args.seed, i), tr,
            unit_span, st);
  }
  timed(tr, "obs.report", args.workload + "/" + s, unit_span, st.report_s,
        [&] {
          obs::RunReport rep(args.out_dir,
                             "perfbench_" + args.workload + "_" + s);
          rep.set_meta("workload", args.workload);
          rep.set_meta("system", s);
          rep.set_meta("seed", args.seed);
          rep.add_metrics(st.merged);
          rep.write();
        });
  st.wall_s += st.report_s;
  tr.close(unit_span, Clock::now());
  const double peak_rss_mb = proc_status_mb("VmHWM");

  JsonObject tails;
  const Tail p50 = tail_of(st.update_ms, perfbench::kP50);
  const Tail p99 = tail_of(st.update_ms, perfbench::kP99);
  put_tail(tails, s + ".update_p50_ms", p50);
  put_tail(tails, s + ".update_p99_ms", p99);
  if (!p50.supported || !p99.supported) {
    st.errors.push_back(s + ": too few completed reroutes for p99 (n=" +
                        std::to_string(st.update_ms.size()) + ")");
  }

  JsonObject layers;
  if (tr.on()) {
    put_tail(tails, "control.queue_wait_p50_ms." + s,
             tail_of(st.queue_wait_ms, perfbench::kP50));
    put_tail(tails, "control.queue_wait_p99_ms." + s,
             tail_of(st.queue_wait_ms, perfbench::kP99));
    put_tail(tails, "ctrl.settle_p50_ms." + s,
             tail_of(st.settle_ms, perfbench::kP50));
    put_tail(tails, "ctrl.settle_p99_ms." + s,
             tail_of(st.settle_ms, perfbench::kP99));
    const double check_us =
        st.probe_flows > 0
            ? st.probe_s * 1e6 / static_cast<double>(st.probe_flows)
            : 0.0;
    layers.num("harness.testbed_s." + s, st.testbed_s);
    layers.num("harness.deploy_s." + s, st.deploy_s);
    layers.count("harness.deploy_installs." + s, st.deploy_installs);
    layers.num("harness.rss_after_setup_mb." + s, st.rss_after_setup_mb);
    layers.num("sim.reserve_s." + s, st.reserve_s);
    layers.count("sim.reserved_slots." + s, st.reserved_slots);
    layers.count("sim.pending_peak." + s, st.pending_peak);
    layers.num("sim.reserve_ratio." + s,
               st.pending_peak > 0 ? static_cast<double>(st.reserved_slots) /
                                         static_cast<double>(st.pending_peak)
                                   : 0.0);
    layers.num("sim.run_s." + s, st.run_s);
    layers.count("sim.events." + s, st.events);
    layers.num("sim.events_per_s." + s,
               st.run_s > 0 ? static_cast<double>(st.events) / st.run_s : 0.0);
    layers.count("p4rt.fabric_tx." + s, st.fabric_tx);
    layers.count("p4rt.fabric_drop." + s, st.fabric_drop);
    layers.count("p4rt.rule_installs." + s, st.rule_installs);
    layers.count("p4rt.ctrl_msgs_in." + s, st.msgs_in);
    layers.count("p4rt.ctrl_msgs_out." + s, st.msgs_out);
    layers.count("monitor.checks." + s, st.monitor_checks);
    layers.num("monitor.check_us." + s, check_us);
    layers.num("monitor.est_s." + s,
               static_cast<double>(st.monitor_checks) * check_us * 1e-6);
    layers.count("control.queue_peak." + s, st.queue_peak);
    layers.count("control.inflight_peak." + s, st.inflight_peak);
    layers.count("control.coalesced." + s, st.coalesced);
    layers.num("control.superseded_share." + s,
               st.submitted > 0 ? static_cast<double>(st.superseded) /
                                      static_cast<double>(st.submitted)
                                : 0.0);
    layers.count("faults.resends." + s, st.resends);
    layers.count("faults.repairs." + s, st.repairs);
    layers.count("faults.retriggers." + s, st.retriggers);
    layers.count("faults.gaveup." + s, st.gaveup);
    // Workload-wide layers; run.py adds them up over the three systems.
    layers.num("harness.workload_s", st.workload_s);
    layers.count("verify.preflight_safe", st.preflight_safe);
    layers.count("verify.preflight_unsafe", st.preflight_unsafe);
    layers.count("verify.preflight_unknown", st.preflight_unknown);
    layers.num("obs.harvest_s", st.harvest_s);
    layers.num("obs.report_s", st.report_s);
    if (!args.spans_path.empty()) tr.write(args.spans_path);
  }

  JsonObject digests;
  for (const auto& [key, hex] : st.digests) digests.str(key, hex);
  std::string errors = "[";
  for (std::size_t i = 0; i < st.errors.size(); ++i) {
    errors += (i > 0 ? ", \"" : "\"") + obs::json_escape(st.errors[i]) + "\"";
  }
  errors += "]";

  JsonObject out;
  out.str("workload", args.workload);
  out.str("system", s);
  out.count("seed", args.seed);
  out.count("trace", args.trace ? 1 : 0);
  out.raw("correct", st.errors.empty() ? "true" : "false");
  out.raw("errors", errors);
  out.count("requests", st.submitted);
  out.count("failed", st.failed + st.nonterminal);
  out.num("wall_s", st.wall_s);
  out.num("setup_s", st.setup_s);
  out.num("peak_rss_mb", peak_rss_mb);
  out.raw("digests", digests.text());
  out.raw("tails", tails.text());
  out.raw("layers", layers.text());
  std::printf("%s\n", out.text().c_str());
  return st.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
