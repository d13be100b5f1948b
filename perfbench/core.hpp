// perfbench core: the pieces of the benchmark that its self-test pins.
//
//   - exact pooled tails: nearest-rank quantiles over sorted samples, with
//     the "too few samples" rule (n < 10 / (1 - q) prints as n/a);
//   - FNV-1a digests of a request ledger and of rolled workloads, so a
//     host-only change can show that its simulated results are unchanged;
//   - the three workloads' parameters and the reroute roll, a pure function
//     of (graph, seed) like harness::make_churn_workload.
//
// Nothing here reads a clock; perfbench.cpp owns all timing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/flow_db.hpp"
#include "harness/churn.hpp"
#include "net/fattree.hpp"
#include "net/flow.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "sim/random.hpp"

namespace p4u::perfbench {

// ---------------------------------------------------------------------------
// Exact tails.

/// A quantile in basis points (p50 = 5000, p99 = 9900), so ranks are exact
/// integer arithmetic rather than floating-point products.
using Quantile = std::uint32_t;
inline constexpr Quantile kP50 = 5000;
inline constexpr Quantile kP99 = 9900;

/// Smallest sample count that supports quantile `q`: ten samples at or
/// beyond it, i.e. n >= 10 / (1 - q), rounded up.
inline std::size_t min_samples(Quantile q) {
  const std::size_t beyond = 10000 - q;  // (1 - q) in basis points
  return (10 * 10000 + beyond - 1) / beyond;
}

struct Tail {
  double value = 0.0;
  std::size_t n = 0;
  bool supported = false;  // false: print "n/a", never a number
};

/// Nearest-rank quantile of `samples` (sorted ascending): the smallest
/// sample such that at least q of all samples are <= it.
inline Tail nearest_rank(const std::vector<double>& sorted, Quantile q) {
  Tail t;
  t.n = sorted.size();
  t.supported = t.n > 0 && t.n >= min_samples(q);
  if (t.n == 0) return t;
  std::size_t rank = (static_cast<std::size_t>(q) * t.n + 9999) / 10000;
  rank = std::clamp<std::size_t>(rank, 1, t.n);
  t.value = sorted[rank - 1];
  return t;
}

// ---------------------------------------------------------------------------
// Digests.

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

inline std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of a request ledger: id, kind, state, version and the submitted,
/// dispatched and finished times of every record, in ledger order.
inline std::uint64_t ledger_digest(
    const std::vector<control::RequestRecord>& ledger) {
  Fnv1a h;
  for (const control::RequestRecord& r : ledger) {
    h.add(r.id);
    h.add(static_cast<std::uint64_t>(r.kind));
    h.add(static_cast<std::uint64_t>(r.state));
    h.add(r.version);
    h.add_signed(r.submitted_at);
    h.add_signed(r.dispatched_at);
    h.add_signed(r.finished_at);
  }
  return h.value();
}

inline void add_path(Fnv1a& h, const net::Path& p) {
  h.add(p.size());
  for (const net::NodeId n : p) h.add(static_cast<std::uint64_t>(n));
}

/// Digest of a rolled churn workload: pairs with their paths, flow slots,
/// and the timed request stream.
inline std::uint64_t workload_digest(const harness::ChurnWorkload& wl) {
  Fnv1a h;
  for (const auto& pp : wl.pairs) {
    h.add(pp.src);
    h.add(pp.dst);
    h.add(pp.paths.size());
    for (const net::Path& p : pp.paths) add_path(h, p);
  }
  for (const auto& slot : wl.flows) {
    h.add(slot.flow.id);
    h.add(slot.pair);
    h.add(slot.initial ? 1 : 0);
  }
  for (const harness::ChurnEvent& ev : wl.events) {
    h.add_signed(ev.at);
    h.add(static_cast<std::uint64_t>(ev.kind));
    h.add(ev.flow_slot);
    h.add(ev.path_choice);
  }
  return h.value();
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Shape { kChurn, kReroute };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  int fattree_k;
  double control_drop;  // 0 = fault-free
  int seeds;            // seeds per unit of work, pooled
};

/// The benchmark's workloads. `seeds` fixes the simulated work of one unit:
/// every repetition of a unit replays the same seeds, so virtual metrics and
/// ledger digests repeat exactly and only host time varies.
inline constexpr WorkloadSpec kWorkloads[] = {
    {"churn_ft8", Shape::kChurn, 8, 0.0, 8},
    {"churn_ft8_drop05", Shape::kChurn, 8, 0.05, 8},
    {"reroute_ft16", Shape::kReroute, 16, 0.0, 1},
};

inline const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The i-th seed of a unit rolled from the command-line seed.
inline std::uint64_t unit_seed(std::uint64_t seed, int i) {
  return seed * 64 + static_cast<std::uint64_t>(i);
}

/// The bench/churn full table: 64 edge pairs, 128 initial flows, a Poisson
/// stream of 100 requests/s for 60 virtual seconds (70/15/15 reroute/add/
/// remove).
inline harness::ChurnParams churn_params(const std::vector<net::NodeId>& edge) {
  harness::ChurnParams p;
  p.pairs = 64;
  p.initial_flows = 128;
  p.arrivals_per_sec = 100.0;
  p.duration = sim::seconds(60);
  p.endpoints = edge;
  return p;
}

// The reroute workload's shape.
inline constexpr std::size_t kReroutePairs = 256;
inline constexpr std::size_t kResidentFlows = 32768;  // never updated, unwatched
inline constexpr std::size_t kReroutedFlows = 2048;   // watched, each moved once
/// Poisson rate of the reroutes, from t = 10 ms. Well below every
/// controller's service rate (Central's is about 87 updates/s), so update
/// times measure the systems rather than one controller queue, whose tail
/// would swing with each seed's arrival bursts.
inline constexpr double kRerouteArrivalsPerSec = 25.0;

/// A rolled reroute workload: pure data. Flow i rides pair i % pairs;
/// flows [0, rerouted) are the watched prefix, flow i moved at
/// `reroute_at[i]`.
struct RerouteWorkload {
  struct Pair {
    net::NodeId src = 0;
    net::NodeId dst = 0;
    net::Path old_path;  // shortest by hops
    net::Path new_path;  // second-shortest
  };
  std::vector<Pair> pairs;
  std::vector<net::Flow> flows;
  std::size_t rerouted = 0;
  std::vector<sim::Time> reroute_at;
};

/// Rolls the reroute workload from (graph, endpoints, seed) alone. Pairs
/// without a second path are re-rolled (bounded), like the scale campaign;
/// reroute times come from their own stream.
inline RerouteWorkload roll_reroute(const net::Graph& g,
                                    const std::vector<net::NodeId>& endpoints,
                                    std::uint64_t seed) {
  RerouteWorkload wl;
  sim::Rng pair_rng(seed ^ 0x9E5B0E7Eull);
  for (std::size_t attempts = 0;
       wl.pairs.size() < kReroutePairs && attempts < kReroutePairs * 8;
       ++attempts) {
    const net::NodeId src = endpoints[pair_rng.uniform(endpoints.size())];
    const net::NodeId dst = endpoints[pair_rng.uniform(endpoints.size())];
    if (src == dst) continue;
    auto ksp = net::k_shortest_paths(g, src, dst, 2, net::Metric::kHops);
    if (ksp.size() < 2) continue;
    wl.pairs.push_back({src, dst, std::move(ksp[0]), std::move(ksp[1])});
  }
  if (wl.pairs.empty()) {
    throw std::logic_error("roll_reroute: no endpoint pair has two paths");
  }
  const std::size_t total = kResidentFlows + kReroutedFlows;
  wl.flows.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const RerouteWorkload::Pair& pp = wl.pairs[i % wl.pairs.size()];
    std::uint64_t state = i + 0x7E5B0E7E5ull;
    net::Flow f;
    f.id = sim::splitmix64(state);
    f.ingress = pp.src;
    f.egress = pp.dst;
    f.size = 1.0;
    wl.flows.push_back(f);
  }
  wl.rerouted = kReroutedFlows;
  sim::Rng at_rng(seed ^ 0x9E5B0A7ull);
  sim::Time t = sim::milliseconds(10);
  for (std::size_t i = 0; i < wl.rerouted; ++i) {
    t += sim::exponential_ms(at_rng, 1000.0 / kRerouteArrivalsPerSec);
    wl.reroute_at.push_back(t);
  }
  return wl;
}

inline std::uint64_t workload_digest(const RerouteWorkload& wl) {
  Fnv1a h;
  for (const auto& pp : wl.pairs) {
    h.add(pp.src);
    h.add(pp.dst);
    add_path(h, pp.old_path);
    add_path(h, pp.new_path);
  }
  for (const net::Flow& f : wl.flows) h.add(f.id);
  h.add(wl.rerouted);
  for (const sim::Time at : wl.reroute_at) h.add_signed(at);
  return h.value();
}

}  // namespace p4u::perfbench
