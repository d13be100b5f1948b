#include "harness/churn.hpp"

#include <algorithm>
#include <stdexcept>

namespace p4u::harness {

namespace {

/// Synthetic unique flow ids, like run_scale_job: splitmix64 is a bijection
/// on uint64, so sequential slots never collide (salted away from scale's).
net::FlowId synthetic_id(std::uint64_t slot) {
  std::uint64_t state = slot + 0xC0A1FF0Dull;
  return sim::splitmix64(state);
}

}  // namespace

ChurnWorkload make_churn_workload(const net::Graph& g, std::uint64_t seed,
                                  const ChurnParams& params) {
  ChurnWorkload wl;

  std::vector<net::NodeId> endpoints = params.endpoints;
  if (endpoints.empty()) {
    endpoints.reserve(g.node_count());
    for (std::size_t n = 0; n < g.node_count(); ++n) {
      endpoints.push_back(static_cast<net::NodeId>(n));
    }
  }

  // Pair pool: bounded rejection like run_scale_job — pairs without a
  // second path cannot be rerouted and are re-rolled.
  sim::Rng pair_rng(seed ^ 0xC0A1B41Full);
  const std::size_t k = std::max<std::size_t>(params.paths_per_pair, 2);
  for (int attempts = 0;
       wl.pairs.size() < params.pairs &&
       attempts < static_cast<int>(params.pairs) * 8;
       ++attempts) {
    const net::NodeId src = endpoints[pair_rng.uniform(endpoints.size())];
    const net::NodeId dst = endpoints[pair_rng.uniform(endpoints.size())];
    if (src == dst) continue;
    auto ksp = net::k_shortest_paths(g, src, dst, k, net::Metric::kHops);
    if (ksp.size() < 2) continue;
    wl.pairs.push_back({src, dst, std::move(ksp)});
  }
  if (wl.pairs.empty()) {
    throw std::logic_error("make_churn_workload: no endpoint pair has two "
                           "distinct paths");
  }

  // Initial population, dealt round-robin over the pairs.
  const auto make_slot = [&wl](std::size_t pair, bool initial) {
    ChurnWorkload::FlowSlot slot;
    slot.pair = pair;
    slot.initial = initial;
    slot.flow.id = synthetic_id(wl.flows.size());
    slot.flow.ingress = wl.pairs[pair].src;
    slot.flow.egress = wl.pairs[pair].dst;
    slot.flow.size = 1.0;
    wl.flows.push_back(slot);
    return wl.flows.size() - 1;
  };
  std::vector<std::size_t> active;
  active.reserve(params.initial_flows);
  for (std::size_t i = 0; i < params.initial_flows; ++i) {
    active.push_back(make_slot(i % wl.pairs.size(), /*initial=*/true));
  }

  // The event stream: Poisson arrivals (exponential gaps), each classified
  // by the normalized kind mix. Generation tracks the active slot set so a
  // remove never targets a retired flow and an add creates a fresh slot;
  // per-slot `last_choice` avoids degenerate same-path reroutes where the
  // pair offers an alternative.
  const double w_total =
      std::max(params.w_add + params.w_remove + params.w_reroute, 1e-9);
  const double mean_gap_ms =
      1000.0 / std::max(params.arrivals_per_sec, 1e-9);
  sim::Rng ev_rng(seed ^ 0xC0A1EF7ull);
  std::vector<std::size_t> last_choice(wl.flows.size(), 0);
  sim::Time t = params.start;
  const sim::Time end = params.start + params.duration;
  for (;;) {
    t += sim::exponential_ms(ev_rng, mean_gap_ms);
    if (t >= end) break;
    const double roll = ev_rng.uniform01() * w_total;
    ChurnEvent ev;
    ev.at = t;
    if (roll < params.w_add || active.empty()) {
      ev.kind = control::RequestKind::kAdd;
      ev.flow_slot = make_slot(ev_rng.uniform(wl.pairs.size()), false);
      last_choice.push_back(0);
      active.push_back(ev.flow_slot);
    } else if (roll < params.w_add + params.w_remove) {
      ev.kind = control::RequestKind::kRemove;
      const std::size_t pick = ev_rng.uniform(active.size());
      ev.flow_slot = active[pick];
      active[pick] = active.back();
      active.pop_back();
    } else {
      ev.kind = control::RequestKind::kReroute;
      ev.flow_slot = active[ev_rng.uniform(active.size())];
      const ChurnWorkload::FlowSlot& slot = wl.flows[ev.flow_slot];
      const std::size_t n_paths = wl.pairs[slot.pair].paths.size();
      std::size_t choice = ev_rng.uniform(n_paths);
      if (choice == last_choice[ev.flow_slot] && n_paths > 1) {
        choice = (choice + 1) % n_paths;
      }
      ev.path_choice = choice;
      last_choice[ev.flow_slot] = choice;
    }
    wl.events.push_back(ev);
  }
  return wl;
}

void install_churn(TestBed& bed, const ChurnWorkload& wl) {
  for (const ChurnWorkload::FlowSlot& slot : wl.flows) {
    if (slot.initial) {
      bed.deploy_flow(slot.flow, wl.pairs[slot.pair].paths[0]);
    }
  }
  sim::Simulator& sim = bed.simulator();
  TestBed* bedp = &bed;
  for (const ChurnEvent& ev : wl.events) {
    const ChurnWorkload::FlowSlot& slot = wl.flows[ev.flow_slot];
    const sim::EventTag tag{-1, sim::EventClass::kScenario, slot.flow.id};
    switch (ev.kind) {
      case control::RequestKind::kAdd:
        // Bring-up is instant in the data plane (bootstrap writes, no
        // protocol), so an add settles at submit time; the ledger records
        // it so throughput and liveness still account for it.
        sim.schedule_at(
            ev.at, tag,
            [bedp, flow = slot.flow,
             path = wl.pairs[slot.pair].paths[0]] {
              bedp->deploy_flow(flow, path);
              bedp->system().note_instant(flow.id,
                                          control::RequestKind::kAdd);
            });
        break;
      case control::RequestKind::kRemove:
        // Teardown is likewise instant; the flow stays on its last path in
        // the data plane (retired flows receive no further requests).
        sim.schedule_at(ev.at, tag, [bedp, id = slot.flow.id] {
          bedp->system().note_instant(id, control::RequestKind::kRemove);
        });
        break;
      case control::RequestKind::kReroute:
        sim.schedule_at(
            ev.at, tag,
            [bedp, id = slot.flow.id,
             path = wl.pairs[slot.pair].paths[ev.path_choice]] {
              bedp->system().submit(id, control::RequestKind::kReroute, path);
            });
        break;
    }
  }
}

}  // namespace p4u::harness
