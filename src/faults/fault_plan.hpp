// Failure-domain model: what can go wrong in the network, declared up
// front.
//
// The paper's §5 verification model assumes dropped and reordered update
// packets; a production-scale reproduction must also survive link-down and
// switch-crash events *during* an in-flight update. A FaultPlan declares
// both: the probabilistic section (FaultModel — per-hop drop coins and
// reorder jitter) and an ordered schedule of typed events the fabric
// executes deterministically from the event queue. Scenarios build a plan,
// hand it to the TestBed, and never mutate fault state mid-run — which is
// what keeps seeded runs a pure function of (plan, seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "sim/time.hpp"

namespace p4u::faults {

/// Random fault injection on switch-to-switch hops (§5: dropped update
/// packets, update packet reordering). Targeted faults are FaultEvents.
/// Controller <-> switch messages (UIMs, commands, UFMs, acks) travel the
/// ControlChannel, not a fabric link, and are never dropped.
struct FaultModel {
  double control_drop_prob = 0.0;    // control packets on fabric links (UNMs,
                                     // ez-Segway segment notifies)
  double data_drop_prob = 0.0;       // applies to DataHeader packets
  sim::Duration reorder_jitter = 0;  // extra uniform [0, jitter] per hop
};

enum class FaultKind : std::uint8_t {
  kLinkDown,       // both directions of (a, b) blackhole at-send
  kLinkUp,         // link (a, b) restored
  kSwitchCrash,    // node drops enqueued packets, wipes registers/rules,
                   // rejects installs until restarted
  kSwitchRestart,  // node serves again (state stays wiped)
  kSetModel,       // swap the probabilistic FaultModel from this instant on
};

const char* to_string(FaultKind k);

/// One scheduled fault. `a`/`b` name link endpoints for link events; `a`
/// names the node for switch events; `model` carries the new probabilistic
/// section for kSetModel.
struct FaultEvent {
  sim::Time at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  net::NodeId a = net::kNoNode;
  net::NodeId b = net::kNoNode;
  FaultModel model;
};

/// Declarative fault schedule: the initial probabilistic model plus typed
/// events in time order (ties keep insertion order, matching the
/// simulator's (at, seq) tie-break). Building a plan executes nothing.
class FaultPlan {
 public:
  /// Probabilistic section in effect from t=0 (kSetModel events replace it).
  FaultModel model;

  FaultPlan& link_down(sim::Time at, net::NodeId a, net::NodeId b);
  FaultPlan& link_up(sim::Time at, net::NodeId a, net::NodeId b);
  /// Down at `at`, back up at `at + outage`.
  FaultPlan& link_down_for(sim::Time at, net::NodeId a, net::NodeId b,
                           sim::Duration outage);
  FaultPlan& switch_crash(sim::Time at, net::NodeId n);
  FaultPlan& switch_restart(sim::Time at, net::NodeId n);
  /// Crash at `at`, restart at `at + outage`.
  FaultPlan& switch_crash_for(sim::Time at, net::NodeId n,
                              sim::Duration outage);
  FaultPlan& set_model(sim::Time at, FaultModel m);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return events_.empty() && model.control_drop_prob == 0.0 &&
           model.data_drop_prob == 0.0 && model.reorder_jitter == 0;
  }

  /// Throws std::invalid_argument when an event names a node outside `g`, a
  /// link `g` does not have, a negative time, or an out-of-range
  /// probability. The TestBed validates before wiring the fabric so a typo
  /// in a scenario fails loudly instead of silently never firing.
  void validate(const net::Graph& g) const;

 private:
  FaultPlan& push(FaultEvent e);
  std::vector<FaultEvent> events_;
};

/// Parses the bench CLI's `--link-down t:u-v:dur` spec (milliseconds :
/// endpoint pair : milliseconds). Returns true and appends to `plan` on
/// success; false with the flag's error message style otherwise.
bool parse_link_down_spec(const std::string& spec, FaultPlan& plan,
                          std::string* error);

}  // namespace p4u::faults
