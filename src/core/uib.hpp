// Update Information Base (§6, §8, Table 1): the per-switch register state
// P4Update keeps per flow. Register names mirror Table 1 exactly:
//
//   new_distance        D_n specified in P_n        (applied new state)
//   new_version         V_n specified in P_n
//   egress_port_updated egress port in P_n          (pending, from UIM)
//   old_distance        D_o specified in P_o
//   old_version         V_o specified in P_o
//   egress_port         egress port in P_o          (lives in the device's
//                                                    forwarding table)
//   flow_size           per-flow size bound
//   flow_priority       per-flow scheduler priority (§7.4)
//   t                   last update type (single/dual)
//   counter             hop counter (DL symmetry breaking)
//
// Semantics: (new_version, new_distance) describe the configuration the
// switch last *applied*; (old_version, old_distance) the one before — with
// old_distance being the *inherited* segment id after a dual-layer update
// (§3.2). The pending UIM (highest version received but not yet applied) is
// held alongside, which the prototype realizes as the *_updated registers.
#pragma once

#include <optional>

#include "net/flow_index.hpp"
#include "p4rt/packet.hpp"
#include "p4rt/register_array.hpp"

namespace p4u::core {

using p4rt::Distance;
using p4rt::FlowId;
using p4rt::UimHeader;
using p4rt::UpdateType;
using p4rt::Version;

/// Snapshot of one flow's applied state at one switch — the inputs Alg. 1
/// and Alg. 2 call V_n(v), D_n(v), V_o(v), D_o(v), C(v), T(v).
struct AppliedState {
  Version new_version = 0;       // V_n(v); 0 = no configuration ever applied
  Distance new_distance = p4rt::kNoDistance;  // D_n(v)
  Version old_version = 0;       // V_o(v)
  Distance old_distance = p4rt::kNoDistance;  // D_o(v), inherited under DL
  std::int64_t counter = 0;      // C(v)
  UpdateType last_type = UpdateType::kSingleLayer;  // T(v)
  bool ever_dual = false;        // T(v) == dual for the *last* update
};

/// Table-1-backed store. Each scalar lives in its own register array,
/// exactly like the P4 prototype — but flat: the flow id is interned once
/// into a dense handle (net::FlowIndex) and every register is a
/// FlatRegisterArray addressed by it, so a switch carrying 10^4..10^6 flows
/// pays one contiguous row per register instead of a hash node per access.
/// The index is shared with the P4UpdateSwitch's per-flow scratch pools.
class Uib {
 public:
  // ---- applied state ----
  [[nodiscard]] AppliedState applied(FlowId f) const;
  void write_applied(FlowId f, const AppliedState& s);

  // ---- pending UIM (highest version received) ----
  [[nodiscard]] const UimHeader* pending_uim(FlowId f) const;
  /// Stores `uim` if it is newer than the held one; returns true if stored.
  bool offer_uim(const UimHeader& uim);
  void drop_uim(FlowId f);

  // ---- per-flow scalars ----
  [[nodiscard]] double flow_size(FlowId f) const {
    return flow_size_.read(index_, f);
  }
  void set_flow_size(FlowId f, double s) { flow_size_.write(index_, f, s); }
  [[nodiscard]] bool high_priority(FlowId f) const {
    return flow_priority_.read(index_, f) != 0;
  }
  void set_high_priority(FlowId f, bool hi) {
    flow_priority_.write(index_, f, hi ? 1 : 0);
  }

  /// True if this switch has ever applied a configuration for `f`.
  [[nodiscard]] bool knows(FlowId f) const {
    return new_version_.read(index_, f) != 0;
  }

  /// The shared per-flow handle space. The owning switch addresses its own
  /// protocol scratch pools (stamps, watchdog generations, ...) by the same
  /// handles, so one interning covers every per-flow structure.
  [[nodiscard]] net::FlowIndex& flow_index() { return index_; }
  [[nodiscard]] const net::FlowIndex& flow_index() const { return index_; }

  /// Pending-UIM count (bounded by the live flow count; the reclaim
  /// regression pins that it returns to baseline after repeated batches).
  [[nodiscard]] std::size_t pending_count() const { return pending_count_; }

  /// Total register-array accesses across every Table-1 array, for the
  /// observability layer's per-switch uib.register_{reads,writes} counters.
  [[nodiscard]] std::uint64_t register_reads() const {
    return new_distance_.reads() + new_version_.reads() +
           old_distance_.reads() + old_version_.reads() + flow_size_.reads() +
           flow_priority_.reads() + t_.reads() + counter_.reads();
  }
  [[nodiscard]] std::uint64_t register_writes() const {
    return new_distance_.writes() + new_version_.writes() +
           old_distance_.writes() + old_version_.writes() +
           flow_size_.writes() + flow_priority_.writes() + t_.writes() +
           counter_.writes();
  }

 private:
  struct PendingRow {
    UimHeader uim;
    bool present = false;
  };

  net::FlowIndex index_;
  // Table 1 registers, flat over the shared index.
  p4rt::FlatRegisterArray<Distance> new_distance_{p4rt::kNoDistance};
  p4rt::FlatRegisterArray<Version> new_version_{0};
  p4rt::FlatRegisterArray<Distance> old_distance_{p4rt::kNoDistance};
  p4rt::FlatRegisterArray<Version> old_version_{0};
  p4rt::FlatRegisterArray<double> flow_size_{0.0};
  p4rt::FlatRegisterArray<std::uint8_t> flow_priority_{0};
  p4rt::FlatRegisterArray<std::uint8_t> t_{0};  // 0 = single/empty, 1 = dual
  p4rt::FlatRegisterArray<std::int64_t> counter_{0};
  // Pending UIM content (egress_port_updated + metadata).
  net::FlowPool<PendingRow> pending_;
  std::size_t pending_count_ = 0;
};

}  // namespace p4u::core
