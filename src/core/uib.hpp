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
//
// Storage: the P4 prototype keeps one register array per Table-1 register.
// Here a flow's registers are one row (Uib::Registers) in one pool over the
// UIB's own flow index, so bringing a flow up at a switch grows one row, not
// eight arrays. The access counters still count per register, as the
// prototype's arrays would: applied() is seven reads (T(v) is read twice),
// write_applied() six writes, bring_up() seven, and each scalar read or
// write one; reads of a flow the switch never saw count the same. The
// per-switch uib.register_{reads,writes} report counters export these
// totals.
#pragma once

#include <cstdint>
#include <optional>

#include "net/flow_index.hpp"
#include "p4rt/packet.hpp"

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

/// Table-1-backed store: the flow id is interned once into a dense handle
/// (net::FlowIndex), which addresses the flow's register row. The index is
/// shared with the P4UpdateSwitch's per-flow scratch pools, and it is the
/// switch's own: the registers outlive the flow's forwarding rule.
class Uib {
 public:
  // ---- applied state ----
  [[nodiscard]] AppliedState applied(FlowId f) const;
  void write_applied(FlowId f, const AppliedState& s);
  /// Bring-up: write_applied and set_flow_size through one row lookup,
  /// counted as the same seven register writes.
  void bring_up(FlowId f, const AppliedState& s, double size);

  // ---- pending UIM (highest version received) ----
  [[nodiscard]] const UimHeader* pending_uim(FlowId f) const;
  /// Stores `uim` if it is newer than the held one; returns true if stored.
  bool offer_uim(const UimHeader& uim);
  void drop_uim(FlowId f);

  // ---- per-flow scalars ----
  [[nodiscard]] double flow_size(FlowId f) const {
    return read(f, 1).flow_size;
  }
  void set_flow_size(FlowId f, double s) { write(f, 1).flow_size = s; }
  [[nodiscard]] bool high_priority(FlowId f) const {
    return read(f, 1).flow_priority != 0;
  }
  void set_high_priority(FlowId f, bool hi) {
    write(f, 1).flow_priority = hi ? 1 : 0;
  }

  /// True if this switch has ever applied a configuration for `f`.
  [[nodiscard]] bool knows(FlowId f) const {
    return read(f, 1).new_version != 0;
  }

  /// The shared per-flow handle space. The owning switch addresses its own
  /// protocol scratch pools (stamps, watchdog generations, ...) by the same
  /// handles, so one interning covers every per-flow structure.
  [[nodiscard]] net::FlowIndex& flow_index() { return index_; }
  [[nodiscard]] const net::FlowIndex& flow_index() const { return index_; }

  /// Pending-UIM count (bounded by the live flow count; the reclaim
  /// regression pins that it returns to baseline after repeated batches).
  [[nodiscard]] std::size_t pending_count() const { return pending_count_; }

  /// Register accesses, counted per Table-1 register, for the observability
  /// layer's per-switch uib.register_{reads,writes} counters.
  [[nodiscard]] std::uint64_t register_reads() const { return reads_; }
  [[nodiscard]] std::uint64_t register_writes() const { return writes_; }

 private:
  /// One flow's Table-1 registers; a row never written reads as these
  /// defaults (P4 registers zero-initialize; distances read "none").
  struct Registers {
    Version new_version = 0;
    Version old_version = 0;
    double flow_size = 0.0;
    std::int64_t counter = 0;
    Distance new_distance = p4rt::kNoDistance;
    Distance old_distance = p4rt::kNoDistance;
    std::uint8_t flow_priority = 0;
    std::uint8_t t = 0;  // 0 = single/empty, 1 = dual
  };
  struct PendingRow {
    UimHeader uim;
    bool present = false;
  };

  /// `f`'s registers (the defaults for a flow never written), counting
  /// `count` register reads.
  [[nodiscard]] const Registers& read(FlowId f, std::uint64_t count) const;
  /// `f`'s registers for writing (interned when missing), counting `count`
  /// register writes.
  Registers& write(FlowId f, std::uint64_t count);
  /// Copies `s` into the six applied-state registers of `r`.
  static void assign(Registers& r, const AppliedState& s);

  net::FlowIndex index_;
  net::FlowPool<Registers> registers_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  // Pending UIM content (egress_port_updated + metadata).
  net::FlowPool<PendingRow> pending_;
  std::size_t pending_count_ = 0;
};

}  // namespace p4u::core
