// Stateful P4 primitive: the flow-indexed register array.
//
// P4 registers are persistent arrays writable from both planes (§2.1); the
// P4Update prototype keys them by flow ID (§10: "indexed by the flow ID").
// BMv2 registers are fixed-size arrays indexed by a hash of the flow; we
// model the same semantics with a flat pool plus a default value, which
// keeps "never written" reads well-defined (P4 registers zero-initialize).
// The forwarding table itself (the egress_port register) lives in the
// Fabric's per-flow rows (p4rt/forwarding_table.hpp), and P4Update's UIB
// keeps Table 1 as one row per flow (core/uib.hpp).
#pragma once

#include <cstdint>

#include "net/flow_index.hpp"

namespace p4u::p4rt {

/// Index-addressed register array: cells live in a flat pool addressed by
/// the dense FlowHandle of a shared net::FlowIndex (one interning per flow,
/// however many registers the switch keeps). Unwritten cells read as the
/// default, and every access bumps the plane-agnostic read/write counters
/// the observability layer exports.
///
/// The owner passes the index explicitly: reads resolve (find) without
/// creating a handle, writes intern.
template <typename T>
class FlatRegisterArray {
 public:
  explicit FlatRegisterArray(T default_value = T{})
      : pool_(default_value) {}

  [[nodiscard]] T read(const net::FlowIndex& idx, std::uint64_t flow) const {
    ++reads_;
    const net::FlowHandle h = idx.find(flow);
    if (h == net::kNoFlowHandle) return pool_.default_value();
    return pool_.get(h, idx.generation(h));
  }

  void write(net::FlowIndex& idx, std::uint64_t flow, T value) {
    ++writes_;
    const net::FlowHandle h = idx.intern(flow);
    pool_.row(h, idx.generation(h)) = value;
  }

  void clear() { pool_.clear(); }

  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }

 private:
  net::FlowPool<T> pool_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace p4u::p4rt
