// Stateful P4 primitive: the flow-indexed register array.
//
// P4 registers are persistent arrays writable from both planes (§2.1); the
// P4Update prototype keys them by flow ID (§10: "indexed by the flow ID").
// BMv2 registers are fixed-size arrays indexed by a hash of the flow; we
// model the same semantics with a flat pool plus a default value, which
// keeps "never written" reads well-defined (P4 registers zero-initialize).
// The forwarding table itself (the egress_port register) lives in
// SwitchDevice, on the same FlowIndex idiom.
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
/// creating a handle, writes intern. `read_at`/`write_at` skip the lookup
/// for callers that already resolved the handle (a multi-register access
/// like Uib::applied interns once, then hits each register's pool).
template <typename T>
class FlatRegisterArray {
 public:
  explicit FlatRegisterArray(T default_value = T{})
      : pool_(default_value) {}

  [[nodiscard]] T read(const net::FlowIndex& idx, std::uint64_t flow) const {
    const net::FlowHandle h = idx.find(flow);
    return read_at(h, h == net::kNoFlowHandle ? 0 : idx.generation(h));
  }

  /// Read via a pre-resolved handle (kNoFlowHandle reads the default).
  [[nodiscard]] T read_at(net::FlowHandle h, std::uint32_t gen) const {
    ++reads_;
    return pool_.get(h, gen);
  }

  void write(net::FlowIndex& idx, std::uint64_t flow, T value) {
    const net::FlowHandle h = idx.intern(flow);
    write_at(h, idx.generation(h), value);
  }

  void write_at(net::FlowHandle h, std::uint32_t gen, T value) {
    ++writes_;
    pool_.row(h, gen) = value;
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
