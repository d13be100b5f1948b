// FlowIndex: dense handle interning for per-flow state (ROADMAP: million-
// flow flat state).
//
// Every layer that keeps per-flow state — the controller's NIB and FlowDb,
// each switch's UIB and protocol scratch — used to key a std::unordered_map
// by the 64-bit net::FlowId. At 10^6 concurrent flows that is one heap node
// (and one pointer chase) per flow *per structure*. Concury-style flat
// state (SNIPPETS.md) replaces the maps with a single interning step: a
// FlowId is interned once into a dense uint32_t handle, and every per-flow
// structure becomes a preallocated array indexed by that handle.
//
// Handles are recycled: release() pushes the slot onto a free list and
// bumps its generation, so a FlowPool row written for the previous occupant
// reads as default for the next one without any eager clearing — O(1)
// logical reset of every pool attached to the index.
//
// Determinism: iteration over live handles visits them in ascending handle
// order, which is insertion order for a fresh index — a stable, seed-
// independent order (unlike unordered_map buckets), so reductions over
// flows are detlint-clean without suppression comments.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow.hpp"

namespace p4u::net {

/// Dense per-flow handle. 32 bits bound the index to ~4G concurrent flows,
/// which keeps every pool's bookkeeping half the size of a FlowId key.
using FlowHandle = std::uint32_t;
inline constexpr FlowHandle kNoFlowHandle = 0xFFFFFFFFu;

class FlowIndex {
 public:
  /// `expected` pre-sizes the hash table and slot arrays so steady-state
  /// interning never rehashes (campaigns know their flow count up front).
  explicit FlowIndex(std::size_t expected = 0);

  /// Finds or creates the handle for `id`. Amortized O(1); rehashes only
  /// when the live count outgrows the reserved capacity.
  FlowHandle intern(FlowId id);

  /// Handle for `id`, or kNoFlowHandle when never interned (or released).
  [[nodiscard]] FlowHandle find(FlowId id) const;

  /// Releases `id`'s handle for recycling: the slot's generation bumps (so
  /// pool rows stamped with the old generation read as default) and the
  /// handle goes to the free list. No-op for unknown ids.
  void release(FlowId id);

  /// FlowId occupying `h`. Only valid for live handles.
  [[nodiscard]] FlowId id_of(FlowHandle h) const { return slots_[h].id; }

  /// True when `h` currently maps a flow (not released).
  [[nodiscard]] bool live(FlowHandle h) const {
    return h < slots_.size() && slots_[h].live;
  }

  /// Generation stamp of `h`'s slot; FlowPool rows carry the stamp they
  /// were written under and treat a mismatch as "row is default".
  [[nodiscard]] std::uint32_t generation(FlowHandle h) const {
    return slots_[h].generation;
  }

  /// Live (interned, unreleased) flow count.
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Total slots ever allocated (the upper bound pools size to).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  void reserve(std::size_t expected);
  void clear();

  /// Calls fn(handle, id) for every live handle in ascending handle order
  /// — a deterministic, insertion-stable iteration order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (FlowHandle h = 0; h < slots_.size(); ++h) {
      if (slots_[h].live) fn(h, slots_[h].id);
    }
  }

 private:
  struct Slot {
    FlowId id = 0;
    std::uint32_t generation = 0;
    bool live = false;
  };

  [[nodiscard]] std::size_t bucket_of(FlowId id) const;
  void grow_table(std::size_t want_buckets);

  // Open-addressing table (linear probing) of handle values; empty buckets
  // hold kNoFlowHandle. Tombstone-free: deletions relocate the probe chain.
  std::vector<FlowHandle> table_;
  std::size_t table_mask_ = 0;
  std::vector<Slot> slots_;
  std::vector<FlowHandle> free_;
  std::size_t live_ = 0;
};

/// Per-flow value array addressed by FlowHandle, validity-stamped by the
/// owning FlowIndex's slot generation. Rows never shrink; a recycled handle
/// sees the default value until written. Pools do not own the index: the
/// caller passes the current generation (one `index.generation(h)` load),
/// which keeps the pool a plain array with no back-pointer invalidation.
template <typename T>
class FlowPool {
 public:
  explicit FlowPool(T default_value = T{}) : default_(default_value) {}

  /// Mutable row for (h, gen); resets the row to the default first when it
  /// was last written under an older generation (recycled handle).
  T& row(FlowHandle h, std::uint32_t gen) {
    ensure(h);
    if (stamps_[h] != gen) {
      rows_[h] = default_;
      stamps_[h] = gen;
    }
    return rows_[h];
  }

  /// Read-only row value; the default when never written under `gen`.
  [[nodiscard]] const T& get(FlowHandle h, std::uint32_t gen) const {
    if (h >= rows_.size() || stamps_[h] != gen) return default_;
    return rows_[h];
  }

  /// True when (h, gen) holds a value distinct from a fresh row. Note a row
  /// explicitly written back to the default still counts as set.
  [[nodiscard]] bool set(FlowHandle h, std::uint32_t gen) const {
    return h < rows_.size() && stamps_[h] == gen;
  }

  /// Resets one row to default regardless of generation.
  void erase(FlowHandle h) {
    if (h < rows_.size()) {
      rows_[h] = default_;
      stamps_[h] = kStaleStamp;
    }
  }

  void clear() {
    rows_.clear();
    stamps_.clear();
  }

  [[nodiscard]] const T& default_value() const { return default_; }

 private:
  // Generations start at 0 and only ever increment, so the all-ones stamp
  // can never match a live slot generation.
  static constexpr std::uint32_t kStaleStamp = 0xFFFFFFFFu;

  void ensure(FlowHandle h) {
    if (h >= rows_.size()) {
      rows_.resize(h + 1, default_);
      stamps_.resize(h + 1, kStaleStamp);
    }
  }

  std::vector<T> rows_;
  std::vector<std::uint32_t> stamps_;
  T default_;
};

}  // namespace p4u::net
