// Deterministic discrete-event simulator core.
//
// Substitutes the paper's Mininet real-time emulation: every latency the
// paper composes (link propagation, switch service time, rule-install delay,
// controller round trips) becomes a scheduled event. Ties are broken by
// insertion order, so a run is a pure function of its inputs and RNG seed.
//
// Hot-path layout (the dispatch rate bounds how many switches, flows, and
// seeds a campaign can sweep):
//   - handlers are sim::InlineFn (fixed inline storage — scheduling never
//     heap-allocates for the capture sizes the fabric produces),
//   - handlers live in a slab pool with a free list (slot addresses are
//     stable; slots recycle without touching the allocator),
//   - the ready queue is a 4-ary heap of 16-byte {at, seq|slot} entries:
//     the ordering key travels with the entry, so sift comparisons read a
//     contiguous array and never dereference into the pool, and the
//     shallower tree halves the comparison depth of a binary heap.
// Ordering is by (at, seq) via sim::EventOrder — seq is unique, so the
// comparison is a strict total order and the heap arity cannot change the
// pop sequence.
//
// Event ordering is pluggable: install a ScheduleStrategy and the pop path
// presents every *co-enabled* event (same timestamp as the minimum) to
// strategy->pick() instead of hardcoding the seq tie-break. With no
// strategy installed (the default) the historical fast path runs unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_order.hpp"
#include "sim/inline_fn.hpp"
#include "sim/schedule_strategy.hpp"
#include "sim/time.hpp"

namespace p4u::sim {

/// Discrete-event scheduler with integer-nanosecond virtual time.
///
/// Usage:
///   Simulator sim;
///   sim.schedule_in(milliseconds(5), [&]{ ... });
///   sim.run();
class Simulator {
 public:
  /// Inline capacity covers the largest fabric handler: a capture of
  /// {this, node, port, Packet} (152 bytes today) plus slack for harness
  /// lambdas. A capture that outgrows it is a compile error in InlineFn,
  /// not a heap fallback. 184 is deliberate: with the ops pointer it makes
  /// sizeof(Handler) == 192, so an alignas(64) pool slot is exactly three
  /// cache lines and every handler starts on a line boundary.
  using Handler = InlineFn<184>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `f` to run `delay` after the current time. Negative delays
  /// are clamped to zero (run "now", after already-queued same-time events).
  /// The callable is constructed directly into its pool slot: the capture
  /// is copied exactly once, from the caller's frame.
  template <typename F>
  void schedule_in(Duration delay, F&& f) {
    schedule_in(delay, EventTag{}, std::forward<F>(f));
  }

  /// Tagged variant: the tag travels with the event and is shown to the
  /// installed ScheduleStrategy when the event is co-enabled with others.
  template <typename F>
  void schedule_in(Duration delay, EventTag tag, F&& f) {
    if (delay < 0) delay = 0;
    // Saturate: a delay near kTimeInfinity must park the event at the end
    // of time, not wrap `now_ + delay` into the past.
    const Time at =
        delay > kTimeInfinity - now_ ? kTimeInfinity : now_ + delay;
    schedule_at(at, tag, std::forward<F>(f));
  }

  /// Schedules `f` at absolute time `at` (clamped to `now()` if in the past).
  template <typename F>
  void schedule_at(Time at, F&& f) {
    schedule_at(at, EventTag{}, std::forward<F>(f));
  }

  /// Tagged variant of schedule_at.
  template <typename F>
  void schedule_at(Time at, EventTag tag, F&& f) {
    if (at < now_) at = now_;
    const std::uint32_t idx = allocate_slot();
    if constexpr (std::is_same_v<std::decay_t<F>, Handler>) {
      slot(idx) = std::forward<F>(f);  // pre-built handler: one relocation
    } else {
      slot(idx).emplace(std::forward<F>(f));
    }
    tags_[idx] = tag;
    if (next_seq_ == kMaxSeq) raise_seq_overflow();
    heap_push(HeapEntry{at, (next_seq_++ << kSlotBits) | idx});
  }

  /// Installs the event-ordering strategy (nullptr restores the historical
  /// fast path). The strategy must outlive the simulator or be cleared
  /// before it dies; it is consulted only while `run()` is executing.
  void set_strategy(ScheduleStrategy* s) noexcept { strategy_ = s; }

  /// The installed strategy, or nullptr. Components with probabilistic
  /// decisions (fabric drops, jitter) route their coins through this so an
  /// explorer can branch on them.
  [[nodiscard]] ScheduleStrategy* strategy() const noexcept {
    return strategy_;
  }

  /// Reserves index capacity for about `n` concurrently pending events: the
  /// 16-byte heap entries, the free list and the slab table. Handler slabs
  /// are not allocated here but on first use, one 1,024-slot slab at a
  /// time, so the pool follows the run's pending peak and an overestimate
  /// costs address space, not memory.
  void reserve(std::size_t n);

  /// Runs events until the queue drains or virtual time exceeds `until`.
  /// Returns the number of events executed.
  std::size_t run(Time until = kTimeInfinity);

  /// Executes at most `max_events` events; used by tests to single-step.
  std::size_t run_steps(std::size_t max_events);

  /// True if no events remain.
  [[nodiscard]] bool idle() const noexcept { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// High-water mark of the pending-event count (the sim.pending_peak
  /// gauge): how deep the ready queue ever got.
  [[nodiscard]] std::size_t pending_peak() const noexcept {
    return pending_peak_;
  }

  /// Handler slots allocated so far (slabs x 1,024). A slab is added only
  /// when every slot is taken, so this is at most pending_peak() + 1 (the
  /// running handler keeps its slot) rounded up to a whole slab.
  [[nodiscard]] std::size_t pool_slots() const noexcept {
    return slabs_.size() * kSlabSize;
  }

  /// Total number of events executed since construction.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Stops the current `run()` after the in-flight handler returns.
  void stop() noexcept { stopped_ = true; }

 private:
  /// Slots are addressed with kSlotBits bits so a heap entry packs the slot
  /// next to the tie-break sequence number in one word. The caps this
  /// implies are unreachable in practice and checked, not assumed: 2^20
  /// concurrently pending events (~200 MB of handler slabs) and 2^44 total
  /// events per simulator (weeks of dispatch at benchmarked rates).
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// Heap element: 16 bytes — the full ordering key with the pool slot
  /// packed into the low bits of the word that carries the sequence
  /// number. `seq` is unique, so comparing `seq_idx` words compares `seq`
  /// and the slot bits can never influence the order (EventOrder's
  /// seq-monotone-word contract). Sift operations move these, and only
  /// these; the (large) handler stays put in its slab until it runs.
  struct HeapEntry {
    Time at;
    std::uint64_t seq_idx;  // (seq << kSlotBits) | slot
    [[nodiscard]] std::uint32_t idx() const noexcept {
      return static_cast<std::uint32_t>(seq_idx) & (kMaxSlots - 1);
    }
  };

  // Slab geometry: slots are addressed as (index >> kSlabShift) into the
  // slab list, (index & kSlabMask) within a slab. Slabs never move or
  // shrink, so handler addresses are stable across pool growth.
  static constexpr std::uint32_t kSlabShift = 10;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;
  static constexpr std::uint32_t kSlabMask = kSlabSize - 1;

  /// Pool slot: line-aligned so the pop-path prefetch of three cache lines
  /// covers any handler completely, and no capture straddles an extra line.
  /// Tags live in a parallel array, not here — a tag in the slot would
  /// spill the handler onto a fourth cache line.
  struct alignas(64) Slot {
    Handler fn;
  };
  static_assert(sizeof(Slot) == 192, "slot must stay exactly 3 cache lines");

  [[nodiscard]] Handler& slot(std::uint32_t idx) noexcept {
    return slabs_[idx >> kSlabShift][idx & kSlabMask].fn;
  }
  /// Earlier-than: the shared strict (at, seq) order. seq_idx is
  /// seq-monotone (slot bits sit below every seq bit), so comparing the
  /// packed words compares seq.
  [[nodiscard]] static bool before(const HeapEntry& a,
                                   const HeapEntry& b) noexcept {
    return EventOrder::before(a.at, a.seq_idx, b.at, b.seq_idx);
  }

  [[nodiscard]] std::uint32_t allocate_slot();
  [[noreturn]] static void raise_seq_overflow();
  void heap_push(HeapEntry e);
  void heap_remove_min();
  /// Strategy pop path: removes every event at the minimum timestamp (the
  /// co-enabled set), lets the strategy pick one, re-pushes the rest with
  /// their keys intact, and returns the winner (already removed).
  [[nodiscard]] HeapEntry strategy_select();
  bool pop_and_run(Time until);

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<EventTag> tags_;        // per-slot tag, parallel to slabs_
  std::vector<std::uint32_t> free_;   // recycled pool slots
  std::uint32_t next_fresh_ = 0;      // first never-used slot
  std::vector<HeapEntry> heap_;       // 4-ary min-heap keyed by (at, seq)
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_peak_ = 0;
  bool stopped_ = false;
  ScheduleStrategy* strategy_ = nullptr;
  // Scratch for strategy_select(); members so the strategy pop path does
  // not allocate per event once warm.
  std::vector<HeapEntry> co_enabled_;
  std::vector<ChoiceOption> options_;
};

}  // namespace p4u::sim
