// Sharded deterministic parallel DES: conservative-lookahead multi-core
// execution with results byte-identical to a single shard (DESIGN.md §13).
//
// The topology's switches are partitioned into K logical processes
// (net::partition_shards); each shard owns a full Simulator — its own
// 4-ary indexed heap, handler slab, and clock — plus an OrderDomain that
// keys every event by (origin node, per-origin counter) instead of the
// global insertion sequence. That key is a pure function of the simulated
// system, so the heaps pop the same events in the same per-node order for
// every K, and merged metrics/reports come out byte-identical.
//
// Synchronization is classic conservative lookahead: all cross-shard
// interactions ride links (or the control channel), so an event executing
// at time t can only affect another shard at >= t + delta, where delta is
// the minimum cross-shard latency. The engine therefore executes windows
//
//     [T_min, min(T_min + delta, next checkpoint))
//
// in parallel — one pinned worker thread per shard, the caller's thread
// acting as shard 0 — with cross-shard events buffered in single-writer
// mailboxes and drained by the receiving shard after a barrier. T_min is
// the global minimum next-event time, so sparse phases (timer tails,
// drained updates) cost one window per event cluster, not one per delta of
// virtual time. Barriers are sense-free centralized spin barriers
// (generation counter + bounded spin, then yield): at fat-tree lookahead
// (25 us windows) a futex sleep per window would dominate the shard work.
//
// K = 1 runs the same keyed semantics inline — no threads, no mailboxes,
// no windows — and is the baseline the byte-identity gate compares against.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace p4u::sim {

/// Runs the topology on K shard-local Simulators under conservative time
/// windows. Routing (which node lives on which shard) belongs to the
/// caller: the fabric resolves the executing and owning shard and calls
/// schedule_from; this class only moves keyed events and time forward.
class ShardedSimulator {
 public:
  using Handler = Simulator::Handler;
  /// Runs between windows (single-threaded, on the caller's thread) at
  /// every multiple of the checkpoint cadence — the invariant monitor's
  /// hook. All events strictly before the checkpoint time have executed
  /// and none at-or-after it has, for every K, so whatever the hook reads
  /// is shard-count-independent.
  using Checkpoint = std::function<void()>;

  /// `origin_count` = node count + 1 (biased: index 0 is the controller
  /// context, node -1). `lookahead` is the minimum cross-shard latency and
  /// must be positive when shards > 1 — a zero-latency cut link would
  /// leave no safe window at all.
  ShardedSimulator(int shards, std::size_t origin_count, Duration lookahead);

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int shards() const noexcept {
    return static_cast<int>(sims_.size());
  }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }

  /// Shard-local simulator (its OrderDomain is already installed). Shard 0
  /// additionally owns the controller context and every root-scheduled
  /// event (tag.node == -1).
  [[nodiscard]] Simulator& shard(int s) { return *sims_.at(idx(s)); }
  [[nodiscard]] const Simulator& shard(int s) const {
    return *sims_.at(idx(s));
  }

  /// Schedules an event from `exec_shard`'s execution context onto
  /// `target_shard`. The order key is drawn from the executing shard's
  /// domain (under its current origin), so key assignment follows the
  /// deterministic per-node handler sequence regardless of which heap the
  /// event lands in. Outside run() — setup code on the caller's thread —
  /// the event is inserted directly; inside run(), cross-shard events go
  /// through the mailbox and must respect the lookahead.
  template <typename F>
  void schedule_from(int exec_shard, int target_shard, Time at, EventTag tag,
                     F&& f) {
    const std::uint64_t word =
        shard(exec_shard).order_domain()->next_word();
    if (exec_shard == target_shard || !running_) {
      shard(target_shard).schedule_keyed(at, word, tag,
                                         Handler(std::forward<F>(f)));
      return;
    }
    post_cross(exec_shard, target_shard, at, word, tag,
               Handler(std::forward<F>(f)));
  }

  /// Runs all shards until every queue drains (events parked at
  /// kTimeInfinity never execute) or virtual time passes `until`. Returns
  /// the number of events executed by this call across all shards.
  /// `checkpoint`, when set with a positive `cadence`, fires between
  /// windows at each multiple of `cadence`.
  std::size_t run(Time until = kTimeInfinity,
                  const Checkpoint& checkpoint = {}, Duration cadence = 0);

  /// Reserves each shard's index capacity (Simulator::reserve) for about
  /// `n` pending events split evenly across shards.
  void reserve(std::size_t n);

  /// Totals across shards (deterministic: same event set for every K).
  [[nodiscard]] std::uint64_t executed() const noexcept;
  /// Per-shard executed-event count — the sim.shard_events gauge.
  [[nodiscard]] std::uint64_t shard_events(int s) const {
    return shard(s).executed();
  }
  /// Per-shard ready-queue high-water mark — feeds sim.pending_peak.
  [[nodiscard]] std::size_t shard_pending_peak(int s) const {
    return shard(s).pending_peak();
  }

 private:
  /// Centralized spin barrier. A generation counter doubles as the sense:
  /// arrivals increment the count; the last arrival resets it and bumps
  /// the generation, releasing the spinners. Release/acquire on the two
  /// atomics carries every pre-barrier write (mailbox buffers, next-event
  /// times) to every post-barrier reader.
  class SpinBarrier {
   public:
    explicit SpinBarrier(int parties) : parties_(parties) {}
    void arrive_and_wait();

   private:
    const int parties_;
    std::atomic<int> count_{0};
    std::atomic<std::uint64_t> generation_{0};
  };

  /// A keyed event in flight between shards. Written only by the sending
  /// shard's worker during a window, read only by the receiving shard
  /// after the next barrier: single-producer single-consumer by phase, no
  /// locks needed beyond the barrier itself.
  struct CrossEvent {
    Time at;
    std::uint64_t word;
    EventTag tag;
    Handler fn;
  };
  struct Mailbox {
    std::vector<CrossEvent> buf;
  };

  static std::size_t idx(int s) { return static_cast<std::size_t>(s); }

  void post_cross(int exec_shard, int target_shard, Time at,
                  std::uint64_t word, EventTag tag, Handler&& fn);
  std::size_t run_single(Time until, const Checkpoint& checkpoint,
                         Duration cadence);
  std::size_t run_windows(Time until, const Checkpoint& checkpoint,
                          Duration cadence);
  void worker_loop(int s, Time until, const Checkpoint& checkpoint,
                   Duration cadence);

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::unique_ptr<OrderDomain>> domains_;
  std::vector<std::vector<Mailbox>> mail_;  // mail_[from][to]
  Duration lookahead_;
  bool running_ = false;

  // Window-loop shared state; synchronized exclusively by barrier_.
  SpinBarrier barrier_;
  std::vector<Time> next_time_;    // per-shard next event time, post-drain
  std::vector<Time> window_hi_;    // per-shard current window upper bound
  std::vector<std::size_t> ran_;   // per-shard events executed this run()
  // Checkpoint-hook failures only: written by shard 0 before the
  // checkpoint barrier, read by everyone after it — never mid-round.
  // Worker errors travel as a halt sentinel in next_time_ instead, so
  // every phase-2 decision is a pure function of barrier-published data
  // (a live flag read mid-round deadlocks the barrier; see the .cpp).
  std::atomic<bool> checkpoint_error_{false};
  std::vector<std::exception_ptr> errors_;
};

}  // namespace p4u::sim
