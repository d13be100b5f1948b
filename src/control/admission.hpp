// AdmissionQueue: request-level admission control in front of a controller.
//
// Sustained churn (ROADMAP item 3) needs what a one-shot batch never did:
// bounded in-flight updates (per flow and globally), a deterministic FIFO of
// waiting requests, and coalescing of superseded reroutes — a queued reroute
// that is replaced before dispatch never reaches the controller at all. The
// queue owns the request lifecycle (control/flow_db.hpp RequestRecord):
//
//    submit -> kQueued -> kDispatched -> {kCompleted, kRolledBack,
//                  |                      kAbandoned}        (settled by the
//                  |                                          controller)
//                  +-> kSuperseded       (coalesced away, or out-versioned)
//
// Determinism contract: dispatch order is a pure function of submit order
// and settle order (FIFO with a per-flow skip scan — the oldest request
// whose flow has a free slot goes first). With both bounds at 0 (the
// default) the queue is a strict pass-through: submit dispatches
// immediately, which keeps every pre-churn scenario byte-identical.
//
// Notification ordering guarantee: per flow, terminal notifications fire in
// version order — when version v settles, every older active request of the
// flow is notified kSuperseded *before* v's own notification (the
// completion-callback ordering regression test pins this).
//
// Storage is flat (DESIGN.md §14): a request parks its path in a recycled
// slot until the pump dispatches it, and the per-flow in-flight lists are
// rows addressed by the queue's own FlowIndex.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "control/flow_db.hpp"
#include "net/flow.hpp"
#include "net/flow_index.hpp"
#include "net/paths.hpp"
#include "p4rt/packet.hpp"
#include "sim/time.hpp"

namespace p4u::obs {
class MetricsRegistry;
}

namespace p4u::control {

struct AdmissionParams {
  /// Maximum dispatched-but-unsettled requests across all flows; 0 = no
  /// bound (pass-through).
  std::uint32_t max_inflight_global = 0;
  /// Maximum dispatched-but-unsettled requests per flow; 0 = no bound.
  std::uint32_t max_inflight_per_flow = 0;
  /// Replace a still-queued request for the same flow instead of queueing
  /// behind it (the superseded request settles kSuperseded immediately and
  /// the replacement inherits its queue position).
  bool coalesce = true;
};

/// What the controller did with a dispatched request. `version` may be 0
/// when the controller accepted but has not assigned a version yet
/// (ez-Segway queues internally while the flow's previous update is in
/// flight); `accepted == false` means nothing was issued at all (P4Update's
/// enforce_preflight refusal) and the request settles immediately.
struct DispatchResult {
  p4rt::Version version = 0;
  bool accepted = true;
};

class AdmissionQueue {
 public:
  using DispatchFn =
      std::function<DispatchResult(net::FlowId, const net::Path&)>;
  using NotifyFn = std::function<void(const RequestRecord&)>;
  using ClockFn = std::function<sim::Time()>;

  /// The ledger outlives the queue; both live in the system adapter.
  AdmissionQueue(FlowDb& db, AdmissionParams params);

  void set_dispatch(DispatchFn fn) { dispatch_ = std::move(fn); }
  /// Invoked once per terminal transition, after the ledger was updated.
  void set_notify(NotifyFn fn) { notify_ = std::move(fn); }
  void set_clock(ClockFn fn) { clock_ = std::move(fn); }

  [[nodiscard]] const AdmissionParams& params() const { return params_; }

  /// Admits one request: queues a copy of `new_path` and pumps, so it
  /// dispatches at once when bounds allow.
  RequestId submit(net::FlowId flow, RequestKind kind,
                   const net::Path& new_path);

  /// Records a request that needs no data-plane transition (instant flow
  /// add / removal of a flow already on its drain path): it settles
  /// kCompleted at submit time and never touches the queue.
  RequestId note_instant(net::FlowId flow, RequestKind kind);

  /// Controller callback: the update (flow, version) settled with
  /// `outcome`. Resolves the matching dispatched request (superseding every
  /// older one first), then pumps the queue into the freed slots.
  void on_update_settled(net::FlowId flow, p4rt::Version version,
                         UpdateOutcome outcome);

  // --- stats (bench/churn reads these per run) ---
  [[nodiscard]] std::size_t queued_now() const { return queued_; }
  [[nodiscard]] std::size_t inflight_now() const { return inflight_; }
  [[nodiscard]] std::size_t queued_peak() const { return queued_peak_; }
  [[nodiscard]] std::size_t inflight_peak() const { return inflight_peak_; }
  [[nodiscard]] std::uint64_t dispatched_total() const { return dispatched_; }
  [[nodiscard]] std::uint64_t coalesced_total() const { return coalesced_; }
  [[nodiscard]] std::uint64_t refused_total() const { return refused_; }

 private:
  /// One queued request. Slots are recycled through a free list and keep
  /// their path's capacity, so parking a request stops allocating once the
  /// queue has seen its peak depth.
  struct Slot {
    RequestId id = 0;
    net::FlowId flow = 0;
    net::Path path;
    std::uint32_t next = kNoSlot;  // FIFO successor
  };
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  struct Active {
    RequestId id = 0;
    p4rt::Version version = 0;  // 0 while the controller owes us one
  };

  [[nodiscard]] sim::Time now() const { return clock_ ? clock_() : 0; }
  void finish(RequestId id, RequestState terminal);
  [[nodiscard]] std::size_t flow_inflight(net::FlowId flow) const;
  [[nodiscard]] bool can_dispatch(net::FlowId flow) const;
  [[nodiscard]] bool global_slot_free() const {
    return params_.max_inflight_global == 0 ||
           inflight_ < params_.max_inflight_global;
  }
  /// The in-flight list of the flow interned as `h`.
  std::vector<Active>& acts_of(net::FlowHandle h) {
    return active_.row(h, index_.generation(h));
  }
  /// Appends a copy of `path` to the FIFO.
  void enqueue(RequestId id, net::FlowId flow, const net::Path& path);
  void dispatch_one(RequestId id, net::FlowId flow, const net::Path& path);
  /// Dispatches queued requests while slots are free. Reentrancy-safe:
  /// settles arriving from inside a dispatch defer to the outer pump.
  void pump();

  FlowDb& db_;
  AdmissionParams params_;
  DispatchFn dispatch_;
  NotifyFn notify_;
  ClockFn clock_;

  // The FIFO: a singly linked list through slots_, so the skip scan removes
  // from the middle in O(1) and coalescing rewrites in place.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t head_ = kNoSlot;
  std::uint32_t tail_ = kNoSlot;
  std::size_t queued_ = 0;
  // The path of the request being dispatched, swapped out of its slot so
  // the slot can be reused by a submit from inside the dispatch. Dispatch
  // never nests: only the guarded pump dispatches.
  net::Path dispatching_;
  // Per-flow dispatched-but-unsettled requests, in dispatch order (which is
  // version order: every controller assigns versions monotonically per
  // flow). Rows of the queue's own index, which never releases a flow, so
  // an emptied row keeps its capacity.
  net::FlowIndex index_;
  net::FlowPool<std::vector<Active>> active_;
  // Requests a settle resolves, used as a stack: a settle nested inside a
  // notification pushes above its caller's entries and pops back to them.
  std::vector<RequestId> resolved_;
  std::size_t inflight_ = 0;
  bool pumping_ = false;

  std::size_t queued_peak_ = 0;
  std::size_t inflight_peak_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t refused_ = 0;
};

}  // namespace p4u::control
