// Flow DB (§6): per-flow update bookkeeping on the controller. Records when
// each version's update was triggered, the path it was issued for and when
// its UFM came back; the experiment harness reads completion times from
// here ("from the sending of UIM messages to the receiving of UFM
// messages", §9.2), and the recovery driver reads issued paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/flow.hpp"
#include "net/flow_index.hpp"
#include "net/graph.hpp"
#include "p4rt/packet.hpp"
#include "sim/append_log.hpp"
#include "sim/small_vec.hpp"
#include "sim/time.hpp"

namespace p4u::obs {
class MetricsRegistry;
}

namespace p4u::control {

enum class UpdateState {
  kInProgress,
  kCompleted,
  kFailed,     // alarm received, no success afterwards
  kSuperseded, // a later version was issued before this one finished
};

/// How an update finally settled from the recovery state machine's point of
/// view. Every issued update must reach a terminal outcome (anything but
/// kPending) — the chaos campaign's core liveness assertion.
enum class UpdateOutcome {
  kPending,     // still in flight (non-terminal)
  kCompleted,   // UFM confirmed the new configuration
  kRolledBack,  // retries exhausted; traffic stays on the healthy old path
  kAbandoned,   // retries exhausted and no healthy path exists
};

const char* to_string(UpdateOutcome o);

struct UpdateRecord {
  p4rt::Version version = 0;
  sim::Time issued_at = 0;
  sim::Time completed_at = 0;
  UpdateState state = UpdateState::kInProgress;
  std::uint32_t alarms = 0;
  UpdateOutcome outcome = UpdateOutcome::kPending;
  /// The path the update was issued for (inline up to 8 nodes, which covers
  /// every fat-tree path); empty for a destination-tree update.
  sim::SmallVec<net::NodeId, 8> path;
};

// ---------------------------------------------------------------------------
// Request ledger: the controller-facing unit of work. A request is what a
// client *asked for* (add / reroute / remove a flow); a version is what the
// controller *issued* for it. The admission queue (control/admission.hpp)
// drives every transition; the churn campaign's liveness gate is
// all_requests_terminal().

enum class RequestKind {
  kAdd,      // bring a new flow up (instant: version-1 bootstrap)
  kReroute,  // move an existing flow onto a new path
  kRemove,   // retire a flow (drain back to its primary path)
};

enum class RequestState {
  kQueued,      // admitted, waiting for an in-flight slot
  kDispatched,  // handed to the controller; an update version is in flight
  kCompleted,   // the dispatched update confirmed (terminal)
  kRolledBack,  // recovery gave up; traffic stays on the old path (terminal)
  kAbandoned,   // recovery gave up with no healthy path left (terminal)
  kSuperseded,  // a newer request for the flow replaced it (terminal)
};

const char* to_string(RequestKind k);
const char* to_string(RequestState s);

/// True for the four settled states.
[[nodiscard]] bool is_terminal(RequestState s);

/// Ledger-wide id, 1-based; 0 is "no request".
using RequestId = std::uint64_t;

struct RequestRecord {
  RequestId id = 0;
  net::FlowId flow = 0;
  RequestKind kind = RequestKind::kReroute;
  RequestState state = RequestState::kQueued;
  p4rt::Version version = 0;  // 0 until the controller assigned one
  sim::Time submitted_at = 0;
  sim::Time dispatched_at = 0;
  sim::Time finished_at = 0;
};

// The one store of issued updates. Every record lives in one append-only
// log, and each flow's records chain newest first from a head kept per flow
// handle (a net::FlowIndex of the DB's own). A flow's versions strictly
// increase along its chain, so a lookup stops once it passes the version it
// wants, and most want the newest. Whole-DB reductions (all_completed,
// outcome exports) scan the log in issue order — a deterministic order.
class FlowDb {
 public:
  /// Opens the record of (flow, v), issued at `at` for `path` (empty for a
  /// destination-tree update). `v` must exceed every version the flow was
  /// issued before. The flow's in-progress record, if any, is superseded.
  void on_issued(net::FlowId flow, p4rt::Version v, sim::Time at,
                 std::span<const net::NodeId> path);
  void on_completed(net::FlowId flow, p4rt::Version v, sim::Time at);
  void on_alarm(net::FlowId flow, p4rt::Version v);
  /// Recovery gave up on (flow, v): records the terminal outcome
  /// (kRolledBack or kAbandoned) and closes the record as kFailed.
  void on_gave_up(net::FlowId flow, p4rt::Version v, UpdateOutcome outcome,
                  sim::Time at);

  /// The record of (flow, v), or nullptr when none was issued. Records never
  /// move, so the pointer (and its path) stays valid for the DB's life.
  [[nodiscard]] const UpdateRecord* record(net::FlowId f, p4rt::Version v) const;
  /// The flow's newest record, or nullptr when none was issued.
  [[nodiscard]] const UpdateRecord* latest(net::FlowId f) const;
  /// Calls fn(const UpdateRecord&) for each of the flow's records, oldest
  /// first.
  template <typename Fn>
  void for_each_record(net::FlowId f, Fn&& fn) const {
    std::vector<std::uint32_t> chain;
    for (std::uint32_t i = newest(f); i != kNoRecord; i = log_[i].older) {
      chain.push_back(i);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      fn(log_[*it].record);
    }
  }

  /// Completion duration of (flow, version), if completed.
  [[nodiscard]] std::optional<sim::Duration> duration(net::FlowId f,
                                                      p4rt::Version v) const;

  /// True when every issued update of every flow has completed.
  [[nodiscard]] bool all_completed() const;

  [[nodiscard]] std::uint64_t total_alarms() const;

  /// True when the *latest* update of every flow is at a terminal outcome
  /// (superseded interim versions do not count against terminality).
  [[nodiscard]] bool all_terminal() const;

  /// Updates (across all flows) whose latest record is still kPending.
  [[nodiscard]] std::uint64_t nonterminal_updates() const;

  /// Tops up "ctrl.outcome"{outcome=...} counters plus
  /// "ctrl.updates_nonterminal" to the current totals. Idempotent, so the
  /// harness can export right before every harvest.
  void export_outcomes(obs::MetricsRegistry& m) const;

  // --- request ledger (admission queue bookkeeping) ---

  /// Opens a new request in kQueued; returns its 1-based id.
  RequestId request_submitted(net::FlowId flow, RequestKind kind,
                              sim::Time at);
  /// kQueued -> kDispatched. `v` may be 0 when the controller has not
  /// assigned a version yet (ez-Segway's internal per-flow queue).
  void request_dispatched(RequestId id, p4rt::Version v, sim::Time at);
  /// Backfills the version once the controller assigned one.
  void request_version(RequestId id, p4rt::Version v);
  /// Moves the request to a terminal state and stamps finished_at.
  void request_finished(RequestId id, RequestState terminal, sim::Time at);

  [[nodiscard]] const RequestRecord* request(RequestId id) const;
  [[nodiscard]] const std::vector<RequestRecord>& requests() const {
    return requests_;
  }
  [[nodiscard]] std::uint64_t requests_nonterminal() const;
  [[nodiscard]] bool all_requests_terminal() const {
    return requests_nonterminal() == 0;
  }

  /// Tops up "ctrl.request"{kind=,state=} counters to the ledger's current
  /// totals. Idempotent. Deliberately NOT part of export_outcomes: only
  /// request-driven campaigns (churn) opt into these series, so the legacy
  /// campaign reports stay byte-identical.
  void export_requests(obs::MetricsRegistry& m) const;

 private:
  static constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;
  struct Entry {
    UpdateRecord record;
    std::uint32_t older = kNoRecord;  // the flow's previous record
  };
  /// Log index of the flow's newest record, or kNoRecord.
  [[nodiscard]] std::uint32_t newest(net::FlowId f) const;
  /// Log index of the record of (f, v), or kNoRecord.
  [[nodiscard]] std::uint32_t find(net::FlowId f, p4rt::Version v) const;

  net::FlowIndex index_;
  net::FlowPool<std::uint32_t> newest_{kNoRecord};  // by handle
  sim::AppendLog<Entry, 256> log_;
  std::vector<RequestRecord> requests_;
};

}  // namespace p4u::control
