#include "control/flow_db.hpp"

#include "obs/metrics.hpp"

namespace p4u::control {

const char* to_string(UpdateOutcome o) {
  switch (o) {
    case UpdateOutcome::kPending: return "pending";
    case UpdateOutcome::kCompleted: return "completed";
    case UpdateOutcome::kRolledBack: return "rolled-back";
    case UpdateOutcome::kAbandoned: return "abandoned";
  }
  return "?";
}

const char* to_string(RequestKind k) {
  switch (k) {
    case RequestKind::kAdd: return "add";
    case RequestKind::kReroute: return "reroute";
    case RequestKind::kRemove: return "remove";
  }
  return "?";
}

const char* to_string(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kDispatched: return "dispatched";
    case RequestState::kCompleted: return "completed";
    case RequestState::kRolledBack: return "rolled-back";
    case RequestState::kAbandoned: return "abandoned";
    case RequestState::kSuperseded: return "superseded";
  }
  return "?";
}

bool is_terminal(RequestState s) {
  return s == RequestState::kCompleted || s == RequestState::kRolledBack ||
         s == RequestState::kAbandoned || s == RequestState::kSuperseded;
}

std::uint32_t FlowDb::newest(net::FlowId f) const {
  const net::FlowHandle h = index_.find(f);
  if (h == net::kNoFlowHandle) return kNoRecord;
  return newest_.get(h, index_.generation(h));
}

std::uint32_t FlowDb::find(net::FlowId f, p4rt::Version v) const {
  // Versions strictly increase along a flow's chain: stop once past `v`.
  for (std::uint32_t i = newest(f);
       i != kNoRecord && log_[i].record.version >= v; i = log_[i].older) {
    if (log_[i].record.version == v) return i;
  }
  return kNoRecord;
}

void FlowDb::on_issued(net::FlowId flow, p4rt::Version v, sim::Time at,
                       std::span<const net::NodeId> path) {
  const net::FlowHandle h = index_.intern(flow);
  std::uint32_t& head = newest_.row(h, index_.generation(h));
  // Every issue supersedes the in-progress record, so only the newest can
  // be in progress.
  if (head != kNoRecord &&
      log_[head].record.state == UpdateState::kInProgress) {
    log_[head].record.state = UpdateState::kSuperseded;
  }
  const std::uint32_t i = log_.append();
  Entry& e = log_[i];
  e.record.version = v;
  e.record.issued_at = at;
  e.record.path.assign(path.begin(), path.end());
  e.older = head;
  head = i;
}

void FlowDb::on_completed(net::FlowId flow, p4rt::Version v, sim::Time at) {
  const std::uint32_t i = find(flow, v);
  if (i == kNoRecord) return;
  UpdateRecord& r = log_[i].record;
  if (r.completed_at == 0) {
    r.completed_at = at;
    r.state = UpdateState::kCompleted;
    r.outcome = UpdateOutcome::kCompleted;
  }
}

void FlowDb::on_gave_up(net::FlowId flow, p4rt::Version v,
                        UpdateOutcome outcome, sim::Time at) {
  const std::uint32_t i = find(flow, v);
  if (i == kNoRecord) return;
  UpdateRecord& r = log_[i].record;
  if (r.outcome == UpdateOutcome::kPending) {
    r.outcome = outcome;
    r.completed_at = at;  // when the decision was made, for reporting
    if (r.state == UpdateState::kInProgress) r.state = UpdateState::kFailed;
  }
}

void FlowDb::on_alarm(net::FlowId flow, p4rt::Version v) {
  const std::uint32_t i = find(flow, v);
  if (i == kNoRecord) return;
  UpdateRecord& r = log_[i].record;
  ++r.alarms;
  if (r.state == UpdateState::kInProgress) r.state = UpdateState::kFailed;
}

const UpdateRecord* FlowDb::record(net::FlowId f, p4rt::Version v) const {
  const std::uint32_t i = find(f, v);
  return i == kNoRecord ? nullptr : &log_[i].record;
}

const UpdateRecord* FlowDb::latest(net::FlowId f) const {
  const std::uint32_t i = newest(f);
  return i == kNoRecord ? nullptr : &log_[i].record;
}

std::optional<sim::Duration> FlowDb::duration(net::FlowId f,
                                              p4rt::Version v) const {
  const UpdateRecord* r = record(f, v);
  if (r == nullptr || r->state != UpdateState::kCompleted) return std::nullopt;
  return r->completed_at - r->issued_at;
}

bool FlowDb::all_completed() const {
  for (std::uint32_t i = 0; i < log_.size(); ++i) {
    if (log_[i].record.state == UpdateState::kInProgress) return false;
  }
  return true;
}

bool FlowDb::all_terminal() const { return nonterminal_updates() == 0; }

std::uint64_t FlowDb::nonterminal_updates() const {
  std::uint64_t n = 0;
  index_.for_each([&](net::FlowHandle h, net::FlowId) {
    const std::uint32_t i = newest_.get(h, index_.generation(h));
    if (i != kNoRecord && log_[i].record.outcome == UpdateOutcome::kPending) {
      ++n;
    }
  });
  return n;
}

void FlowDb::export_outcomes(obs::MetricsRegistry& m) const {
  std::uint64_t by_outcome[4] = {0, 0, 0, 0};
  for (std::uint32_t i = 0; i < log_.size(); ++i) {
    by_outcome[static_cast<std::size_t>(log_[i].record.outcome)] += 1;
  }
  // Top-up pattern: counters only move forward, so re-exporting after more
  // progress stays correct and re-exporting with no progress is a no-op.
  for (const UpdateOutcome o :
       {UpdateOutcome::kCompleted, UpdateOutcome::kRolledBack,
        UpdateOutcome::kAbandoned}) {
    obs::Counter c = m.counter("ctrl.outcome", {{"outcome", to_string(o)}});
    const std::uint64_t total = by_outcome[static_cast<std::size_t>(o)];
    if (total > c.value()) c.inc(total - c.value());
  }
  // Gauge, not counter: the number of unsettled updates shrinks as
  // recovery drives flows to terminal outcomes.
  m.gauge("ctrl.updates_nonterminal")
      .set(static_cast<double>(nonterminal_updates()));
}

RequestId FlowDb::request_submitted(net::FlowId flow, RequestKind kind,
                                    sim::Time at) {
  RequestRecord r;
  r.id = static_cast<RequestId>(requests_.size()) + 1;
  r.flow = flow;
  r.kind = kind;
  r.state = RequestState::kQueued;
  r.submitted_at = at;
  requests_.push_back(r);
  return r.id;
}

void FlowDb::request_dispatched(RequestId id, p4rt::Version v, sim::Time at) {
  if (id == 0 || id > requests_.size()) return;
  RequestRecord& r = requests_[id - 1];
  if (r.state != RequestState::kQueued) return;
  r.state = RequestState::kDispatched;
  r.version = v;
  r.dispatched_at = at;
}

void FlowDb::request_version(RequestId id, p4rt::Version v) {
  if (id == 0 || id > requests_.size()) return;
  RequestRecord& r = requests_[id - 1];
  if (r.version == 0) r.version = v;
}

void FlowDb::request_finished(RequestId id, RequestState terminal,
                              sim::Time at) {
  if (id == 0 || id > requests_.size() || !is_terminal(terminal)) return;
  RequestRecord& r = requests_[id - 1];
  if (is_terminal(r.state)) return;  // settled transitions are final
  r.state = terminal;
  r.finished_at = at;
}

const RequestRecord* FlowDb::request(RequestId id) const {
  if (id == 0 || id > requests_.size()) return nullptr;
  return &requests_[id - 1];
}

std::uint64_t FlowDb::requests_nonterminal() const {
  std::uint64_t n = 0;
  for (const RequestRecord& r : requests_) {
    if (!is_terminal(r.state)) ++n;
  }
  return n;
}

void FlowDb::export_requests(obs::MetricsRegistry& m) const {
  // kind x state totals; top-up like export_outcomes so re-exports after
  // further progress stay correct.
  std::uint64_t totals[3][6] = {};
  for (const RequestRecord& r : requests_) {
    totals[static_cast<std::size_t>(r.kind)]
          [static_cast<std::size_t>(r.state)] += 1;
  }
  for (const RequestKind k :
       {RequestKind::kAdd, RequestKind::kReroute, RequestKind::kRemove}) {
    for (const RequestState s :
         {RequestState::kCompleted, RequestState::kRolledBack,
          RequestState::kAbandoned, RequestState::kSuperseded}) {
      const std::uint64_t total = totals[static_cast<std::size_t>(k)]
                                        [static_cast<std::size_t>(s)];
      if (total == 0) continue;  // keep the registry sparse
      obs::Counter c = m.counter(
          "ctrl.request", {{"kind", to_string(k)}, {"state", to_string(s)}});
      if (total > c.value()) c.inc(total - c.value());
    }
  }
  m.gauge("ctrl.requests_nonterminal")
      .set(static_cast<double>(requests_nonterminal()));
}

std::uint64_t FlowDb::total_alarms() const {
  std::uint64_t n = 0;
  for (std::uint32_t i = 0; i < log_.size(); ++i) n += log_[i].record.alarms;
  return n;
}

}  // namespace p4u::control
