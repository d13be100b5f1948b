#include "control/admission.hpp"

#include <algorithm>
#include <utility>

namespace p4u::control {

namespace {

RequestState state_of(UpdateOutcome o) {
  switch (o) {
    case UpdateOutcome::kCompleted: return RequestState::kCompleted;
    case UpdateOutcome::kRolledBack: return RequestState::kRolledBack;
    case UpdateOutcome::kAbandoned: return RequestState::kAbandoned;
    case UpdateOutcome::kPending: break;
  }
  return RequestState::kQueued;  // non-terminal sentinel; callers guard
}

}  // namespace

AdmissionQueue::AdmissionQueue(FlowDb& db, AdmissionParams params)
    : db_(db), params_(params) {}

RequestId AdmissionQueue::submit(net::FlowId flow, RequestKind kind,
                                 const net::Path& new_path) {
  const RequestId id = db_.request_submitted(flow, kind, now());
  if (params_.coalesce) {
    // At most one queued entry per flow exists under coalescing, so the
    // first hit is the only one. The replacement keeps the queue position:
    // a flow cannot gain priority by resubmitting.
    for (std::uint32_t i = head_; i != kNoSlot; i = slots_[i].next) {
      if (slots_[i].flow != flow) continue;
      finish(slots_[i].id, RequestState::kSuperseded);
      ++coalesced_;
      // Re-read the slot: a submit from the notification may have grown
      // slots_.
      Slot& slot = slots_[i];
      slot.id = id;
      slot.path.assign(new_path.begin(), new_path.end());
      return id;
    }
  }
  enqueue(id, flow, new_path);
  queued_peak_ = std::max(queued_peak_, queued_);
  pump();
  return id;
}

void AdmissionQueue::enqueue(RequestId id, net::FlowId flow,
                             const net::Path& path) {
  std::uint32_t i = kNoSlot;
  if (free_slots_.empty()) {
    i = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    i = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[i];
  slot.id = id;
  slot.flow = flow;
  slot.path.assign(path.begin(), path.end());
  slot.next = kNoSlot;
  if (tail_ == kNoSlot) {
    head_ = i;
  } else {
    slots_[tail_].next = i;
  }
  tail_ = i;
  ++queued_;
}

RequestId AdmissionQueue::note_instant(net::FlowId flow, RequestKind kind) {
  const sim::Time t = now();
  const RequestId id = db_.request_submitted(flow, kind, t);
  db_.request_dispatched(id, 0, t);
  finish(id, RequestState::kCompleted);
  return id;
}

void AdmissionQueue::on_update_settled(net::FlowId flow,
                                       p4rt::Version version,
                                       UpdateOutcome outcome) {
  const RequestState terminal = state_of(outcome);
  if (!is_terminal(terminal)) return;
  const net::FlowHandle h = index_.find(flow);
  if (h == net::kNoFlowHandle || acts_of(h).empty()) return;
  // The row is re-read after every finish(): a submit from a notification
  // may intern a new flow and grow active_.

  // The settled version's request, by exact match first. Without one (the
  // controller settled a version it issued internally — a recovery repair —
  // or one ez-Segway assigned after dispatch), older known versions are
  // superseded and the oldest version-less dispatch absorbs the outcome:
  // per-flow issue order is FIFO, so that entry is the settled one whenever
  // the version is attributable at all.
  std::size_t match = acts_of(h).size();
  for (std::size_t i = 0; i < acts_of(h).size(); ++i) {
    if (acts_of(h)[i].version == version) {
      match = i;
      break;
    }
  }
  if (match == acts_of(h).size()) {
    // Drop the prefix of strictly-older known versions first, then look
    // for a version-less dispatch to attribute to.
    while (!acts_of(h).empty() && acts_of(h).front().version != 0 &&
           acts_of(h).front().version < version) {
      std::vector<Active>& acts = acts_of(h);
      const RequestId id = acts.front().id;
      acts.erase(acts.begin());
      --inflight_;
      finish(id, RequestState::kSuperseded);
    }
    if (acts_of(h).empty() || acts_of(h).front().version != 0) {
      pump();
      return;
    }
    match = 0;
  }

  // Version-ordered notification: everything dispatched before the match is
  // an older version — it settles kSuperseded *before* the match's own
  // terminal notification fires.
  std::vector<Active>& acts = acts_of(h);
  const std::size_t base = resolved_.size();
  for (std::size_t i = 0; i <= match; ++i) resolved_.push_back(acts[i].id);
  acts.erase(acts.begin(),
             acts.begin() + static_cast<std::ptrdiff_t>(match) + 1);
  inflight_ -= match + 1;

  const std::size_t last = resolved_.size() - 1;
  for (std::size_t i = base; i < last; ++i) {
    finish(resolved_[i], RequestState::kSuperseded);
  }
  db_.request_version(resolved_[last], version);
  finish(resolved_[last], terminal);
  resolved_.resize(base);
  pump();
}

void AdmissionQueue::finish(RequestId id, RequestState terminal) {
  db_.request_finished(id, terminal, now());
  if (notify_) {
    const RequestRecord* rec = db_.request(id);
    if (rec != nullptr) notify_(*rec);
  }
}

std::size_t AdmissionQueue::flow_inflight(net::FlowId flow) const {
  const net::FlowHandle h = index_.find(flow);
  return h == net::kNoFlowHandle
             ? 0
             : active_.get(h, index_.generation(h)).size();
}

bool AdmissionQueue::can_dispatch(net::FlowId flow) const {
  return params_.max_inflight_per_flow == 0 ||
         flow_inflight(flow) < params_.max_inflight_per_flow;
}

void AdmissionQueue::dispatch_one(RequestId id, net::FlowId flow,
                                  const net::Path& path) {
  db_.request_dispatched(id, 0, now());
  const net::FlowHandle h = index_.intern(flow);
  acts_of(h).push_back(Active{id, 0});
  ++inflight_;
  inflight_peak_ = std::max(inflight_peak_, inflight_);
  ++dispatched_;
  const DispatchResult r = dispatch_ ? dispatch_(flow, path) : DispatchResult{};
  const RequestRecord* rec = db_.request(id);
  if (rec == nullptr || is_terminal(rec->state)) {
    // Settled from inside the dispatch (a trivial update completed inline);
    // the settle handler already removed the active entry.
    return;
  }
  std::vector<Active>& acts = acts_of(h);
  if (!r.accepted) {
    // Nothing was issued (preflight refusal): the flow keeps its believed
    // old path, which is exactly a rollback from the request's view.
    ++refused_;
    for (std::size_t i = 0; i < acts.size(); ++i) {
      if (acts[i].id != id) continue;
      acts.erase(acts.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
    --inflight_;
    finish(id, RequestState::kRolledBack);
    return;
  }
  if (r.version != 0) {
    db_.request_version(id, r.version);
    for (Active& a : acts) {
      if (a.id == id) {
        a.version = r.version;
        break;
      }
    }
  }
}

void AdmissionQueue::pump() {
  if (pumping_) return;  // a settle inside a dispatch defers to this loop
  pumping_ = true;
  while (head_ != kNoSlot && global_slot_free()) {
    // FIFO with a skip scan: the oldest request whose flow has a free slot
    // dispatches; flows at their bound do not block unrelated flows.
    std::uint32_t prev = kNoSlot;
    std::uint32_t pick = head_;
    while (pick != kNoSlot && !can_dispatch(slots_[pick].flow)) {
      prev = pick;
      pick = slots_[pick].next;
    }
    if (pick == kNoSlot) break;
    Slot& slot = slots_[pick];
    if (prev == kNoSlot) {
      head_ = slot.next;
    } else {
      slots_[prev].next = slot.next;
    }
    if (tail_ == pick) tail_ = prev;
    --queued_;
    const RequestId id = slot.id;
    const net::FlowId flow = slot.flow;
    // The slot is free for reuse during the dispatch; its path moves to
    // dispatching_ and the slot takes the previous dispatch's buffer.
    dispatching_.swap(slot.path);
    free_slots_.push_back(pick);
    dispatch_one(id, flow, dispatching_);
  }
  pumping_ = false;
}

}  // namespace p4u::control
