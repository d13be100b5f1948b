#include "control/admission.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

namespace p4u::control {
namespace {

/// Scripted controller stand-in: every dispatch issues the next version
/// for that flow (or replays a scripted DispatchResult), and the test
/// settles versions by hand.
struct Harness {
  FlowDb db;
  AdmissionQueue q;
  std::map<net::FlowId, p4rt::Version> next_version;
  std::vector<std::pair<net::FlowId, p4rt::Version>> dispatched;
  std::vector<RequestRecord> notified;
  sim::Time now = 0;

  explicit Harness(AdmissionParams params = {}) : q(db, params) {
    q.set_clock([this] { return now; });
    q.set_dispatch([this](net::FlowId flow, const net::Path&) {
      const p4rt::Version v = ++next_version[flow];
      dispatched.emplace_back(flow, v);
      return DispatchResult{v, true};
    });
    q.set_notify([this](const RequestRecord& r) { notified.push_back(r); });
  }
};

net::Path path_a() { return {1, 2, 3}; }
net::Path path_b() { return {1, 4, 3}; }

TEST(AdmissionQueueTest, PassThroughDispatchesImmediately) {
  Harness h;  // both bounds 0: strict pass-through
  const RequestId id = h.q.submit(7, RequestKind::kReroute, path_a());
  ASSERT_EQ(h.dispatched.size(), 1u);
  const RequestRecord* rec = h.db.request(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, RequestState::kDispatched);
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(h.q.queued_now(), 0u);
  EXPECT_EQ(h.q.inflight_now(), 1u);

  h.now = sim::milliseconds(50);
  h.q.on_update_settled(7, 1, UpdateOutcome::kCompleted);
  EXPECT_EQ(h.db.request(id)->state, RequestState::kCompleted);
  EXPECT_EQ(h.db.request(id)->finished_at, sim::milliseconds(50));
  EXPECT_TRUE(h.db.all_requests_terminal());
  ASSERT_EQ(h.notified.size(), 1u);
  EXPECT_EQ(h.notified[0].id, id);
}

TEST(AdmissionQueueTest, PerFlowBoundQueuesSecondRequest) {
  AdmissionParams p;
  p.max_inflight_per_flow = 1;
  p.coalesce = false;
  Harness h(p);
  h.q.submit(7, RequestKind::kReroute, path_a());
  const RequestId second = h.q.submit(7, RequestKind::kReroute, path_b());
  EXPECT_EQ(h.dispatched.size(), 1u);
  EXPECT_EQ(h.q.queued_now(), 1u);
  EXPECT_EQ(h.db.request(second)->state, RequestState::kQueued);

  // Settling the first pumps the second into the freed slot.
  h.q.on_update_settled(7, 1, UpdateOutcome::kCompleted);
  EXPECT_EQ(h.dispatched.size(), 2u);
  EXPECT_EQ(h.q.queued_now(), 0u);
  EXPECT_EQ(h.db.request(second)->state, RequestState::kDispatched);
  EXPECT_EQ(h.db.request(second)->version, 2u);
}

TEST(AdmissionQueueTest, GlobalBoundIsFifoAcrossFlows) {
  AdmissionParams p;
  p.max_inflight_global = 1;
  Harness h(p);
  h.q.submit(1, RequestKind::kReroute, path_a());
  const RequestId r2 = h.q.submit(2, RequestKind::kReroute, path_a());
  const RequestId r3 = h.q.submit(3, RequestKind::kReroute, path_a());
  EXPECT_EQ(h.dispatched.size(), 1u);
  EXPECT_EQ(h.q.queued_now(), 2u);

  h.q.on_update_settled(1, 1, UpdateOutcome::kCompleted);
  ASSERT_EQ(h.dispatched.size(), 2u);
  EXPECT_EQ(h.dispatched[1].first, 2);  // FIFO: flow 2 before flow 3
  EXPECT_EQ(h.db.request(r2)->state, RequestState::kDispatched);
  EXPECT_EQ(h.db.request(r3)->state, RequestState::kQueued);
}

TEST(AdmissionQueueTest, SkipScanPassesBlockedFlow) {
  // Flow 7 is at its per-flow cap; a younger request of flow 8 may pass it.
  AdmissionParams p;
  p.max_inflight_per_flow = 1;
  p.coalesce = false;
  Harness h(p);
  h.q.submit(7, RequestKind::kReroute, path_a());
  h.q.submit(7, RequestKind::kReroute, path_b());  // queued: flow at cap
  h.q.submit(8, RequestKind::kReroute, path_a());  // dispatches: free flow
  ASSERT_EQ(h.dispatched.size(), 2u);
  EXPECT_EQ(h.dispatched[1].first, 8);
  EXPECT_EQ(h.q.queued_now(), 1u);
}

TEST(AdmissionQueueTest, SkipScanDispatchesInFifoOrderPastBlockedFlows) {
  // Flows 7 and 8 hold their one slot each with a second request queued
  // behind it. Every freed global slot goes to the oldest queued request
  // whose flow is free: 9, 10 and 11 pass the blocked pair in submit order,
  // and each blocked request goes once its own flow settles.
  AdmissionParams p;
  p.max_inflight_global = 3;
  p.max_inflight_per_flow = 1;
  p.coalesce = false;
  Harness h(p);
  h.q.submit(7, RequestKind::kReroute, path_a());
  h.q.submit(8, RequestKind::kReroute, path_a());
  h.q.submit(12, RequestKind::kReroute, path_a());
  h.q.submit(7, RequestKind::kReroute, path_b());
  h.q.submit(8, RequestKind::kReroute, path_b());
  h.q.submit(9, RequestKind::kReroute, path_a());
  h.q.submit(10, RequestKind::kReroute, path_a());
  h.q.submit(11, RequestKind::kReroute, path_a());
  ASSERT_EQ(h.dispatched.size(), 3u);
  EXPECT_EQ(h.q.queued_now(), 5u);

  h.q.on_update_settled(12, 1, UpdateOutcome::kCompleted);
  h.q.on_update_settled(9, 1, UpdateOutcome::kCompleted);
  h.q.on_update_settled(10, 1, UpdateOutcome::kCompleted);
  EXPECT_EQ(h.q.queued_now(), 2u) << "7 and 8 still wait for their flows";
  h.q.on_update_settled(8, 1, UpdateOutcome::kCompleted);
  h.q.on_update_settled(7, 1, UpdateOutcome::kCompleted);
  const std::vector<std::pair<net::FlowId, p4rt::Version>> want = {
      {7, 1}, {8, 1}, {12, 1}, {9, 1}, {10, 1}, {11, 1}, {8, 2}, {7, 2}};
  EXPECT_EQ(h.dispatched, want);
  EXPECT_EQ(h.q.queued_now(), 0u);
  EXPECT_EQ(h.q.inflight_now(), 3u);
}

TEST(AdmissionQueueTest, CoalesceReplacesQueuedRequestInPlace) {
  AdmissionParams p;
  p.max_inflight_per_flow = 1;
  p.coalesce = true;
  Harness h(p);
  h.q.submit(7, RequestKind::kReroute, path_a());
  const RequestId stale = h.q.submit(7, RequestKind::kReroute, path_a());
  const RequestId fresh = h.q.submit(7, RequestKind::kReroute, path_b());
  // The replacement inherits the queue slot; the stale request settles
  // kSuperseded immediately and is notified.
  EXPECT_EQ(h.q.queued_now(), 1u);
  EXPECT_EQ(h.q.coalesced_total(), 1u);
  EXPECT_EQ(h.db.request(stale)->state, RequestState::kSuperseded);
  ASSERT_EQ(h.notified.size(), 1u);
  EXPECT_EQ(h.notified[0].id, stale);

  h.q.on_update_settled(7, 1, UpdateOutcome::kCompleted);
  EXPECT_EQ(h.db.request(fresh)->state, RequestState::kDispatched);
  ASSERT_EQ(h.dispatched.size(), 2u);
}

TEST(AdmissionQueueTest, RefusedDispatchSettlesRolledBack) {
  Harness h;
  h.q.set_dispatch([](net::FlowId, const net::Path&) {
    return DispatchResult{0, false};  // preflight refusal: nothing issued
  });
  const RequestId id = h.q.submit(7, RequestKind::kReroute, path_a());
  EXPECT_EQ(h.db.request(id)->state, RequestState::kRolledBack);
  EXPECT_EQ(h.q.refused_total(), 1u);
  EXPECT_EQ(h.q.inflight_now(), 0u);
  EXPECT_TRUE(h.db.all_requests_terminal());
}

TEST(AdmissionQueueTest, VersionZeroDispatchAttributedAtSettle) {
  // ez-Segway internal queueing: dispatch accepts without a version; the
  // settle for whatever version the controller later issued must resolve
  // the oldest version-less active request (per-flow issue order is FIFO).
  AdmissionParams p;
  p.max_inflight_per_flow = 2;
  p.coalesce = false;
  Harness h(p);
  h.q.set_dispatch([&h](net::FlowId flow, const net::Path&) {
    h.dispatched.emplace_back(flow, 0);
    return DispatchResult{0, true};
  });
  const RequestId first = h.q.submit(7, RequestKind::kReroute, path_a());
  const RequestId second = h.q.submit(7, RequestKind::kReroute, path_b());
  EXPECT_EQ(h.q.inflight_now(), 2u);

  h.q.on_update_settled(7, 4, UpdateOutcome::kCompleted);
  EXPECT_EQ(h.db.request(first)->state, RequestState::kCompleted);
  EXPECT_EQ(h.db.request(first)->version, 4u);  // backfilled at settle
  EXPECT_EQ(h.db.request(second)->state, RequestState::kDispatched);
  h.q.on_update_settled(7, 5, UpdateOutcome::kRolledBack);
  EXPECT_EQ(h.db.request(second)->state, RequestState::kRolledBack);
  EXPECT_TRUE(h.db.all_requests_terminal());
}

TEST(AdmissionQueueTest, SettleSupersedesOlderActiveVersionsFirst) {
  // P4Update fast-forward: version 2 completing supersedes in-flight
  // version 1, and the notifications arrive in version order.
  AdmissionParams p;
  p.max_inflight_per_flow = 2;
  p.coalesce = false;
  Harness h(p);
  const RequestId old_req = h.q.submit(7, RequestKind::kReroute, path_a());
  const RequestId new_req = h.q.submit(7, RequestKind::kReroute, path_b());
  h.q.on_update_settled(7, 2, UpdateOutcome::kCompleted);
  EXPECT_EQ(h.db.request(old_req)->state, RequestState::kSuperseded);
  EXPECT_EQ(h.db.request(new_req)->state, RequestState::kCompleted);
  ASSERT_EQ(h.notified.size(), 2u);
  EXPECT_EQ(h.notified[0].id, old_req);  // superseded notified first
  EXPECT_EQ(h.notified[1].id, new_req);
  EXPECT_EQ(h.q.inflight_now(), 0u);
}

TEST(AdmissionQueueTest, NoteInstantSettlesCompletedImmediately) {
  Harness h;
  h.now = sim::milliseconds(7);
  const RequestId id = h.q.note_instant(9, RequestKind::kAdd);
  const RequestRecord* rec = h.db.request(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, RequestState::kCompleted);
  EXPECT_EQ(rec->kind, RequestKind::kAdd);
  EXPECT_EQ(rec->submitted_at, sim::milliseconds(7));
  EXPECT_EQ(rec->finished_at, sim::milliseconds(7));
  EXPECT_TRUE(h.dispatched.empty());
  ASSERT_EQ(h.notified.size(), 1u);
}

TEST(AdmissionQueueTest, ReentrantSettleFromDispatchIsSafe) {
  // Central's trivial inline completion: schedule_update settles the
  // update before returning from dispatch. The request must still end
  // kCompleted and the queue must keep pumping.
  AdmissionParams p;
  p.max_inflight_global = 1;
  Harness h(p);
  h.q.set_dispatch([&h](net::FlowId flow, const net::Path&) {
    const p4rt::Version v = ++h.next_version[flow];
    h.dispatched.emplace_back(flow, v);
    h.q.on_update_settled(flow, v, UpdateOutcome::kCompleted);  // inline
    return DispatchResult{v, true};
  });
  const RequestId a = h.q.submit(1, RequestKind::kReroute, path_a());
  const RequestId b = h.q.submit(2, RequestKind::kReroute, path_a());
  EXPECT_EQ(h.db.request(a)->state, RequestState::kCompleted);
  EXPECT_EQ(h.db.request(b)->state, RequestState::kCompleted);
  EXPECT_EQ(h.dispatched.size(), 2u);
  EXPECT_EQ(h.q.inflight_now(), 0u);
  EXPECT_TRUE(h.db.all_requests_terminal());
}

TEST(AdmissionQueueTest, PeaksAndTotalsTrack) {
  AdmissionParams p;
  p.max_inflight_global = 2;
  p.coalesce = false;
  Harness h(p);
  h.q.submit(1, RequestKind::kReroute, path_a());
  h.q.submit(2, RequestKind::kReroute, path_a());
  h.q.submit(3, RequestKind::kReroute, path_a());
  h.q.submit(4, RequestKind::kReroute, path_a());
  EXPECT_EQ(h.q.inflight_peak(), 2u);
  EXPECT_EQ(h.q.queued_peak(), 2u);
  EXPECT_EQ(h.q.dispatched_total(), 2u);
  h.q.on_update_settled(1, 1, UpdateOutcome::kCompleted);
  h.q.on_update_settled(2, 1, UpdateOutcome::kCompleted);
  EXPECT_EQ(h.q.dispatched_total(), 4u);
  EXPECT_EQ(h.q.queued_now(), 0u);
}

}  // namespace
}  // namespace p4u::control
