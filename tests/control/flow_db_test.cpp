#include "control/flow_db.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace p4u::control {
namespace {

TEST(FlowDbTest, IssueCompleteLifecycle) {
  FlowDb db;
  db.on_issued(7, 2, sim::milliseconds(10), {});
  EXPECT_FALSE(db.all_completed());
  db.on_completed(7, 2, sim::milliseconds(110));
  EXPECT_TRUE(db.all_completed());
  ASSERT_TRUE(db.duration(7, 2).has_value());
  EXPECT_EQ(*db.duration(7, 2), sim::milliseconds(100));
}

TEST(FlowDbTest, AlarmMarksFailed) {
  FlowDb db;
  db.on_issued(7, 2, 0, {});
  db.on_alarm(7, 2);
  db.on_alarm(7, 2);
  const UpdateRecord* r = db.record(7, 2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->state, UpdateState::kFailed);
  EXPECT_EQ(r->alarms, 2u);
  EXPECT_EQ(db.total_alarms(), 2u);
  EXPECT_FALSE(db.duration(7, 2).has_value());
}

TEST(FlowDbTest, LaterIssueSupersedesInProgress) {
  FlowDb db;
  db.on_issued(7, 2, 0, {});
  db.on_issued(7, 3, sim::milliseconds(5), {});
  EXPECT_EQ(db.record(7, 2)->state, UpdateState::kSuperseded);
  EXPECT_EQ(db.record(7, 3)->state, UpdateState::kInProgress);
  // A superseded update never blocks all_completed.
  db.on_completed(7, 3, sim::milliseconds(10));
  EXPECT_TRUE(db.all_completed());
}

TEST(FlowDbTest, UnknownFlowQueriesAreSafe) {
  FlowDb db;
  EXPECT_EQ(db.latest(1), nullptr);
  EXPECT_EQ(db.record(1, 1), nullptr);
  EXPECT_FALSE(db.duration(1, 1).has_value());
  db.on_completed(1, 1, 5);  // no-op, no crash
  db.on_alarm(1, 1);
  EXPECT_EQ(db.total_alarms(), 0u);
}

TEST(FlowDbTest, CompletionAfterAlarmStillRecordsTime) {
  // An alarm from one switch does not prevent eventual convergence.
  FlowDb db;
  db.on_issued(9, 4, 0, {});
  db.on_alarm(9, 4);
  db.on_completed(9, 4, sim::milliseconds(50));
  EXPECT_EQ(db.record(9, 4)->state, UpdateState::kCompleted);
  EXPECT_TRUE(db.duration(9, 4).has_value());
}

TEST(FlowDbTest, MultipleFlowsTrackedIndependently) {
  FlowDb db;
  db.on_issued(1, 2, 0, {});
  db.on_issued(2, 2, 0, {});
  db.on_completed(1, 2, sim::milliseconds(30));
  EXPECT_FALSE(db.all_completed());
  db.on_completed(2, 2, sim::milliseconds(60));
  EXPECT_TRUE(db.all_completed());
}

// Every record keeps the path it was issued for, also past the inline
// capacity, and a record read earlier stays put while later issues append.
TEST(FlowDbTest, EachRecordKeepsItsIssuedPath) {
  // 2 to 12 nodes: some paths spill past the eight inline ones.
  auto path_of = [](net::FlowId f, p4rt::Version v) {
    std::vector<net::NodeId> p(static_cast<std::size_t>(2 + v % 11));
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<net::NodeId>(100 * f + i) +
             static_cast<net::NodeId>(v);
    }
    return p;
  };
  FlowDb db;
  db.on_issued(1, 2, 0, path_of(1, 2));
  const UpdateRecord* first = db.record(1, 2);
  ASSERT_NE(first, nullptr);
  // Enough versions over three flows to fill several log chunks.
  for (p4rt::Version v = 3; v < 400; ++v) {
    for (const net::FlowId f : {1, 2, 3}) db.on_issued(f, v, v, path_of(f, v));
  }
  db.on_issued(4, 7, 0, {});  // a destination-tree update carries no path
  EXPECT_EQ(db.record(1, 2), first);
  for (const net::FlowId f : {1, 2, 3}) {
    for (p4rt::Version v = f == 1 ? 2 : 3; v < 400; ++v) {
      const UpdateRecord* r = db.record(f, v);
      ASSERT_NE(r, nullptr) << "flow " << f << " v" << v;
      EXPECT_EQ(std::vector<net::NodeId>(r->path.begin(), r->path.end()),
                path_of(f, v))
          << "flow " << f << " v" << v;
    }
    EXPECT_EQ(db.latest(f)->version, 399);
  }
  EXPECT_TRUE(db.record(4, 7)->path.empty());
  EXPECT_EQ(db.record(2, 2), nullptr);
}

// --- randomized model check --------------------------------------------------
//
// Drives a few flows through random interleavings of issue, complete, alarm
// and give-up (late completions of superseded versions, repeated completions
// and versions never issued included) and compares every FlowDb answer after
// each step with a plain per-flow vector model. Versions strictly increase
// per flow, as the NIB hands them out.

struct ModelDb {
  std::map<net::FlowId, std::vector<UpdateRecord>> flows;

  void issued(net::FlowId f, p4rt::Version v, sim::Time at) {
    auto& hist = flows[f];
    for (UpdateRecord& r : hist) {
      if (r.state == UpdateState::kInProgress) {
        r.state = UpdateState::kSuperseded;
      }
    }
    UpdateRecord r;
    r.version = v;
    r.issued_at = at;
    hist.push_back(r);
  }
  void completed(net::FlowId f, p4rt::Version v, sim::Time at) {
    for (UpdateRecord& r : flows[f]) {
      if (r.version == v && r.completed_at == 0) {
        r.completed_at = at;
        r.state = UpdateState::kCompleted;
        r.outcome = UpdateOutcome::kCompleted;
      }
    }
  }
  void alarm(net::FlowId f, p4rt::Version v) {
    for (UpdateRecord& r : flows[f]) {
      if (r.version != v) continue;
      ++r.alarms;
      if (r.state == UpdateState::kInProgress) r.state = UpdateState::kFailed;
    }
  }
  void gave_up(net::FlowId f, p4rt::Version v, UpdateOutcome o, sim::Time at) {
    for (UpdateRecord& r : flows[f]) {
      if (r.version != v || r.outcome != UpdateOutcome::kPending) continue;
      r.outcome = o;
      r.completed_at = at;
      if (r.state == UpdateState::kInProgress) r.state = UpdateState::kFailed;
    }
  }
  [[nodiscard]] const UpdateRecord* record(net::FlowId f,
                                           p4rt::Version v) const {
    const auto it = flows.find(f);
    if (it == flows.end()) return nullptr;
    for (const UpdateRecord& r : it->second) {
      if (r.version == v) return &r;
    }
    return nullptr;
  }
  [[nodiscard]] std::uint64_t nonterminal() const {
    std::uint64_t n = 0;
    for (const auto& [f, hist] : flows) {
      if (!hist.empty() && hist.back().outcome == UpdateOutcome::kPending) ++n;
    }
    return n;
  }
};

void expect_same(const UpdateRecord* got, const UpdateRecord* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (want == nullptr) return;
  EXPECT_EQ(got->version, want->version);
  EXPECT_EQ(got->issued_at, want->issued_at);
  EXPECT_EQ(got->completed_at, want->completed_at);
  EXPECT_EQ(got->state, want->state);
  EXPECT_EQ(got->alarms, want->alarms);
  EXPECT_EQ(got->outcome, want->outcome);
}

class FlowDbModelTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowDbModelTest, EveryAnswerMatchesAPerFlowVectorModel) {
  constexpr net::FlowId kFlows[] = {7, 12, 1000, 0xFFFF0001ULL};
  constexpr net::FlowId kNeverIssued = 99;
  sim::Rng rng(0xF10DBULL + static_cast<std::uint64_t>(GetParam()));
  FlowDb db;
  ModelDb model;
  std::map<net::FlowId, p4rt::Version> newest;  // 0: none issued yet
  sim::Time now = 0;

  // A version to complete, alarm or give up: mostly the newest, often an
  // older (superseded or settled) one, sometimes one never issued.
  auto pick_version = [&](net::FlowId f) -> p4rt::Version {
    const p4rt::Version top = newest[f];
    const std::uint64_t roll = rng.uniform(10);
    if (top == 0 || roll == 0) {
      return top + 1 + static_cast<p4rt::Version>(rng.uniform(2));
    }
    if (roll < 5) return top;
    return 1 + static_cast<p4rt::Version>(
                   rng.uniform(static_cast<std::uint64_t>(top)));
  };

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " step "
                                      << step);
    now += sim::milliseconds(static_cast<std::int64_t>(rng.uniform(4)));
    const net::FlowId f = kFlows[rng.uniform(std::size(kFlows))];
    switch (rng.uniform(8)) {
      case 0:
      case 1: {
        const p4rt::Version v =
            newest[f] + 1 + static_cast<p4rt::Version>(rng.uniform(2));
        newest[f] = v;
        db.on_issued(f, v, now, {});
        model.issued(f, v, now);
        break;
      }
      case 2:
      case 3:
      case 4: {
        const p4rt::Version v = pick_version(f);
        db.on_completed(f, v, now);
        model.completed(f, v, now);
        break;
      }
      case 5: {
        const p4rt::Version v = pick_version(f);
        db.on_alarm(f, v);
        model.alarm(f, v);
        break;
      }
      default: {
        const p4rt::Version v = pick_version(f);
        const UpdateOutcome o = rng.uniform(2) == 0
                                    ? UpdateOutcome::kRolledBack
                                    : UpdateOutcome::kAbandoned;
        db.on_gave_up(f, v, o, now);
        model.gave_up(f, v, o, now);
        break;
      }
    }

    std::uint64_t alarms = 0;
    std::uint64_t by_outcome[4] = {0, 0, 0, 0};
    bool all_completed = true;
    for (const net::FlowId g : kFlows) {
      // Every version up to two past the newest, issued or not.
      for (p4rt::Version v = 0; v <= newest[g] + 2; ++v) {
        expect_same(db.record(g, v), model.record(g, v));
        const UpdateRecord* want = model.record(g, v);
        std::optional<sim::Duration> d;
        if (want != nullptr && want->state == UpdateState::kCompleted) {
          d = want->completed_at - want->issued_at;
        }
        EXPECT_EQ(db.duration(g, v), d);
      }
      const auto it = model.flows.find(g);
      const std::vector<UpdateRecord> none;
      const std::vector<UpdateRecord>& want =
          it != model.flows.end() ? it->second : none;
      std::vector<const UpdateRecord*> got;
      db.for_each_record(g, [&](const UpdateRecord& r) { got.push_back(&r); });
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_same(got[i], &want[i]);
      }
      expect_same(db.latest(g), want.empty() ? nullptr : &want.back());
      for (const UpdateRecord& r : want) {
        alarms += r.alarms;
        by_outcome[static_cast<std::size_t>(r.outcome)] += 1;
        if (r.state == UpdateState::kInProgress) all_completed = false;
      }
    }
    EXPECT_EQ(db.latest(kNeverIssued), nullptr);
    EXPECT_EQ(db.record(kNeverIssued, 1), nullptr);
    EXPECT_EQ(db.all_completed(), all_completed);
    EXPECT_EQ(db.total_alarms(), alarms);
    EXPECT_EQ(db.nonterminal_updates(), model.nonterminal());
    EXPECT_EQ(db.all_terminal(), model.nonterminal() == 0);

    obs::MetricsRegistry m;
    db.export_outcomes(m);
    for (const UpdateOutcome o :
         {UpdateOutcome::kCompleted, UpdateOutcome::kRolledBack,
          UpdateOutcome::kAbandoned}) {
      EXPECT_EQ(m.counter_value("ctrl.outcome", {{"outcome", to_string(o)}}),
                by_outcome[static_cast<std::size_t>(o)]);
    }
    EXPECT_EQ(m.gauge("ctrl.updates_nonterminal").value(),
              static_cast<double>(model.nonterminal()));
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDbModelTest, ::testing::Range(0, 32));

TEST(FlowDbRequestTest, LedgerLifecycle) {
  FlowDb db;
  const RequestId id =
      db.request_submitted(7, RequestKind::kReroute, sim::milliseconds(1));
  EXPECT_EQ(id, 1u);  // ids are 1-based in submit order
  const RequestRecord* rec = db.request(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, RequestState::kQueued);
  EXPECT_EQ(rec->submitted_at, sim::milliseconds(1));
  EXPECT_FALSE(db.all_requests_terminal());

  db.request_dispatched(id, 3, sim::milliseconds(2));
  EXPECT_EQ(db.request(id)->state, RequestState::kDispatched);
  EXPECT_EQ(db.request(id)->version, 3u);
  EXPECT_EQ(db.request(id)->dispatched_at, sim::milliseconds(2));

  db.request_finished(id, RequestState::kCompleted, sim::milliseconds(40));
  EXPECT_EQ(db.request(id)->state, RequestState::kCompleted);
  EXPECT_EQ(db.request(id)->finished_at, sim::milliseconds(40));
  EXPECT_TRUE(db.all_requests_terminal());
  EXPECT_EQ(db.requests_nonterminal(), 0u);
}

TEST(FlowDbRequestTest, VersionBackfillAfterDispatch) {
  // ez-Segway dispatches without a version when the flow's previous update
  // is still in flight; the version arrives at settle time.
  FlowDb db;
  const RequestId id = db.request_submitted(7, RequestKind::kReroute, 0);
  db.request_dispatched(id, 0, sim::milliseconds(1));
  EXPECT_EQ(db.request(id)->version, 0u);
  db.request_version(id, 5);
  EXPECT_EQ(db.request(id)->version, 5u);
}

TEST(FlowDbRequestTest, TerminalStateIsSticky) {
  FlowDb db;
  const RequestId id = db.request_submitted(7, RequestKind::kReroute, 0);
  db.request_dispatched(id, 1, 0);
  db.request_finished(id, RequestState::kSuperseded, sim::milliseconds(5));
  // A late settle for the already-closed request must not reopen or
  // restamp it.
  db.request_finished(id, RequestState::kCompleted, sim::milliseconds(9));
  EXPECT_EQ(db.request(id)->state, RequestState::kSuperseded);
  EXPECT_EQ(db.request(id)->finished_at, sim::milliseconds(5));
}

TEST(FlowDbRequestTest, NonterminalCountsAcrossStates) {
  FlowDb db;
  const RequestId a = db.request_submitted(1, RequestKind::kAdd, 0);
  const RequestId b = db.request_submitted(2, RequestKind::kReroute, 0);
  const RequestId c = db.request_submitted(3, RequestKind::kRemove, 0);
  db.request_dispatched(b, 1, 0);
  EXPECT_EQ(db.requests_nonterminal(), 3u);  // queued + dispatched + queued
  db.request_finished(a, RequestState::kCompleted, 0);
  db.request_finished(b, RequestState::kRolledBack, 0);
  db.request_finished(c, RequestState::kAbandoned, 0);
  EXPECT_TRUE(db.all_requests_terminal());
  EXPECT_EQ(db.requests().size(), 3u);
}

TEST(FlowDbRequestTest, UnknownRequestQueriesAreSafe) {
  FlowDb db;
  EXPECT_EQ(db.request(0), nullptr);
  EXPECT_EQ(db.request(42), nullptr);
  db.request_dispatched(42, 1, 0);  // no-op, no crash
  db.request_version(42, 1);
  db.request_finished(42, RequestState::kCompleted, 0);
  EXPECT_TRUE(db.all_requests_terminal());
}

TEST(FlowDbRequestTest, ExportRequestsIsIdempotentTopUp) {
  FlowDb db;
  const RequestId a = db.request_submitted(1, RequestKind::kReroute, 0);
  db.request_dispatched(a, 1, 0);
  db.request_finished(a, RequestState::kCompleted, 0);
  const RequestId b = db.request_submitted(2, RequestKind::kAdd, 0);

  obs::MetricsRegistry m;
  db.export_requests(m);
  db.export_requests(m);  // top-up semantics: second call adds nothing
  EXPECT_EQ(m.counter_value("ctrl.request",
                            {{"kind", "reroute"}, {"state", "completed"}}),
            1u);
  // Nonterminal requests are counted by the gauge, not the counters (the
  // counter family only carries settled states, kept sparse).
  EXPECT_EQ(m.gauge("ctrl.requests_nonterminal").value(), 1.0);

  // The queued request settling tops the counters up by exactly one.
  db.request_dispatched(b, 1, 0);
  db.request_finished(b, RequestState::kCompleted, 0);
  db.export_requests(m);
  EXPECT_EQ(m.counter_value("ctrl.request",
                            {{"kind", "add"}, {"state", "completed"}}),
            1u);
  EXPECT_EQ(m.gauge("ctrl.requests_nonterminal").value(), 0.0);
}

TEST(FlowDbRequestTest, StateStringsAndTerminality) {
  EXPECT_STREQ(to_string(RequestState::kRolledBack), "rolled-back");
  EXPECT_STREQ(to_string(RequestState::kQueued), "queued");
  EXPECT_STREQ(to_string(RequestKind::kReroute), "reroute");
  EXPECT_FALSE(is_terminal(RequestState::kQueued));
  EXPECT_FALSE(is_terminal(RequestState::kDispatched));
  EXPECT_TRUE(is_terminal(RequestState::kCompleted));
  EXPECT_TRUE(is_terminal(RequestState::kRolledBack));
  EXPECT_TRUE(is_terminal(RequestState::kAbandoned));
  EXPECT_TRUE(is_terminal(RequestState::kSuperseded));
}

}  // namespace
}  // namespace p4u::control
