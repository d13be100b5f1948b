#include "core/uib.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace p4u::core {
namespace {

TEST(UibTest, UnknownFlowHasZeroState) {
  Uib uib;
  EXPECT_FALSE(uib.knows(5));
  const AppliedState s = uib.applied(5);
  EXPECT_EQ(s.new_version, 0);
  EXPECT_EQ(s.new_distance, p4rt::kNoDistance);
  EXPECT_EQ(s.old_version, 0);
  EXPECT_EQ(uib.pending_uim(5), nullptr);
  EXPECT_DOUBLE_EQ(uib.flow_size(5), 0.0);
  EXPECT_FALSE(uib.high_priority(5));
}

TEST(UibTest, WriteAndReadAppliedRoundTrips) {
  // Table 1 registers must round-trip every field.
  Uib uib;
  AppliedState s;
  s.new_version = 3;
  s.new_distance = 4;
  s.old_version = 2;
  s.old_distance = 1;
  s.counter = 9;
  s.last_type = UpdateType::kDualLayer;
  s.ever_dual = true;
  uib.write_applied(42, s);
  const AppliedState r = uib.applied(42);
  EXPECT_EQ(r.new_version, 3);
  EXPECT_EQ(r.new_distance, 4);
  EXPECT_EQ(r.old_version, 2);
  EXPECT_EQ(r.old_distance, 1);
  EXPECT_EQ(r.counter, 9);
  EXPECT_EQ(r.last_type, UpdateType::kDualLayer);
  EXPECT_TRUE(r.ever_dual);
  EXPECT_TRUE(uib.knows(42));
}

TEST(UibTest, OfferUimKeepsHighestVersion) {
  Uib uib;
  UimHeader v2;
  v2.flow = 1;
  v2.version = 2;
  UimHeader v3 = v2;
  v3.version = 3;
  EXPECT_TRUE(uib.offer_uim(v2));
  EXPECT_TRUE(uib.offer_uim(v3));
  EXPECT_FALSE(uib.offer_uim(v2));  // older: rejected
  ASSERT_NE(uib.pending_uim(1), nullptr);
  EXPECT_EQ(uib.pending_uim(1)->version, 3);
  // Equal version is also rejected (no replay of the same indication).
  EXPECT_FALSE(uib.offer_uim(v3));
}

TEST(UibTest, DropUimRemovesPending) {
  Uib uib;
  UimHeader u;
  u.flow = 1;
  u.version = 2;
  uib.offer_uim(u);
  uib.drop_uim(1);
  EXPECT_EQ(uib.pending_uim(1), nullptr);
}

TEST(UibTest, FlowSizeAndPriorityRegisters) {
  Uib uib;
  uib.set_flow_size(1, 2.5);
  EXPECT_DOUBLE_EQ(uib.flow_size(1), 2.5);
  uib.set_high_priority(1, true);
  EXPECT_TRUE(uib.high_priority(1));
  uib.set_high_priority(1, false);
  EXPECT_FALSE(uib.high_priority(1));
}

TEST(UibTest, FlowsAreIndependent) {
  Uib uib;
  AppliedState s;
  s.new_version = 5;
  uib.write_applied(1, s);
  EXPECT_EQ(uib.applied(2).new_version, 0);
}

TEST(UibTest, RegisterCountersCountEveryAccess) {
  // The per-switch uib.register_{reads,writes} report counters sum these.
  // applied() reads seven registers (the type register twice),
  // write_applied() writes six, bring_up() seven (the applied state and the
  // flow size), and each scalar accessor touches one; reads
  // of a flow the UIB never saw count the same. The pending UIM is not a
  // Table-1 register and counts nothing.
  Uib uib;
  using Counts = std::pair<std::uint64_t, std::uint64_t>;
  const auto counts = [&uib] {
    return Counts{uib.register_reads(), uib.register_writes()};
  };
  EXPECT_EQ(counts(), (Counts{0, 0}));
  (void)uib.applied(5);
  EXPECT_EQ(counts(), (Counts{7, 0}));
  (void)uib.knows(5);
  EXPECT_EQ(counts(), (Counts{8, 0}));
  (void)uib.flow_size(5);
  EXPECT_EQ(counts(), (Counts{9, 0}));
  (void)uib.high_priority(5);
  EXPECT_EQ(counts(), (Counts{10, 0}));

  AppliedState s;
  s.new_version = 2;
  uib.write_applied(5, s);
  EXPECT_EQ(counts(), (Counts{10, 6}));
  uib.set_flow_size(5, 1.5);
  EXPECT_EQ(counts(), (Counts{10, 7}));
  uib.set_high_priority(5, true);
  EXPECT_EQ(counts(), (Counts{10, 8}));
  (void)uib.applied(5);
  EXPECT_EQ(counts(), (Counts{17, 8}));
  (void)uib.knows(5);
  (void)uib.flow_size(5);
  (void)uib.high_priority(5);
  EXPECT_EQ(counts(), (Counts{20, 8}));
  // A scalar write to a new flow, then reads of another unknown one.
  uib.set_flow_size(6, 2.0);
  (void)uib.applied(7);
  EXPECT_EQ(counts(), (Counts{27, 9}));
  // Bring-up writes the applied state and flow_size: seven writes.
  AppliedState b;
  b.new_version = 4;
  b.new_distance = 3;
  b.old_distance = 3;
  b.counter = 2;
  b.last_type = UpdateType::kDualLayer;
  uib.bring_up(8, b, 2.5);
  EXPECT_EQ(counts(), (Counts{27, 16}));
  const AppliedState got = uib.applied(8);
  EXPECT_EQ(got.new_version, 4);
  EXPECT_EQ(got.new_distance, 3);
  EXPECT_EQ(got.old_version, 0);
  EXPECT_EQ(got.old_distance, 3);
  EXPECT_EQ(got.counter, 2);
  EXPECT_EQ(got.last_type, UpdateType::kDualLayer);
  EXPECT_DOUBLE_EQ(uib.flow_size(8), 2.5);
  EXPECT_FALSE(uib.high_priority(8));
  EXPECT_EQ(counts(), (Counts{36, 16}));

  UimHeader u;
  u.flow = 5;
  u.version = 3;
  EXPECT_TRUE(uib.offer_uim(u));
  EXPECT_NE(uib.pending_uim(5), nullptr);
  uib.drop_uim(5);
  EXPECT_EQ(uib.pending_uim(7), nullptr);
  EXPECT_EQ(counts(), (Counts{36, 16}));
}

}  // namespace
}  // namespace p4u::core
