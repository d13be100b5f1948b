#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace p4u::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_in(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_in(milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(SimulatorTest, BreaksTiesByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(milliseconds(1), [&] {
    ++fired;
    sim.schedule_in(milliseconds(1), [&] {
      ++fired;
      sim.schedule_in(milliseconds(1), [&] { ++fired; });
    });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), milliseconds(3));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_in(milliseconds(5), [&] {
    sim.schedule_in(-milliseconds(10), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, milliseconds(5));
}

TEST(SimulatorTest, NearInfiniteDelaySaturatesInsteadOfWrapping) {
  // now + kTimeInfinity must not overflow into the past: the event parks at
  // the end of time and never fires inside a bounded run.
  Simulator sim;
  bool fired = false;
  sim.schedule_in(milliseconds(5), [&] {
    sim.schedule_in(kTimeInfinity, [&] { fired = true; });
  });
  sim.run(seconds(3600));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.now(), milliseconds(5));
  // An unbounded run still reaches it (it sits at kTimeInfinity, not beyond).
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtBound) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(milliseconds(1), [&] { ++fired; });
  sim.schedule_in(milliseconds(100), [&] { ++fired; });
  EXPECT_EQ(sim.run(milliseconds(50)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  // Resume past the bound.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunStepsExecutesBoundedCount) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_in(milliseconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_steps(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.run_steps(100), 3u);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(milliseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(milliseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, ScheduleAtInThePastClampsToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_in(milliseconds(10), [&] {
    sim.schedule_at(milliseconds(1), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, milliseconds(10));
}

TEST(SimulatorTest, ExecutedCounterAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 7u);
}

// Schedules `n` events at LCG-shuffled offsets in [0, 997) ns from now, so
// many share an instant; each appends its schedule index to `popped` when it
// runs. Returns the expected pop order: the indices sorted by (at, index).
std::vector<std::size_t> schedule_shuffled(Simulator& sim, std::size_t n,
                                           std::vector<std::size_t>& popped) {
  std::vector<Time> at(n);
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    at[i] = sim.now() + static_cast<Time>((lcg >> 33) % 997);
    sim.schedule_at(at[i], [&popped, i] { popped.push_back(i); });
  }
  std::vector<std::size_t> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = i;
  std::stable_sort(
      expected.begin(), expected.end(),
      [&at](std::size_t a, std::size_t b) { return at[a] < at[b]; });
  return expected;
}

TEST(SimulatorPoolTest, SlabsAreAllocatedOnFirstUseAndRecycled) {
  Simulator sim;
  sim.reserve(1u << 20);  // index capacity only: no handler slab yet
  EXPECT_EQ(sim.pool_slots(), 0u);
  std::vector<std::size_t> popped;

  // 5,000 pending events need five 1,024-slot slabs; the pop order must
  // stay (at, seq) across the slab boundaries.
  std::vector<std::size_t> expected = schedule_shuffled(sim, 5000, popped);
  EXPECT_EQ(sim.pool_slots(), 5u * 1024u);
  EXPECT_EQ(sim.run(), 5000u);
  EXPECT_EQ(popped, expected);
  EXPECT_EQ(sim.pending_peak(), 5000u);

  // A second wave of the same size reuses the recycled slots.
  popped.clear();
  expected = schedule_shuffled(sim, 5000, popped);
  EXPECT_EQ(sim.pool_slots(), 5u * 1024u);
  EXPECT_EQ(sim.run(), 5000u);
  EXPECT_EQ(popped, expected);
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(microseconds(1000), milliseconds(1));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(1500)), 1500.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(2)), 2.0);
  EXPECT_EQ(milliseconds_f(0.5), microseconds(500));
}

}  // namespace
}  // namespace p4u::sim
