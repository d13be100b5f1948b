#include "sim/append_log.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace p4u::sim {
namespace {

TEST(AppendLogTest, ElementsStayPutAcrossChunks) {
  AppendLog<std::uint64_t, 4> log;
  std::vector<const std::uint64_t*> addresses;
  for (std::uint64_t v = 0; v < 19; ++v) {
    const std::uint32_t i = log.append();
    EXPECT_EQ(i, v);
    EXPECT_EQ(log[i], 0u) << "appended elements start default";
    log[i] = v * 10;
    addresses.push_back(&log[i]);
  }
  EXPECT_EQ(log.size(), 19u);
  for (std::uint32_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(&log[i], addresses[i]) << "element " << i << " moved";
    EXPECT_EQ(log[i], i * 10u);
  }
}

TEST(AppendLogTest, ClearStartsOver) {
  AppendLog<int, 2> log;
  log[log.append()] = 7;
  log[log.append()] = 8;
  log[log.append()] = 9;
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  const std::uint32_t i = log.append();
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(log[i], 0) << "a cleared log hands out fresh elements";
}

}  // namespace
}  // namespace p4u::sim
