#include "obs/run_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "harness/campaign.hpp"
#include "sim/stats.hpp"

namespace p4u::obs {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// A directory of this test's own (mkdtemp), removed when the test ends, so
// suites run at once on one host never share or delete each other's.
struct TempDir {
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  const std::string dir = harness::make_unique_dir(
      ::testing::TempDir(),
      std::string("p4u_report_test_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
};

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(RunReportTest, WritesMetaCountersAndSamples) {
  TempDir tmp;
  MetricsRegistry m;
  m.counter("fabric.tx", {{"msg", "UIM"}, {"switch", "3"}}).inc(12);
  m.gauge("switch.queue_depth", {{"switch", "0"}}).set(2.0);
  m.histogram("fabric.hop_latency_ms", {}, {1.0, 10.0}).observe(3.0);

  sim::Samples s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);

  RunReport rep(tmp.dir, "unit");
  rep.set_meta("figure", "7");
  rep.set_meta("runs", std::uint64_t{30});
  rep.add_metrics(m);
  rep.add_samples("unit.update_time_ms", s, "ms");
  const std::string path = rep.write();

  EXPECT_EQ(path, (fs::path(tmp.dir) / "unit.jsonl").string());
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 5u);  // meta + counter + gauge + histogram + samples
  EXPECT_EQ(lines[0],
            "{\"type\":\"meta\",\"run\":\"unit\",\"figure\":\"7\","
            "\"runs\":30}");
  EXPECT_EQ(lines[1],
            "{\"type\":\"counter\",\"name\":\"fabric.tx\","
            "\"labels\":{\"msg\":\"UIM\",\"switch\":\"3\"},\"value\":12}");
  EXPECT_NE(lines[2].find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"buckets\":[{\"le\":1,\"count\":0},"
                          "{\"le\":10,\"count\":1},"
                          "{\"le\":\"inf\",\"count\":0}]"),
            std::string::npos);
  EXPECT_NE(lines[4].find("\"type\":\"samples\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"raw\":[1,2,3]"), std::string::npos);

  // Raw samples also land in the flat CSV.
  const auto csv = read_lines((fs::path(tmp.dir) / "unit.csv").string());
  ASSERT_EQ(csv.size(), 4u);
  EXPECT_EQ(csv[0], "series,value");
  EXPECT_EQ(csv[1], "unit.update_time_ms,1");
}

TEST(RunReportTest, EveryLineIsBalancedJson) {
  // Cheap structural check without a JSON parser: braces/brackets balance
  // and each line is one object.
  TempDir tmp;
  MetricsRegistry m;
  m.counter("weird\"name\\", {{"k\n", "v\t"}}).inc();
  RunReport rep(tmp.dir, "esc");
  rep.set_meta("note", "quote \" backslash \\ done");
  rep.add_metrics(m);
  for (const std::string& line : read_lines(rep.write())) {
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') ++i;         // skip escaped char
        else if (c == '"') in_string = false;
        continue;
      }
      if (c == '"') in_string = true;
      else if (c == '{' || c == '[') ++depth;
      else if (c == '}' || c == ']') --depth;
    }
    EXPECT_FALSE(in_string) << line;
    EXPECT_EQ(depth, 0) << line;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(RunReportTest, EmptySamplesOmitStatsButKeepCount) {
  TempDir tmp;
  RunReport rep(tmp.dir, "empty");
  rep.add_samples("nothing", sim::Samples{}, "ms");
  const auto lines = read_lines(rep.write());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"count\":0"), std::string::npos);
  EXPECT_EQ(lines[1].find("\"mean\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"raw\":[]"), std::string::npos);
}

TEST(RunReportTest, WriteThrowsWhenDirectoryIsAFile) {
  TempDir tmp;
  fs::create_directories(tmp.dir);
  const std::string blocker = (fs::path(tmp.dir) / "file").string();
  std::ofstream(blocker) << "x";
  RunReport rep(blocker + "/sub", "r");
  EXPECT_THROW(rep.write(), std::runtime_error);
}

}  // namespace
}  // namespace p4u::obs
