#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/random.hpp"

namespace p4u::sim {
namespace {

TEST(SamplesTest, BasicMoments) {
  Samples s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(SamplesTest, PercentileInterpolates) {
  Samples s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(SamplesTest, PercentileClampsOutOfRange) {
  Samples s;
  s.add(5.0);
  s.add(15.0);
  EXPECT_DOUBLE_EQ(s.percentile(-10), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(250), 15.0);
}

TEST(SamplesTest, EmptyThrows) {
  Samples s;
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(SamplesTest, SingleSample) {
  Samples s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci_halfwidth(), 0.0);
}

TEST(SamplesTest, CiHalfwidthShrinksWithMoreSamples) {
  Samples small, big;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : 3.0);
  for (int i = 0; i < 1000; ++i) big.add(i % 2 == 0 ? 1.0 : 3.0);
  EXPECT_GT(small.ci_halfwidth(), big.ci_halfwidth());
}

TEST(SamplesTest, AddAllAppends) {
  Samples s;
  s.add_all({1.0, 2.0, 3.0});
  s.add_all({4.0});
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(SamplesTest, PercentileInterpolationIsPinned) {
  // Linear interpolation over the sorted samples {10, 20, 30, 40}: rank
  // r = p/100 * (n-1), value = s[floor(r)] + frac(r) * (s[ceil(r)]-s[floor(r)]).
  Samples s;
  s.add_all({40.0, 10.0, 30.0, 20.0});  // unsorted on purpose
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 17.5);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(95.0), 38.5);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
}

TEST(SamplesTest, SortedCacheInvalidatesOnAdd) {
  // The sorted view is cached between queries; adds must invalidate it and
  // never reorder raw().
  Samples s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);  // builds the cache
  EXPECT_EQ(s.sorted(), (std::vector<double>{1.0, 3.0}));
  s.add(2.0);  // cache now stale
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  EXPECT_EQ(s.sorted(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(s.raw(), (std::vector<double>{3.0, 1.0, 2.0}));
  s.add_all({0.0});
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_EQ(s.sorted().front(), 0.0);
}

TEST(SamplesTest, RepeatedQueriesReuseTheCache) {
  // The cached vector's address is stable across const queries (the
  // documented "valid until the next add" contract).
  Samples s;
  s.add_all({5.0, 4.0, 6.0});
  const std::vector<double>* first = &s.sorted();
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 6.0);
  EXPECT_EQ(&s.sorted(), first);
  s.add(1.0);
  EXPECT_EQ(s.sorted().size(), 4u);
}

TEST(SamplesTest, EmptyAddAllKeepsSortedCache) {
  Samples s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  (void)s.sorted();  // build the cache
  const double* cache = s.sorted().data();
  s.add_all({});  // must NOT discard the cache
  EXPECT_EQ(s.sorted().data(), cache);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add_all({2.0});  // non-empty batch still invalidates
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(SamplesTest, MinMaxMatchScansWithAndWithoutCache) {
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    Samples s;
    const int n = 1 + static_cast<int>(rng.uniform(40));
    for (int i = 0; i < n; ++i) s.add(rng.uniform01() * 1000.0 - 500.0);
    // Dirty path (fresh samples, no cache yet) ...
    const double dirty_min = s.min();
    const double dirty_max = s.max();
    // ... must agree exactly with the sorted-cache path.
    (void)s.sorted();
    EXPECT_EQ(s.min(), dirty_min);
    EXPECT_EQ(s.max(), dirty_max);
    EXPECT_EQ(s.min(), s.percentile(0.0));
    EXPECT_EQ(s.max(), s.percentile(100.0));
  }
}

/// Seeded series of `n` samples in one of three shapes: uniform,
/// exponential (a long right tail) and heavily tied (eight distinct values).
std::vector<double> quantile_series(int shape, std::size_t n, Rng& rng) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0: xs.push_back(rng.uniform01() * 100.0); break;
      case 1: xs.push_back(rng.exponential(70.0)); break;
      default: xs.push_back(static_cast<double>(rng.uniform(8)) * 12.5);
    }
  }
  return xs;
}

TEST(SamplesQuantileTest, PercentileIsNonDecreasingInP) {
  // The probes every report quotes, p0 .. p100 in order: a tail may never
  // read below a lower one (a p999 under its p99 is a broken estimator).
  constexpr double kProbes[] = {0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0};
  Rng rng(20261018);
  for (int shape = 0; shape < 3; ++shape) {
    for (const std::size_t n : {1u, 2u, 3u, 1000u, 20000u}) {
      SCOPED_TRACE("shape " + std::to_string(shape) + " n " +
                   std::to_string(n));
      Samples s;
      s.add_all(quantile_series(shape, n, rng));
      double prev = s.percentile(kProbes[0]);
      EXPECT_EQ(prev, s.min());
      for (const double p : kProbes) {
        const double q = s.percentile(p);
        EXPECT_LE(prev, q) << "p" << p;
        prev = q;
      }
      EXPECT_EQ(prev, s.max());
    }
  }
}

TEST(SamplesQuantileTest, SupportThresholdIsExact) {
  // n >= 10 / (1 - p): 20 samples for p50, 1,000 for p99 and 10,000 for
  // p99.9 -- exactly, one sample short is unsupported.
  const auto supports_at = [](std::size_t n, double p) {
    Samples s;
    s.add_all(std::vector<double>(n, 1.0));
    return s.supports(p);
  };
  EXPECT_FALSE(supports_at(19, 50.0));
  EXPECT_TRUE(supports_at(20, 50.0));
  EXPECT_FALSE(supports_at(999, 99.0));
  EXPECT_TRUE(supports_at(1000, 99.0));
  EXPECT_FALSE(supports_at(9999, 99.9));
  EXPECT_TRUE(supports_at(10000, 99.9));
  // No sample supports anything; no sample count supports the maximum.
  EXPECT_FALSE(supports_at(0, 0.0));
  EXPECT_TRUE(supports_at(10, 0.0));
  EXPECT_FALSE(supports_at(20000, 100.0));
}

}  // namespace
}  // namespace p4u::sim
