// Descriptive statistics used by the experiment harness: means, percentiles,
// empirical CDFs, and 99% confidence intervals (Fig. 8 reports mean ratios
// of 30 runs with a 99% CI; Fig. 4/7 report empirical CDFs of 30 runs).
// Samples is the one type that answers a quantile: figure series and the
// churn campaign's pooled per-request tails alike.
#pragma once

#include <cstddef>
#include <vector>

namespace p4u::sim {

/// Accumulates samples and answers summary queries. Samples are stored, so
/// percentile queries are exact (experiment scale is tens of figure runs
/// to tens of thousands of pooled churn requests).
/// Order statistics come from a lazily rebuilt sorted cache, so a summary
/// (p50 + p95 + min + max) sorts once, not once per query. Not thread-safe
/// — even const queries may rebuild the cache; campaigns give every
/// parallel job its own instance and merge on one thread.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    dirty_ = true;
  }
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;  // sample stddev (n-1)

  /// Exact percentile via linear interpolation; p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// True when the samples support a quoted p-th percentile: at least ten
  /// of them at or beyond it, n >= 10 / (1 - p/100). p is resolved to
  /// basis points so the rule is exact integer arithmetic (in doubles,
  /// ceil(10 / (1 - 0.999)) gives 10,001); p = 100 is never supported.
  [[nodiscard]] bool supports(double p) const;

  /// Half-width of the normal-approximation CI at the given z (2.576 = 99%).
  [[nodiscard]] double ci_halfwidth(double z = 2.576) const;

  /// Sorted view of the samples (the empirical CDF support). The returned
  /// reference stays valid until the next add.
  [[nodiscard]] const std::vector<double>& sorted() const;

  [[nodiscard]] const std::vector<double>& raw() const { return xs_; }

 private:
  std::vector<double> xs_;
  mutable std::vector<double> sorted_cache_;
  mutable bool dirty_ = true;
};

}  // namespace p4u::sim
