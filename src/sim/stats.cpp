#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace p4u::sim {

void Samples::add_all(const std::vector<double>& xs) {
  // An empty batch must not invalidate the sorted cache: campaign merges
  // call add_all per run, and runs with no samples are common (incomplete
  // runs) — each one used to force a full re-sort on the next query.
  if (xs.empty()) return;
  xs_.reserve(xs_.size() + xs.size());
  xs_.insert(xs_.end(), xs.begin(), xs.end());
  dirty_ = true;
}

double Samples::min() const {
  if (xs_.empty()) throw std::logic_error("Samples::min on empty set");
  if (!dirty_) return sorted_cache_.front();
  return *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const {
  if (xs_.empty()) throw std::logic_error("Samples::max on empty set");
  if (!dirty_) return sorted_cache_.back();
  return *std::max_element(xs_.begin(), xs_.end());
}

double Samples::mean() const {
  if (xs_.empty()) throw std::logic_error("Samples::mean on empty set");
  return std::accumulate(xs_.begin(), xs_.end(), 0.0) /
         static_cast<double>(xs_.size());
}

double Samples::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : xs_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
}

double Samples::percentile(double p) const {
  if (xs_.empty()) throw std::logic_error("Samples::percentile on empty set");
  const std::vector<double>& s = sorted();
  if (s.size() == 1) return s.front();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double idx = clamped / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, s.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

bool Samples::supports(double p) const {
  const auto bp = static_cast<std::uint64_t>(
      std::llround(std::clamp(p, 0.0, 100.0) * 100.0));
  return static_cast<std::uint64_t>(xs_.size()) * (10000 - bp) >= 100000;
}

double Samples::ci_halfwidth(double z) const {
  if (xs_.size() < 2) return 0.0;
  return z * stddev() / std::sqrt(static_cast<double>(xs_.size()));
}

const std::vector<double>& Samples::sorted() const {
  if (dirty_) {
    sorted_cache_ = xs_;
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    dirty_ = false;
  }
  return sorted_cache_;
}

}  // namespace p4u::sim
