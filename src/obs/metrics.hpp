// Metrics: the quantitative observability layer.
//
// Every run-level number the paper's figures are built from (message counts
// per switch, drop counts, per-hop latencies, controller preparation times)
// is recorded through handles vended by a MetricsRegistry. A metric is
// identified by a name plus a label set — e.g. counter "fabric.tx" with
// {"switch":"7","msg":"UIM"} — mirroring the Prometheus data model so that
// run reports are mechanically aggregable across runs and PRs.
//
// Handles are cheap value types holding a stable pointer into the registry
// (std::map nodes never move), so hot paths pay one pointer chase per
// update once the handle is resolved. A default-constructed handle is a
// null sink: instrumented code works unwired.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace p4u::obs {

/// Sorted key/value label pairs ({"switch":"7","msg":"UIM"}).
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) noexcept {
    if (cell_ != nullptr) *cell_ += n;
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0 : *cell_;
  }
  /// True once bound to a registry cell (caches use this to lazily resolve
  /// without eagerly creating cells that would alter report contents).
  [[nodiscard]] bool resolved() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

/// Instantaneous level (queue depth, reserved capacity).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) noexcept {
    if (cell_ != nullptr) *cell_ = v;
  }
  void add(double d) noexcept {
    if (cell_ != nullptr) *cell_ += d;
  }
  [[nodiscard]] double value() const noexcept {
    return cell_ == nullptr ? 0.0 : *cell_;
  }
  [[nodiscard]] bool resolved() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// Fixed-bucket histogram state. `bounds` are inclusive upper bucket edges
/// in ascending order; `counts` has bounds.size() + 1 entries, the last one
/// catching observations above every bound (+inf bucket).
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double x);
  [[nodiscard]] std::uint64_t count() const noexcept {
    return data_ == nullptr ? 0 : data_->count;
  }
  [[nodiscard]] double sum() const noexcept {
    return data_ == nullptr ? 0 : data_->sum;
  }
  [[nodiscard]] double mean() const noexcept {
    return data_ == nullptr || data_->count == 0
               ? 0.0
               : data_->sum / static_cast<double>(data_->count);
  }
  [[nodiscard]] const HistogramData* data() const noexcept { return data_; }
  [[nodiscard]] bool resolved() const noexcept { return data_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

/// Returns `handle`, resolving it with `resolve()` on first use. Per-event
/// code holds its handles and resolves each one here, where a name lookup
/// would first create the cell: the registry ends up with exactly the
/// cells (and report bytes) that looking the name up on every event
/// creates, and every later update is one pointer chase. Resolving eagerly
/// instead would add zero-valued cells to reports.
template <typename Handle, typename Resolve>
Handle& resolve_once(Handle& handle, Resolve&& resolve) {
  if (!handle.resolved()) handle = std::forward<Resolve>(resolve)();
  return handle;
}

/// Default latency buckets (milliseconds): 100 us .. 100 s, log-spaced.
const std::vector<double>& latency_buckets_ms();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolves (creating on first use) the metric cell for (name, labels).
  /// Handles stay valid for the registry's lifetime; re-resolving the same
  /// (name, labels) yields a handle to the same cell.
  Counter counter(const std::string& name, const LabelSet& labels = {});
  Gauge gauge(const std::string& name, const LabelSet& labels = {});
  /// `bounds` are fixed at first resolution; later calls with different
  /// bounds reuse the original buckets (bounds are part of the family, not
  /// the label set). Defaults to latency_buckets_ms().
  Histogram histogram(const std::string& name, const LabelSet& labels = {},
                      const std::vector<double>& bounds = latency_buckets_ms());

  // --- read-side (reports, tests) ---

  template <typename Value>
  struct Row {
    std::string name;
    LabelSet labels;
    Value value;
  };

  /// Rows sorted by (name, labels) — deterministic report order.
  [[nodiscard]] std::vector<Row<std::uint64_t>> counters() const;
  [[nodiscard]] std::vector<Row<double>> gauges() const;
  [[nodiscard]] std::vector<Row<const HistogramData*>> histograms() const;

  /// Sum of one counter family across all label sets.
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;
  /// Value of one exact (name, labels) counter (0 if absent).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            const LabelSet& labels) const;

  /// Folds another run's registry into this one: counters add, histograms
  /// merge bucket-wise, gauges keep the incoming (latest) value. Used by
  /// experiments to aggregate per-seed TestBed registries into one report.
  void merge_from(const MetricsRegistry& other);

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  // Key = (metric name, canonical label encoding). std::map keeps cell
  // addresses stable across inserts and moves, which the handles rely on.
  using Key = std::pair<std::string, std::string>;
  struct Labeled {
    LabelSet labels;
  };
  struct CounterCell : Labeled {
    std::uint64_t value = 0;
  };
  struct GaugeCell : Labeled {
    double value = 0.0;
  };
  struct HistogramCell : Labeled {
    HistogramData data;
  };

  static std::string encode(const LabelSet& labels);

  std::map<Key, CounterCell> counters_;
  std::map<Key, GaugeCell> gauges_;
  std::map<Key, HistogramCell> histograms_;
};

}  // namespace p4u::obs
