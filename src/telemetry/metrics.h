// Zero-dependency metrics primitives for the epoch telemetry layer.
//
// The whole value proposition of CRIMES is a time budget: suspend ->
// dirty-scan -> copy -> audit -> resume must fit in the low milliseconds
// every epoch. A coarse post-hoc average cannot show *which phase of which
// epoch* blew that budget, so the hot path records into these cells:
//
//   Counter    monotonic event count (epochs, packets, audit failures)
//   Gauge      last-written value (current control-plane interval)
//   Histogram  fixed log2-bucket distribution with p50/p95/p99/max
//
// Everything is lock-free on the record path (relaxed atomics), so the
// parallel engine's copy/audit workers can record without contention; the
// registry itself takes a mutex only on first-lookup, and instrumented
// components cache the returned pointers at wiring time.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace crimes::telemetry {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

// Plain (non-atomic) copy of a Histogram's state; safe to embed in value
// types like RunSummary and to read without synchronization.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Upper bound of the log2 bucket containing the q-quantile sample,
  // clamped to the exact observed max. Quantiles are therefore accurate to
  // a factor of 2 -- enough to separate a 1 ms tail from a 10 ms tail,
  // which is the question the epoch budget asks.
  [[nodiscard]] std::uint64_t percentile(double q) const;
  [[nodiscard]] std::uint64_t p50() const { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p95() const { return percentile(0.95); }
  [[nodiscard]] std::uint64_t p99() const { return percentile(0.99); }

  // Bucket-wise accumulation. Because bucket boundaries are fixed, merging
  // per-tenant histograms yields exactly the histogram one shared recorder
  // would have produced -- the property CloudHost totals rely on (a test
  // asserts merge == recomputed union).
  void merge_from(const HistogramSnapshot& other);
  // Bucket-wise difference against an *earlier* snapshot of the same
  // histogram: the distribution of just the samples recorded in between.
  // The true max of that window is unrecoverable (max is cumulative), so
  // the delta's max is the upper bound of its highest occupied bucket --
  // windowed percentiles stay accurate to the same factor of 2 as the
  // cumulative ones. This is what the time-series engine's sliding-window
  // p50/p95/p99 are built from.
  [[nodiscard]] HistogramSnapshot delta_since(
      const HistogramSnapshot& earlier) const;

  bool operator==(const HistogramSnapshot&) const = default;
};

// Fixed-bucket log2 histogram. Bucket 0 holds the value 0; bucket i >= 1
// holds [2^(i-1), 2^i). Values are unit-free; phase histograms record
// nanoseconds. All mutation is relaxed-atomic: record() may be called from
// any pool worker concurrently with snapshot().
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const { return snapshot().mean(); }
  [[nodiscard]] std::uint64_t percentile(double q) const {
    return snapshot().percentile(q);
  }
  [[nodiscard]] std::uint64_t p50() const { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p95() const { return percentile(0.95); }
  [[nodiscard]] std::uint64_t p99() const { return percentile(0.99); }

  // Exposed for the bucket-math tests.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper_bound(
      std::size_t bucket) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// Named metric store. Lookup is mutex-protected and returns a stable
// reference (node-based map + unique_ptr), so components resolve their
// metrics once at wiring time and record lock-free afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  // Point-in-time copy of every metric, name-sorted, for the exporters.
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace crimes::telemetry
