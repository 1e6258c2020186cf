// MetricsRegistry: named counters, gauges, and latency histograms shared by
// the serving plane, the cluster, and the durability layer.
//
// Hot-path cost model: Counter::Add and Histogram::Record touch one
// thread-striped, cache-line-padded relaxed atomic slot — no locks, no
// allocation, and no sharing between concurrently serving threads (each
// thread is round-robin-assigned a stripe on first use). Reads (Value,
// Percentile, ToJson) merge the stripes; they are intended for polls and
// end-of-run dumps, not per-op use.
//
// Histograms use fixed log-spaced buckets between [min, max): value v lands
// in bucket floor(log(v/min) / log(ratio)) where ratio = (max/min)^(1/n).
// Percentile() interpolates inside the covering bucket, so its error versus
// the exact nearest-rank statistic (percentile.h) is bounded by one bucket
// width (exact values outside [min, max) clamped to the range) —
// HistogramTest.PercentileWithinOneBucketOfExact asserts exactly that bound.
//
// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and
// returns a stable reference: register once at construction, cache the
// pointer, record through the pointer on the hot path.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace piggy {
namespace obs {

/// Number of independent per-thread slots in every striped metric.
constexpr size_t kStripeCount = 16;

/// Stripe index of the calling thread (round-robin assigned on first use,
/// cached in a thread_local).
inline size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripeCount;
  return stripe;
}

namespace internal {

// fetch_add for atomic<double> via CAS (portable across libstdc++ versions).
inline void AtomicAddDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// \brief Monotonic striped counter.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    stripes_[ThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Merged total across stripes.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every stripe. Exact only when no thread is adding concurrently.
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kStripeCount];
};

/// \brief Last-writer-wins instantaneous value (poll-time published).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// \brief Fixed log-spaced-bucket histogram with striped recording.
class Histogram {
 public:
  /// Buckets span [min_value, max_value) in `num_buckets` geometric steps;
  /// values below land in a dedicated underflow bucket, values at or above
  /// in an overflow bucket. All three arguments must be positive and
  /// max_value > min_value.
  Histogram(double min_value, double max_value, size_t num_buckets);

  void Record(double v) {
    Stripe& s = stripes_[ThreadStripe()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAddDouble(s.sum, v);
    s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  double Sum() const;

  /// Interpolated percentile at quantile q in [0, 1]. Uses the same rank
  /// convention as NearestRankPercentile (rank = floor(q * count), clamped),
  /// so both statistics fall inside the same bucket and the estimate is
  /// within one bucket width of the exact value. Underflow clamps to
  /// min_value, overflow to max_value. Returns 0 on an empty histogram.
  double Percentile(double q) const;

  double min_value() const { return lo_; }
  double max_value() const { return hi_; }
  size_t num_buckets() const { return num_buckets_; }
  /// Geometric width of one bucket: upper bound / lower bound.
  double bucket_ratio() const { return ratio_; }

  /// Slot in the per-stripe count array for `v`: 0 = underflow,
  /// 1..num_buckets = log-spaced buckets, num_buckets + 1 = overflow.
  /// Exposed for tests.
  size_t BucketIndex(double v) const;
  /// Lower bound of slot `i` (0 for the underflow slot).
  double SlotLowerBound(size_t i) const;

  /// Merged per-slot counts (size num_buckets + 2, layout as BucketIndex).
  std::vector<uint64_t> MergedSlots() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0};
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
  };

  double lo_;
  double hi_;
  size_t num_buckets_;
  double ratio_;          // per-bucket geometric width
  double inv_log_ratio_;  // 1 / log(ratio)
  // bounds_[i] = lo * ratio^i (bounds_[num_buckets_] = hi exactly); used to
  // correct the log-computed index at exact boundaries where floating-point
  // fuzz puts floor(log(v/lo)/log(ratio)) one off.
  std::vector<double> bounds_;
  Stripe stripes_[kStripeCount];
};

/// \brief Records wall microseconds since construction into a histogram on
/// destruction. Pass nullptr to disable (e.g. while Recover() replays the WAL
/// through the public API — replayed traffic must not pollute the serving
/// latency histograms).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h) : h_(h) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (h_ != nullptr) h_->Record(timer_.Seconds() * 1e6);
  }

 private:
  Histogram* h_;
  WallTimer timer_;
};

/// \brief Point-in-time percentile summary of a histogram.
struct HistogramSummary {
  uint64_t count = 0;
  double sum = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

HistogramSummary Summarize(const Histogram& h);

/// \brief Named registry owning counters, gauges, and histograms.
///
/// Thread-safe. Getter calls with the same name return the same object; the
/// reference stays valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// Sizing arguments apply on first registration only; later calls with
  /// the same name return the existing histogram unchanged.
  Histogram& GetHistogram(const std::string& name, double min_value = 0.5,
                          double max_value = 1e6, size_t num_buckets = 96);

  /// Returns nullptr when no counter with that name has been registered.
  const Counter* FindCounter(const std::string& name) const;

  /// JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count":..,"sum":..,"p50":..,"p95":..,"p99":..}}}.
  std::string ToJson() const;

  /// Aligned human-readable dump (sorted by name) for `piggy_tool stats`.
  std::string ToText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace piggy
