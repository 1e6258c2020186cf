// Shared percentile and load-spread estimators.
//
// They live here so every consumer agrees on the definition:
//
//  - NearestRankPercentile: the exact nearest-rank statistic over a raw
//    sample vector (the reference the bucketed estimate is tested against).
//  - Histogram::Percentile (metrics.h): the interpolated estimate from
//    log-spaced buckets, whose error versus the exact value is bounded by
//    one bucket width (asserted in obs_test,
//    HistogramTest.PercentileWithinOneBucketOfExact).
//  - MaxOverMean: the imbalance of a per-shard load vector (1 = even).

#pragma once

#include <algorithm>
#include <vector>

namespace piggy {
namespace obs {

/// Exact nearest-rank percentile of `v` at quantile `q` in [0, 1].
/// Partially reorders `v` (nth_element); returns 0 on an empty sample.
double NearestRankPercentile(std::vector<double>& v, double q);

/// max(loads) / mean(loads); 0 when `loads` is empty or sums to zero.
template <typename T>
double MaxOverMean(const std::vector<T>& loads) {
  T total{};
  T max{};
  for (const T x : loads) {
    total += x;
    max = std::max(max, x);
  }
  if (loads.empty() || total == T{}) return 0;
  return static_cast<double>(max) /
         (static_cast<double>(total) / static_cast<double>(loads.size()));
}

}  // namespace obs
}  // namespace piggy
