// Shared percentile estimators.
//
// Two estimators live here so every consumer agrees on the definition:
//
//  - NearestRankPercentile: the exact nearest-rank statistic over a raw
//    sample vector (the reference the bucketed estimate is tested against).
//  - Histogram::Percentile (metrics.h): the interpolated estimate from
//    log-spaced buckets, whose error versus the exact value is bounded by
//    one bucket width (asserted in obs_test,
//    HistogramTest.PercentileWithinOneBucketOfExact).

#pragma once

#include <vector>

namespace piggy {
namespace obs {

/// Exact nearest-rank percentile of `v` at quantile `q` in [0, 1].
/// Partially reorders `v` (nth_element); returns 0 on an empty sample.
double NearestRankPercentile(std::vector<double>& v, double q);

}  // namespace obs
}  // namespace piggy
