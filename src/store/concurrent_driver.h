// Multi-threaded serving driver: the measurement loop behind the concurrent
// serving bench (bench_fig11_serving) and the concurrent stress tests.
// Sequential drives (and `piggy_tool --client-threads`) go through scenario
// replay instead (scenario/replay.h).
//
// N client threads hammer one serving endpoint with a rate-weighted
// share/query mix, back to back (a saturating load: each thread issues its
// next request the moment the previous one returns, so throughput measures
// the serving plane's capacity under lock contention and the latency
// percentiles its service time, including any time spent waiting behind a
// schedule swap). Every request is timed individually; the report carries
// aggregate ops/sec plus p50/p95/p99 per op kind — the tail is where a
// stop-the-world replan would show, and its absence is what the background
// replanner buys.
//
// The endpoint is abstracted as two thread-safe callables (share, query), so
// the same driver runs against a FeedService, a ClusterService, or any future
// serving surface; convenience overloads bind both. Determinism: thread t
// draws from Rng(seed, t), so a fixed (seed, threads) pair replays the same
// per-thread op streams — the interleaving, of course, is the machine's.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster_service.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "store/feed_service.h"
#include "util/status.h"
#include "workload/workload.h"

namespace piggy {

/// \brief Knobs of one concurrent drive.
struct ConcurrentDriverOptions {
  /// Client threads issuing requests concurrently.
  size_t client_threads = 1;
  /// Requests each thread issues (total ops = threads x this).
  size_t requests_per_thread = 1000;
  /// Seed of the per-thread op streams.
  uint64_t seed = 42;
  /// Optional histograms fed the exact same per-op samples the exact
  /// percentiles are computed from; lets a bench compare the bucketed
  /// estimate against the nearest-rank truth. Not owned; may be null.
  obs::Histogram* share_histogram = nullptr;
  obs::Histogram* query_histogram = nullptr;
};

/// \brief Latency percentiles of one op kind, in microseconds.
struct LatencyProfile {
  uint64_t count = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

/// \brief Measurements from one concurrent drive.
struct ConcurrentDriveReport {
  size_t client_threads = 0;
  uint64_t shares = 0;
  uint64_t queries = 0;
  double wall_seconds = 0;
  double ops_per_second = 0;  ///< aggregate Share+QueryStream throughput
  LatencyProfile share_latency;
  LatencyProfile query_latency;

  std::string ToString() const;
};

/// \brief A serving endpoint as the driver sees it: one thread-safe write op
/// and one thread-safe read op.
struct ServingOps {
  std::function<Status(NodeId)> share;
  std::function<Status(NodeId)> query;
};

/// Drives `ops` from options.client_threads threads with a share/query mix
/// weighted by `workload` (same Bernoulli split as the scenario request
/// sampler).
/// Returns the first op error, if any thread hit one.
Result<ConcurrentDriveReport> RunConcurrentDriver(
    const Workload& workload, const ServingOps& ops,
    const ConcurrentDriverOptions& options);

/// Same, against a FeedService (Share / QueryStream).
Result<ConcurrentDriveReport> RunConcurrentDriver(
    FeedService& service, const ConcurrentDriverOptions& options);

/// Same, against a sharded ClusterService.
Result<ConcurrentDriveReport> RunConcurrentDriver(
    ClusterService& cluster, const ConcurrentDriverOptions& options);

}  // namespace piggy
