// Scenario replay: drives a serving deployment through a scenario's op
// stream and reports per-epoch cost/latency rows.
//
// This is the repo's one sequential request driver: the "stationary"
// scenario is the paper's measurement regime (Figs. 6 and 8), the other
// scenarios its time-varying successors. Shares, queries and churn ops are
// applied through the deployment's public API (so audits, incremental repair
// and the configured replan policy all engage exactly as in production);
// rate-shift markers carry no service call — the system under test must
// *notice* drift from traffic, never from ground truth. At every epoch boundary the driver
// snapshots a row: op counts, measured serving messages, the schedule's cost
// under the epoch's ground-truth rates (which only the scenario knows), the
// hybrid-baseline cost for reference, replans triggered, the service's
// current drift estimate, and wall time.
//
// A stationary replay through a FeedService is bit-identical to one through
// a bare Prototype built from the service's schedule (scenario_drive_test
// proves it).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster_service.h"
#include "core/schedule.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "store/feed_service.h"
#include "store/prototype.h"
#include "util/status.h"

namespace piggy {

/// \brief One epoch of a replay: what happened and what it cost.
struct ReplayEpochRow {
  uint32_t epoch = 0;
  double sim_time = 0;  ///< epoch start on the scenario's simulated clock
  uint64_t shares = 0;
  uint64_t queries = 0;
  uint64_t follows = 0;
  uint64_t unfollows = 0;
  double messages = 0;  ///< serving messages issued during the epoch
  double messages_per_request = 0;
  /// Schedule cost under the epoch's ground-truth rates and the graph as of
  /// the epoch's close (the quantity an omniscient operator would minimize).
  double true_cost = 0;
  /// Hybrid (FF) baseline under the same rates/topology, for ratios.
  double true_hybrid = 0;
  size_t replans = 0;  ///< planner runs during the epoch
  size_t repairs = 0;  ///< Sec.-3.3 repairs during the epoch
  double drift_score = 0;  ///< service's drift estimate at epoch close
  double wall_seconds = 0;
  size_t shard_fails = 0;     ///< scripted shard kills applied this epoch
  size_t shard_restarts = 0;  ///< scripted shard recoveries this epoch
  /// Requests the service rejected with Unavailable (routed to a down
  /// shard); counted, not failed — outage windows are part of the story.
  uint64_t unavailable = 0;
  /// Batched cross-shard messages issued during the epoch (clusters only;
  /// zero for a single FeedService).
  double cross_messages = 0;
  /// Max/mean of per-shard requests routed during this epoch (1 = even;
  /// zero for a single FeedService).
  double imbalance = 0;

  std::string ToString() const;
};

/// \brief Whole-run replay measurements.
struct ReplayReport {
  std::string scenario;
  std::string planner;
  std::string policy;  ///< replan policy ("never" | "every-N" | "drift")
  std::vector<ReplayEpochRow> epochs;
  uint64_t shares = 0;
  uint64_t queries = 0;
  uint64_t follows = 0;
  uint64_t unfollows = 0;
  double messages = 0;  ///< total serving messages across the run
  double cross_messages = 0;  ///< total batched cross-shard messages (clusters)
  double messages_per_request = 0;
  size_t replans = 0;  ///< total planner runs, including the initial plan
  double wall_seconds = 0;
  size_t aux_threads = 0;     ///< auxiliary load threads (ReplayOptions)
  uint64_t aux_requests = 0;  ///< shares+queries issued by the aux threads
  size_t shard_fails = 0;     ///< scripted shard kills across the run
  size_t shard_restarts = 0;  ///< scripted shard recoveries across the run
  uint64_t unavailable = 0;   ///< Unavailable-rejected requests (all threads)

  std::string ToString() const;
};

/// \brief Concurrency knobs for a replay.
///
/// The scenario stream itself always runs sequentially on the calling thread
/// (epoch boundaries and op order stay deterministic); with client_threads >
/// 1, the remaining client_threads - 1 threads issue a rate-weighted
/// share/query background load through the same thread-safe serving API for
/// the duration of the replay — the production shape where churn and replans
/// race ordinary traffic. Aux traffic is counted in aux_requests and bleeds
/// into the per-epoch message/latency accounting; keep client_threads = 1
/// for bit-exact single-threaded rows.
struct ReplayOptions {
  size_t client_threads = 1;
  uint64_t seed = 42;
  /// Invoked on the sequential replay thread right after each epoch's row is
  /// recorded — the natural control-loop hook (the elastic rebalancer's
  /// MigrationCoordinator::Step runs here). A non-OK return aborts the
  /// replay. Null = no hook.
  std::function<Status(const ReplayEpochRow&)> on_epoch_close;
  /// Structured trace sink (not owned; null disables). Each epoch close
  /// emits one kEpoch span carrying the row's headline numbers, so the trace
  /// interleaves the measurement clock with the service's own replan /
  /// durability / shard events. Pass the same log to the deployment
  /// (FeedServiceOptions::trace or ClusterOptions::trace) for one unified
  /// timeline.
  obs::TraceLog* trace = nullptr;
};

/// Replays `scenario` (from its current position; call Reset() to rewind)
/// through a single-process deployment. The service must be built over the
/// scenario's graph (same node count). Returns an error if any op fails —
/// including audit divergence when the service audits.
Result<ReplayReport> ReplayScenario(Scenario& scenario, FeedService& service,
                                    const ReplayOptions& options = {});

/// Same, through a sharded cluster; true costs sum the per-shard schedule
/// costs under shard-projected ground-truth rates plus the router's predicted
/// cross-shard cost.
Result<ReplayReport> ReplayScenario(Scenario& scenario, ClusterService& cluster,
                                    const ReplayOptions& options = {});

/// Same, through a bare serving plane built from `schedule` (no planner, no
/// service-level audits; on_epoch_close can audit against the plane's event
/// log). True costs score `schedule` on the plane's graph. The plane cannot
/// churn or fail shards: scenarios that script either fail with
/// InvalidArgument.
Result<ReplayReport> ReplayScenario(Scenario& scenario, Prototype& plane,
                                    const Schedule& schedule,
                                    const ReplayOptions& options = {});

/// An on_epoch_close hook for plane replays, the bare plane's counterpart of
/// FeedServiceOptions::audit_every: at every epoch close it queries
/// `per_epoch` users spread over the id space (the spread rotates with the
/// epoch) and checks each feed against the plane's event-log oracle, adding
/// the audits to *audited. The replay re-probes after the hook, so audit
/// queries stay out of the epoch rows.
std::function<Status(const ReplayEpochRow&)> AuditPlaneAtEpochClose(
    Prototype& plane, size_t per_epoch, size_t* audited);

}  // namespace piggy
