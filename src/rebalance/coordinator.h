// MigrationCoordinator: closes the detect -> plan -> migrate loop on a live
// ClusterService.
//
// Each Step() hands the cluster's lifetime load counters to the
// RebalanceTrigger, which folds them into its windows and says whether the
// imbalance has held long enough to act; the coordinator then plans a
// bounded delta assignment over the observed per-user load since the last
// step, and executes it as a sequence of batched ClusterService::MigrateUsers
// calls — each batch a complete snapshot/catch-up/cutover cycle, so serving
// (and durability) stay correct between batches too.
//
// The coordinator is a control loop, not a serving component: call Step()
// from one thread at natural pause points (the replay driver's epoch closes,
// piggy_tool's serve chunks). Serving traffic keeps flowing on other threads
// throughout — MigrateUsers only excludes them for the freeze and cutover
// slices of each batch.

#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster_service.h"
#include "rebalance/planner.h"
#include "rebalance/trigger.h"
#include "util/status.h"

namespace piggy {

/// \brief Control-loop configuration for the elastic rebalancer.
struct RebalanceOptions {
  RebalanceTriggerOptions trigger;
  /// Planner bounds (move budget, donor slack, drain/heal guards), passed
  /// through to PlanRebalance verbatim.
  RebalancePlanOptions plan;
  /// Users per MigrateUsers call; a plan is cut into batches this size so
  /// each exclusive cutover stays short.
  size_t batch_size = 16;
};

/// \brief What the coordinator has done so far.
struct RebalanceReport {
  size_t times_fired = 0;     ///< trigger verdicts acted on
  size_t users_moved = 0;     ///< users actually migrated
  size_t migrations = 0;      ///< MigrateUsers batches executed
  /// Predictions of the most recent executed plan.
  double last_cut_before = 0;
  double last_cut_after = 0;
  double last_imbalance_before = 0;
  double last_imbalance_after = 0;
};

/// \brief Detect -> plan -> migrate driver over one ClusterService.
class MigrationCoordinator {
 public:
  MigrationCoordinator(ClusterService& cluster,
                       const RebalanceOptions& options)
      : cluster_(cluster),
        options_(options),
        trigger_(options.trigger),
        last_user_load_(cluster.PerUserLoad()) {}

  /// One control-loop tick: observe, maybe plan, maybe migrate. Returns true
  /// iff users were moved. Single-threaded contract: call from one thread;
  /// serving threads may run concurrently.
  Result<bool> Step();

  const RebalanceReport& report() const { return report_; }

 private:
  ClusterService& cluster_;
  RebalanceOptions options_;
  RebalanceTrigger trigger_;
  // Per-user load counters (requests + fan-out and pull batches served for
  // the user's events) at the last step; the delta is the observed load the planner
  // weighs moves by (one step = one load window).
  std::vector<uint64_t> last_user_load_;
  RebalanceReport report_;
};

}  // namespace piggy
