// Delta-assignment planner: decides WHO moves when the cluster rebalances.
//
// A full repartition would fix imbalance too — and invalidate nearly every
// user's placement, forcing a cluster-wide migration. The rebalance planner
// instead reuses the idea behind the rate-weighted greedy edge-cut
// partitioner (store/partitioner.h) incrementally: starting from the live
// assignment, it drains the hottest shards by moving their heaviest users
// ("hubs first" — a celebrity or a spiking region dominates the skew, so a
// handful of moves buys most of the balance) to the shard where their
// rate-weighted affinity is highest, under a hard move budget. Every accepted
// move strictly shrinks the donor/destination load gap, so the plan cannot
// oscillate.
//
// The planner is pure: graph + rates + assignment + observed per-user load
// in, a bounded move list plus predicted cut/imbalance before vs after out.
// The MigrationCoordinator turns the plan into live MigrateUsers batches.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "workload/workload.h"

namespace piggy {

/// \brief Bounds on one rebalance plan.
struct RebalancePlanOptions {
  /// Hard cap on users moved per plan (a migration is never a repartition).
  size_t move_budget = 64;
  /// A shard is a donor while its load exceeds (1 + slack) x mean — the same
  /// slack semantics as the edge-cut partitioner's capacity.
  double balance_slack = 0.05;
  /// After the drain phase, spend any remaining budget moving users whose
  /// observed traffic concentrates on another shard (destination stays under
  /// capacity, so balance is preserved while the measured cut shrinks).
  /// Disable for drain-only plans that never touch a balanced cluster.
  bool heal_cut = true;
  /// A heal move must save strictly more than this many batched messages per
  /// load window to be worth its one-time migration cost (replica teardown +
  /// backfill on cutover). Same units as the observed load.
  double heal_min_gain = 1.0;
  /// A drain move is rejected when its predicted message cost exceeds this
  /// fraction of the load it sheds: balance is bought with cheap movers (a
  /// hub whose audience spans every shard moves nearly free), never by
  /// tearing a co-located hot community apart.
  double drain_cost_ratio = 0.05;
};

/// \brief One planned relocation.
struct RebalanceMove {
  NodeId user = 0;
  uint32_t from = 0;
  uint32_t to = 0;
};

/// \brief A bounded delta assignment plus its predicted effect.
struct MovePlan {
  std::vector<RebalanceMove> moves;
  /// Predicted batched cross-shard traffic (one message per producer x
  /// replica shard and consumer x pulled shard, weighted by observed load;
  /// by base rates when no load has been observed) under the input
  /// assignment and with the moves applied.
  double predicted_cut_before = 0;
  double predicted_cut_after = 0;
  /// Max/mean of per-shard observed load (1 = perfectly even), same
  /// before/after pair.
  double predicted_imbalance_before = 0;
  double predicted_imbalance_after = 0;

  bool empty() const { return moves.empty(); }
};

/// Plans a bounded set of moves draining every shard whose observed load
/// (`user_load`, e.g. ClusterService::PerUserLoad deltas) exceeds
/// (1 + balance_slack) x mean. Candidates leave hottest-shard-first and
/// heaviest-user-first; each lands on the shard maximizing rate-weighted
/// neighbor affinity x remaining headroom, and is only accepted if the move
/// strictly shrinks the donor/destination gap. Deterministic; returns an
/// empty plan when the cluster is already balanced or nothing helps.
MovePlan PlanRebalance(const Graph& graph, const Workload& workload,
                       const std::vector<uint32_t>& assignment,
                       size_t num_shards,
                       const std::vector<uint64_t>& user_load,
                       const RebalancePlanOptions& options);

}  // namespace piggy
