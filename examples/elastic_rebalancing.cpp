// Elastic rebalancing: a regional event makes one shard hot; the cluster
// notices and moves a bounded user set while serving keeps flowing.
//
// A 4-shard edge-cut cluster replays the "regional-event" scenario — one
// co-located community's rates spike on a triangular window while outsiders
// follow in. A MigrationCoordinator runs at every epoch close: it watches
// the windowed max/mean load imbalance, and once the threshold has held for
// two windows it plans a hubs-first delta assignment (bounded move budget)
// and migrates the chosen users in batches — snapshot on the source, install
// on the destination, repair cross-shard replicas, re-point the shard map —
// with queries served from the source shard until each batch's atomic
// cutover. The per-epoch table shows the imbalance rising, the trigger
// firing, and the tail settling back down; cluster-wide oracle audits stay
// green the whole way.
//
// Build & run:  ./examples/elastic_rebalancing [nodes] [shards]

#include <cstdio>
#include <cstdlib>

#include "core/piggy.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"

using namespace piggy;

int main(int argc, char** argv) {
  const size_t nodes = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  const size_t shards = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;

  std::printf("generating a flickr-like community of %zu users...\n", nodes);
  Graph graph = MakeFlickrLike(nodes, /*seed=*/7).ValueOrDie();
  Workload base =
      GenerateWorkload(graph, {.read_write_ratio = 5.0, .min_rate = 0.01})
          .ValueOrDie();

  ScenarioOptions scenario_options;
  scenario_options.num_requests = 40000;
  scenario_options.epochs = 12;
  scenario_options.intensity = 12.0;
  scenario_options.seed = 11;
  auto scenario =
      MakeScenario("regional-event", graph, base, scenario_options)
          .MoveValueOrDie();

  ClusterOptions options;
  options.num_shards = shards;
  options.partitioner = "edge-cut";
  options.audit_every = 500;  // spot-check merged streams against the oracle
  options.shard.prototype.num_servers = 8;
  auto cluster = ClusterService::Create(graph, base, options).MoveValueOrDie();

  RebalanceOptions rebalance;
  rebalance.plan.move_budget = 96;
  rebalance.batch_size = 32;
  rebalance.trigger.imbalance_threshold = 1.2;
  rebalance.trigger.consecutive_windows = 2;
  MigrationCoordinator coordinator(*cluster, rebalance);

  std::printf("replaying regional-event over %zu shards (edge-cut)...\n\n",
              shards);
  std::printf("%-6s  %-9s  %-10s  %-10s  %-6s\n", "epoch", "requests",
              "imbalance", "cross_msgs", "moved");
  ReplayOptions replay_options;
  replay_options.on_epoch_close = [&](const ReplayEpochRow& row) -> Status {
    const size_t moved_before = coordinator.report().users_moved;
    PIGGY_RETURN_NOT_OK(coordinator.Step().status());
    const size_t moved = coordinator.report().users_moved - moved_before;
    std::printf("%-6u  %-9llu  %-10.2f  %-10.0f  %-6zu%s\n", row.epoch,
                static_cast<unsigned long long>(row.shares + row.queries),
                row.imbalance, row.cross_messages, moved,
                moved > 0 ? "  <- migrated" : "");
    return Status::OK();
  };
  ReplayReport report =
      ReplayScenario(*scenario, *cluster, replay_options).ValueOrDie();

  const RebalanceReport& rb = coordinator.report();
  const ClusterMetrics m = cluster->GetMetrics();
  std::printf("\n%s\n", report.ToString().c_str());
  std::printf("rebalancer: fired %zu times, moved %zu users in %zu "
              "migrations; last plan predicted imbalance %.2f -> %.2f\n",
              rb.times_fired, rb.users_moved, rb.migrations,
              rb.last_imbalance_before, rb.last_imbalance_after);
  std::printf("cluster after: %zu oracle audits green, %zu migrations "
              "recorded\n",
              static_cast<size_t>(m.audited_queries), m.migrations);
  PIGGY_CHECK(cluster->Validate().ok());
  PIGGY_CHECK(rb.users_moved > 0);
  std::printf("\nsame feeds before, during and after the moves — the "
              "migration only changes who serves them.\n");
  return 0;
}
