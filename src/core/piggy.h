// Umbrella header: the full public API of the social-piggybacking library.
//
// The two entry points are the Planner registry (offline optimization) and
// the FeedService facade (online serving):
//
//   #include "core/piggy.h"
//   using namespace piggy;
//
//   Graph g = MakeFlickrLike(20000, /*seed=*/1).ValueOrDie();
//   Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0}).ValueOrDie();
//
//   // Offline: any registered planner through one contract.
//   auto planner = MakePlanner("chitchat").MoveValueOrDie();   // or "nosy",
//   PlanResult plan = planner->Plan(g, w).MoveValueOrDie();    // "hybrid", ...
//   double ratio = ImprovementRatio(plan.hybrid_cost, plan.final_cost);
//
//   // Online: a serving deployment around the planned schedule.
//   FeedServiceOptions opts;
//   opts.planner = "chitchat";
//   opts.prototype.num_servers = 500;
//   auto service = FeedService::Create(g, opts).MoveValueOrDie();
//   service->Share(42);
//   auto feed = service->QueryStream(7).MoveValueOrDie();
//   service->Follow(/*follower=*/7, /*producer=*/42);  // schedule stays valid
//
//   // Scale out: the same surface over N shards (cluster/cluster_service.h).
//   ClusterOptions copts;
//   copts.num_shards = 16;
//   copts.partitioner = "edge-cut";   // or "hash"
//   auto cluster = ClusterService::Create(g, copts).MoveValueOrDie();
//
// DEPRECATED LEGACY SURFACE — the per-algorithm free functions RunChitChat,
// RunParallelNosy, HybridSchedule, PushAllSchedule and PullAllSchedule remain
// for compatibility (the registry planners are proven bit-identical to them
// by planner_registry_test), but new code should go through MakePlanner /
// FeedService; the free functions will eventually be demoted out of this
// umbrella.

#pragma once

#include "cluster/cluster_service.h" // IWYU pragma: export
#include "core/active_store.h"       // IWYU pragma: export
#include "core/baselines.h"          // IWYU pragma: export
#include "core/chitchat.h"           // IWYU pragma: export
#include "core/cost_model.h"         // IWYU pragma: export
#include "core/densest_subgraph.h"   // IWYU pragma: export
#include "core/incremental.h"        // IWYU pragma: export
#include "core/parallel_nosy.h"      // IWYU pragma: export
#include "core/plan_hooks.h"         // IWYU pragma: export
#include "core/planner.h"            // IWYU pragma: export
#include "core/schedule.h"           // IWYU pragma: export
#include "core/schedule_io.h"        // IWYU pragma: export
#include "core/validator.h"          // IWYU pragma: export
#include "gen/generators.h"          // IWYU pragma: export
#include "gen/presets.h"             // IWYU pragma: export
#include "graph/dynamic_graph.h"     // IWYU pragma: export
#include "graph/graph.h"             // IWYU pragma: export
#include "graph/graph_builder.h"     // IWYU pragma: export
#include "graph/graph_io.h"          // IWYU pragma: export
#include "graph/graph_stats.h"       // IWYU pragma: export
#include "rebalance/coordinator.h"   // IWYU pragma: export
#include "rebalance/planner.h"       // IWYU pragma: export
#include "rebalance/trigger.h"       // IWYU pragma: export
#include "sampling/samplers.h"       // IWYU pragma: export
#include "scenario/replay.h"         // IWYU pragma: export
#include "scenario/scenario.h"       // IWYU pragma: export
#include "store/feed_service.h"      // IWYU pragma: export
#include "store/prototype.h"         // IWYU pragma: export
#include "workload/workload.h"       // IWYU pragma: export
