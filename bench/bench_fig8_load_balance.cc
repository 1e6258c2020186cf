// Figure 8: load balancing — query rate per server (normalized), mean and
// variance across the fleet, per planner.
//
// Paper shape: both schedules balance well; mean normalized load is exactly
// 1/servers (a straight line on log-log axes) and the variance across
// servers stays small, shrinking as the fleet grows.
//
// Rows are (planner, servers); pass --planners to sweep other registry
// planners. Each planner plans once; only the serving plane is rebuilt per
// fleet size, like Figure 6.
//
// Pass --shards N (with optional --partitioner hash|edge-cut) to measure the
// sharded cluster instead: every shard runs its own FeedService planned on
// its subgraph, requests go through the router, and the table reports
// request load per *shard* plus the cross-shard message traffic the
// placement leaves behind — predicted (the batched cross cost) and actual
// (router messages per request).

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_service.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/prototype.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

namespace {

// Mean and stddev of per-shard (or per-server) load, normalized by the total.
std::pair<double, double> NormalizedLoad(const std::vector<uint64_t>& loads) {
  uint64_t total = 0;
  for (uint64_t x : loads) total += x;
  if (total == 0 || loads.empty()) return {0, 0};
  const double mean = 1.0 / static_cast<double>(loads.size());
  double var = 0;
  for (uint64_t x : loads) {
    const double norm = static_cast<double>(x) / static_cast<double>(total);
    var += (norm - mean) * (norm - mean);
  }
  return {mean, std::sqrt(var / static_cast<double>(loads.size()))};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 15000));
  const size_t requests = static_cast<size_t>(flags.Int("requests", 60000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const std::string planners = flags.Str("planners", "nosy,hybrid");
  const size_t shards = static_cast<size_t>(flags.Int("shards", 0));

  Graph g = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
                   .ValueOrDie();

  PlanContext ctx;
  const std::string ctx_str = ctx.ToString();
  // The paper's stationary request mix, replayed from the start into every
  // deployment; one epoch, since the run has no rate changes to report.
  auto scenario = MakeScenario("stationary", g, w,
                               {.num_requests = requests, .seed = seed, .epochs = 1})
                      .MoveValueOrDie();

  if (shards > 0) {
    Banner("Figure 8 (sharded) - request load per shard + cross-shard traffic",
           "expect: near-even shard load for both placements; edge-cut "
           "placement pays fewer cross-shard messages than hash");
    Table table({"planner", "plan_context", "partitioner", "shards",
                 "shard_load_mean", "shard_load_stddev", "imbalance",
                 "cross_cost_predicted", "cross_msgs_per_req"});
    for (const std::string& name : StrSplit(planners, ',')) {
      ClusterOptions options;
      options.num_shards = shards;
      options.partitioner = flags.Str("partitioner", "hash");
      options.shard.planner = name;
      // Rates come from the explicit workload `w` (shared with the legacy
      // sweep); options.shard.workload is only read by the other overload.
      auto cluster = ClusterService::Create(g, w, options).MoveValueOrDie();
      scenario->Reset();
      ReplayReport report = ReplayScenario(*scenario, *cluster).MoveValueOrDie();
      // A fresh cluster routes nothing before the replay, so the lifetime
      // per-shard counters are this run's.
      ClusterMetrics m = cluster->GetMetrics();
      auto [mean, stddev] = NormalizedLoad(m.per_shard_requests);
      const double replayed = static_cast<double>(report.shares + report.queries);
      table.AddRow({m.planner, ctx_str, m.partitioner, std::to_string(shards),
                    Fmt(mean, 6), Fmt(stddev, 6), Fmt(m.imbalance, 3),
                    Fmt(m.cross_cost, 1), Fmt(report.cross_messages / replayed, 3)});
    }
    table.Print();
    table.WriteCsv(flags.Str("csv", ""));
    table.WriteJson(flags.Str("json", ""));
    return 0;
  }

  Banner("Figure 8 - query load per server (normalized), mean and stddev",
         "expect: mean = 1/servers for every planner (log-log straight "
         "line); small relative spread throughout");

  Table table({"planner", "plan_context", "servers", "query_load_mean",
               "query_load_stddev"});

  for (const std::string& name : StrSplit(planners, ',')) {
    auto planner = MakePlanner(name).MoveValueOrDie();
    PlanResult plan = planner->Plan(g, w, ctx).MoveValueOrDie();
    for (size_t servers : {2, 5, 10, 20, 50, 100, 200, 500, 1000}) {
      PrototypeOptions opt;
      opt.num_servers = servers;
      auto proto = Prototype::Create(g, plan.schedule, opt).MoveValueOrDie();
      scenario->Reset();
      PIGGY_CHECK_OK(ReplayScenario(*scenario, *proto, plan.schedule).status());
      auto [mean, stddev] = NormalizedLoad(proto->PerServerQueryLoad());
      table.AddRow({plan.planner, ctx_str, std::to_string(servers),
                    Fmt(mean, 6), Fmt(stddev, 6)});
    }
  }

  table.Print();
  table.WriteCsv(flags.Str("csv", ""));
  table.WriteJson(flags.Str("json", ""));
  return 0;
}
