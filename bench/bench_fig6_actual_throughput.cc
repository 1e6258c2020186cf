// Figure 6: actual per-client throughput of the prototype as a function of
// the number of data-store servers, for piggybacking vs baseline planners.
//
// Each planner is run once through the registry; each fleet size rebuilds
// only the serving plane and replays the rate-weighted request mix (the
// quantity the paper's fleet saturates on is data-store messages).
//
// Paper shape: per-client throughput falls as servers grow (requests fan out
// to more servers); FF is slightly ahead on tiny fleets (random co-location
// makes direct edges free), PARALLELNOSY overtakes within a couple hundred
// servers and the ratio keeps growing (paper: ~1.2x @500, ~1.35x @1000).
//
// Rows are (planner, servers) so curves are comparable across planners; pass
// --planners with a comma-separated registry list to sweep others.

#include <cstdio>
#include <map>

#include "bench/bench_common.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/prototype.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 15000));
  const size_t requests = static_cast<size_t>(flags.Int("requests", 60000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const std::string planners = flags.Str("planners", "nosy,hybrid");

  Banner("Figure 6 - actual per-client throughput vs number of servers",
         "expect: curves fall with fleet size; hybrid >= nosy on tiny fleets, "
         "nosy overtakes by a few hundred servers with a growing ratio");

  Graph g = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
                   .ValueOrDie();

  Table table({"planner", "plan_context", "servers", "throughput_req_s"});
  const std::vector<size_t> fleets = {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
  // curves[planner][servers] for the stdout ratio summary.
  std::map<std::string, std::map<size_t, double>> curves;

  // The paper's stationary request mix, replayed from the start into every
  // fleet; one epoch, since the run has no rate changes to report.
  auto scenario = MakeScenario("stationary", g, w,
                               {.num_requests = requests, .seed = seed, .epochs = 1})
                      .MoveValueOrDie();

  PlanContext ctx;
  const std::string ctx_str = ctx.ToString();
  for (const std::string& name : StrSplit(planners, ',')) {
    // Plan once per planner (graph and workload are fleet-invariant); only
    // the serving plane is rebuilt per fleet size.
    auto planner = MakePlanner(name).MoveValueOrDie();
    PlanResult plan = planner->Plan(g, w, ctx).MoveValueOrDie();
    for (size_t servers : fleets) {
      PrototypeOptions opt;
      opt.num_servers = servers;
      auto proto = Prototype::Create(g, plan.schedule, opt).MoveValueOrDie();
      scenario->Reset();
      PIGGY_CHECK_OK(ReplayScenario(*scenario, *proto, plan.schedule).status());
      const double throughput = proto->ActualThroughput();
      curves[plan.planner][servers] = throughput;
      table.AddRow({plan.planner, ctx_str, std::to_string(servers),
                    Fmt(throughput, 0)});
    }
  }

  table.Print();
  if (curves.size() == 2) {
    auto first = curves.begin();
    auto second = std::next(first);
    std::printf("\nactual throughput improvement of %s over %s: ",
                second->first.c_str(), first->first.c_str());
    for (size_t servers : fleets) {
      std::printf("%zu:%.3f ", servers,
                  second->second[servers] / first->second[servers]);
    }
    std::printf("\n");
  }
  table.WriteCsv(flags.Str("csv", ""));
  table.WriteJson(flags.Str("json", ""));
  return 0;
}
