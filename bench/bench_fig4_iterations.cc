// Figure 4: predicted improvement ratio of the iterative planner over the FF
// hybrid baseline, as a function of the optimization iteration, on the
// flickr-like and twitter-like graphs (stand-ins for the full crawls).
//
// Paper shape: sharp improvement over the first few iterations, then a
// plateau below ~2.2x; the denser twitter graph plateaus above flickr.
//
// Rows are (planner, graph, iteration) so trajectories are comparable across
// planners; pass --planner to trace any registered iterative planner.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/cost_model.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "graph/graph_stats.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 20000));
  const size_t iterations = static_cast<size_t>(flags.Int("iterations", 20));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const std::string planner_name = flags.Str("planner", "nosy");

  Banner("Figure 4 - predicted improvement ratio vs optimization iteration",
         "expect: sharp rise in early iterations, plateau <= ~2.2x; "
         "twitter-like above flickr-like");

  // --iterations bounds the iterative planner's work (the x-axis); other
  // registry planners ignore it and the table pads their single result.
  std::unique_ptr<Planner> planner;
  if (planner_name == "nosy") {
    ParallelNosyOptions opt;
    opt.max_iterations = iterations;
    planner = MakeParallelNosyPlanner(opt);
  } else {
    planner = MakePlanner(planner_name).MoveValueOrDie();
  }
  PlanContext ctx;
  const std::string ctx_str = ctx.ToString();

  Table table({"planner", "plan_context", "graph", "iteration",
               "improvement_ratio"});

  struct Dataset {
    const char* name;
    Graph graph;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"flickr", MakeFlickrLike(nodes, seed).ValueOrDie()});
  datasets.push_back({"twitter", MakeTwitterLike(nodes, seed).ValueOrDie()});

  for (auto& [name, graph] : datasets) {
    std::printf("%s-like: %s\n", name,
                ComputeGraphStats(graph, 2000, seed).ToString().c_str());
    Workload w = GenerateWorkload(graph, {.read_write_ratio = 5.0}).ValueOrDie();

    PlanResult plan = planner->Plan(graph, w, ctx).MoveValueOrDie();
    std::printf("%s-like: %zu iterations in %.1fs (converged=%d), "
                "final ratio %.3f\n",
                name, plan.iterations.size(), plan.wall_seconds, plan.converged,
                ImprovementRatio(plan.hybrid_cost, plan.final_cost));

    // Pad the series to the requested length with the converged value.
    std::vector<double> ratios;
    for (const PlanIterationStats& it : plan.iterations) {
      ratios.push_back(ImprovementRatio(plan.hybrid_cost, it.cost_after));
    }
    while (ratios.size() < iterations) {
      ratios.push_back(ratios.empty() ? 1.0 : ratios.back());
    }
    for (size_t i = 0; i < iterations; ++i) {
      table.AddRow({plan.planner, ctx_str, name, std::to_string(i + 1),
                    Fmt(ratios[i])});
    }
  }

  std::printf("\n");
  table.Print();
  table.WriteCsv(flags.Str("csv", ""));
  table.WriteJson(flags.Str("json", ""));
  return 0;
}
