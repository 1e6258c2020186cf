// Feed assembly at scale: the workload the paper's introduction motivates
// (event streams are ~70% of Tumblr page views).
//
// Generates a flickr-like community, then stands up one FeedService
// deployment per planner ("hybrid" = the FF baseline, "nosy" = social
// piggybacking) and serves the same request mix through both, comparing
// data-store messages — the resource that bounds throughput. The scenario
// code is planner-agnostic: swapping schedules is a one-string change.
//
// Build & run:  ./examples/feed_assembly [nodes] [servers]

#include <cstdio>
#include <cstdlib>

#include "core/piggy.h"

using namespace piggy;

int main(int argc, char** argv) {
  const size_t nodes = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5000;
  const size_t servers = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 128;

  std::printf("generating a flickr-like community of %zu users...\n", nodes);
  Graph graph = MakeFlickrLike(nodes, /*seed=*/7).ValueOrDie();
  std::printf("  %s\n\n", ComputeGraphStats(graph, 1000).ToString().c_str());

  for (const char* planner : {"hybrid", "nosy"}) {
    FeedServiceOptions options;
    options.planner = planner;
    options.workload = {.read_write_ratio = 5.0, .min_rate = 0.01};
    options.prototype.num_servers = servers;
    options.prototype.view_capacity = 0;
    options.audit_every = 500;  // spot-check feeds against the event-log oracle
    auto service = FeedService::Create(graph, options).MoveValueOrDie();

    FeedService::Metrics m = service->GetMetrics();
    std::printf("%-8s planned: cost %.0f (%.2fx over FF, %zu edges "
                "piggybacked)\n", planner, m.schedule_cost,
                m.hybrid_cost / m.schedule_cost,
                service->schedule().hub_covered_size());

    // The paper's stationary request mix at the service's rates.
    auto traffic = MakeScenario("stationary", graph, service->WorkloadSnapshot(),
                                {.num_requests = 50000, .seed = 99})
                       .MoveValueOrDie();
    ReplayReport report = ReplayScenario(*traffic, *service).ValueOrDie();
    std::printf("%-8s on %zu servers: %s audits=%lu\n\n", planner, servers,
                report.ToString().c_str(),
                static_cast<unsigned long>(service->GetMetrics().audited_queries));
  }

  std::printf(
      "the schedule with fewer messages/request sustains more requests per\n"
      "second on the same fleet - or the same load on fewer servers.\n");
  return 0;
}
