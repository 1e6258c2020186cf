// Sharded serving: the same community, served by a cluster of shard-local
// FeedServices behind a router, under both placement policies.
//
// The graph is split across N shards; every shard plans its own subgraph
// with the registry planner (all shards plan in parallel), and cross-shard
// edges are served by the router — remote pushes materialize one replica per
// (producer, shard), remote pulls batch one message per touched shard. Hash
// placement scatters communities, so more edges cross shards and every
// request fans out further; the greedy edge-cut placement co-locates them
// and the cross-shard traffic drops, with shard load staying near-even.
//
// Build & run:  ./examples/cluster_serving [nodes] [shards]

#include <cstdio>
#include <cstdlib>

#include "core/piggy.h"

using namespace piggy;

int main(int argc, char** argv) {
  const size_t nodes = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5000;
  const size_t shards = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;

  std::printf("generating a flickr-like community of %zu users...\n", nodes);
  Graph graph = MakeFlickrLike(nodes, /*seed=*/7).ValueOrDie();
  std::printf("  %s\n\n", ComputeGraphStats(graph, 1000).ToString().c_str());

  for (const char* partitioner : {"hash", "edge-cut"}) {
    ClusterOptions options;
    options.num_shards = shards;
    options.partitioner = partitioner;
    options.shard.planner = "nosy";
    options.shard.workload = {.read_write_ratio = 5.0, .min_rate = 0.01};
    options.shard.prototype.view_capacity = 0;
    options.audit_every = 500;  // spot-check merged streams against the oracle
    auto cluster = ClusterService::Create(graph, options).MoveValueOrDie();

    ClusterMetrics m = cluster->GetMetrics();
    std::printf("[%s] %zu shards: %zu cross edges, predicted cost %.0f "
                "(intra %.0f + cross %.0f)\n",
                partitioner, cluster->num_shards(), m.cross_edges, m.total_cost,
                m.intra_cost, m.cross_cost);

    // The paper's stationary request mix at the cluster's rates.
    auto traffic = MakeScenario("stationary", graph, cluster->workload(),
                                {.num_requests = 50000, .seed = 99})
                       .MoveValueOrDie();
    ReplayReport report = ReplayScenario(*traffic, *cluster).MoveValueOrDie();
    m = cluster->GetMetrics();
    std::printf("[%s] %s cross/req=%.3f imbalance=%.2f audits=%lu\n\n",
                partitioner, report.ToString().c_str(),
                report.cross_messages /
                    static_cast<double>(report.shares + report.queries),
                m.imbalance, static_cast<unsigned long>(m.audited_queries));
  }

  std::printf("same feeds, same audits — the placement only moves the "
              "cross-shard traffic.\n");
  return 0;
}
