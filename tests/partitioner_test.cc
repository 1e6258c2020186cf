// Partitioner layer: the placement-aware cost model against hand-computed
// fixtures, the partitioner registry, and the greedy edge-cut partitioner's
// quality guarantees (balance, determinism, beating hash placement on
// community-structured graphs).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/schedule.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "store/partitioner.h"
#include "workload/workload.h"

namespace piggy {
namespace {

/// Test-only placement with an explicit assignment table: exercises the
/// Partitioner extension point and makes hand-computed fixtures possible.
class FixedPartitioner : public Partitioner {
 public:
  FixedPartitioner(std::vector<uint32_t> assignment, size_t num_servers)
      : assignment_(std::move(assignment)), num_servers_(num_servers) {}

  uint32_t ServerOf(NodeId user) const override { return assignment_[user]; }
  size_t num_servers() const override { return num_servers_; }
  const std::string& name() const override {
    static const std::string kName = "fixed";
    return kName;
  }

 private:
  std::vector<uint32_t> assignment_;
  size_t num_servers_;
};

// A fully-scheduled 4-node fixture on 2 servers, every term hand-computed.
//
// Graph: 0->1, 0->2, 2->3, 3->1. Placement: {0, 1} on server 0, {2, 3} on
// server 1. Schedule: 0->1, 0->2, 2->3 pushed; 3->1 pulled. Rates: rp = 1,
// rc = 2 for everyone.
//
//   u=0: push views {0, 1, 2} -> servers {0, 1} = 2, rp * 2 = 2
//        pull views {0}       -> 1 server,          rc * 1 = 2
//   u=1: push views {1}       -> 1,                 rp * 1 = 1
//        pull views {1, 3}    -> servers {0, 1} = 2, rc * 2 = 4
//   u=2: push views {2, 3}    -> server {1} = 1,    rp * 1 = 1
//        pull views {2}       -> 1,                 rc * 1 = 2
//   u=3: push views {3}       -> 1,                 rp * 1 = 1
//        pull views {3}       -> 1,                 rc * 1 = 2
//                                               total = 15
TEST(PlacementAwareCostTest, MatchesHandComputedTwoServerFixture) {
  Graph g = BuildGraph(4, {{0, 1}, {0, 2}, {2, 3}, {3, 1}}).ValueOrDie();
  Workload w = UniformWorkload(4, 1.0, 2.0);
  Schedule s;
  s.AddPush(0, 1);
  s.AddPush(0, 2);
  s.AddPush(2, 3);
  s.AddPull(3, 1);

  FixedPartitioner two({0, 0, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(PlacementAwareCost(g, w, s, two), 15.0);

  // With one server every request is exactly one message: cost = total rate.
  FixedPartitioner one({0, 0, 0, 0}, 1);
  EXPECT_DOUBLE_EQ(PlacementAwareCost(g, w, s, one),
                   w.TotalProduction() + w.TotalConsumption());

  // Worst case, everyone alone: cost counts every distinct view's server.
  FixedPartitioner four({0, 1, 2, 3}, 4);
  EXPECT_DOUBLE_EQ(PlacementAwareCost(g, w, s, four),
                   1.0 * (3 + 1 + 2 + 1) + 2.0 * (1 + 2 + 1 + 1));
}

TEST(PartitionerRegistryTest, InstantiatesByName) {
  Graph g = GenerateErdosRenyi(50, 200, 1).ValueOrDie();
  Workload w = UniformWorkload(50, 1.0, 5.0);
  auto hash = MakePartitioner("hash", g, w, 8).MoveValueOrDie();
  EXPECT_EQ(hash->name(), "hash");
  EXPECT_EQ(hash->num_servers(), 8u);
  for (NodeId u = 0; u < 50; ++u) EXPECT_LT(hash->ServerOf(u), 8u);

  auto cut = MakePartitioner("edge-cut", g, w, 4).MoveValueOrDie();
  EXPECT_EQ(cut->name(), "edge-cut");
  EXPECT_EQ(cut->num_servers(), 4u);
}

TEST(PartitionerRegistryTest, UnknownNameListsValidOptions) {
  Graph g = GenerateCycle(4).ValueOrDie();
  Workload w = UniformWorkload(4, 1.0, 5.0);
  for (const char* unknown : {"metis", "greedy"}) {
    auto result = MakePartitioner(unknown, g, w, 2);
    ASSERT_FALSE(result.ok()) << unknown;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << unknown;
    EXPECT_NE(result.status().message().find("edge-cut"), std::string::npos);
    EXPECT_NE(result.status().message().find("hash"), std::string::npos);
  }

  EXPECT_FALSE(MakePartitioner("hash", g, w, 0).ok());
  EXPECT_FALSE(RegisteredPartitioners().empty());
}

TEST(GreedyEdgeCutTest, RespectsBalanceCapacityAndIsDeterministic) {
  Graph g = GeneratePlantedPartition(4, 60, 0.15, 0.005, 7).ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
                   .ValueOrDie();
  auto a = GreedyEdgeCutPartitioner::Build(g, w, 4).MoveValueOrDie();
  auto b = GreedyEdgeCutPartitioner::Build(g, w, 4).MoveValueOrDie();
  EXPECT_EQ(a.assignment(), b.assignment());

  std::vector<size_t> load(4, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) ++load[a.ServerOf(u)];
  const double capacity = (240.0 / 4.0) * 1.05 + 1;
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_LE(static_cast<double>(load[s]), capacity) << "shard " << s;
    EXPECT_GT(load[s], 0u) << "shard " << s;
  }
}

TEST(GreedyEdgeCutTest, RejectsBadArguments) {
  Graph g = GenerateCycle(6).ValueOrDie();
  Workload w = UniformWorkload(6, 1.0, 5.0);
  EXPECT_FALSE(GreedyEdgeCutPartitioner::Build(g, w, 0).ok());
  EXPECT_FALSE(
      GreedyEdgeCutPartitioner::Build(g, UniformWorkload(3, 1, 5), 2).ok());
}

// The acceptance bar: on a community-structured graph the graph-aware
// partitioner must strictly beat hash placement, both on raw cut edges and on
// the placement-aware predicted cost of a real schedule.
TEST(GreedyEdgeCutTest, BeatsHashPlacementOnCommunityGraph) {
  Graph g = GeneratePlantedPartition(8, 40, 0.2, 0.005, 11).ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
                   .ValueOrDie();
  const size_t servers = 8;
  auto cut = GreedyEdgeCutPartitioner::Build(g, w, servers).MoveValueOrDie();
  HashPartitioner hash(servers);

  size_t hash_cut = 0;
  g.ForEachEdge([&](const Edge& e) {
    hash_cut += hash.ServerOf(e.src) != hash.ServerOf(e.dst);
  });
  EXPECT_LT(cut.cut_edges(g), hash_cut);

  Schedule schedule = HybridSchedule(g, w);
  const double cut_cost = PlacementAwareCost(g, w, schedule, cut);
  const double hash_cost = PlacementAwareCost(g, w, schedule, hash);
  EXPECT_LT(cut_cost, hash_cost);
}

}  // namespace
}  // namespace piggy
