// Cross-family stress tests: both optimizers and the full serving stack on
// pathological graph shapes (no triangles, all triangles, one-directional
// fan-out, disconnected unions) under several read/write ratios. These
// families have no piggybacking structure, degenerate structure, or extreme
// hub structure, and exercise code paths the social-graph sweeps cannot.

#include <gtest/gtest.h>

#include <tuple>

#include "core/piggy.h"

namespace piggy {
namespace {

Graph MakeFamily(const std::string& family, uint64_t seed) {
  if (family == "star") return GenerateStar(60, 0).ValueOrDie();
  if (family == "cycle") return GenerateCycle(60).ValueOrDie();
  if (family == "complete") return GenerateComplete(16).ValueOrDie();
  if (family == "bipartite") return GenerateBipartite(8, 30).ValueOrDie();
  if (family == "smallworld") {
    return GenerateSmallWorld(80, 3, 0.1, seed).ValueOrDie();
  }
  if (family == "er") return GenerateErdosRenyi(60, 400, seed).ValueOrDie();
  if (family == "two-islands") {
    // Two disconnected dense communities.
    GraphBuilder b;
    for (NodeId u = 0; u < 10; ++u) {
      for (NodeId v = 0; v < 10; ++v) {
        if (u != v) {
          b.AddEdge(u, v);
          b.AddEdge(u + 10, v + 10);
        }
      }
    }
    return std::move(b).Build().ValueOrDie();
  }
  PIGGY_LOG(Fatal) << "unknown family " << family;
  return Graph();
}

class FamilyStressTest
    : public ::testing::TestWithParam<std::tuple<const char*, double>> {};

TEST_P(FamilyStressTest, BothOptimizersValidAndFFDominant) {
  auto [family, ratio] = GetParam();
  Graph g = MakeFamily(family, 7);
  Workload w = GenerateWorkload(g, {.read_write_ratio = ratio, .min_rate = 0.05})
                   .ValueOrDie();
  const double ff = HybridCost(g, w);

  auto pn = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_TRUE(ValidateSchedule(g, pn.schedule).ok()) << family;
  EXPECT_LE(pn.final_cost, ff + 1e-9) << family;

  Schedule cc = RunChitChat(g, w).ValueOrDie();
  EXPECT_TRUE(ValidateSchedule(g, cc).ok()) << family;
  EXPECT_LE(ScheduleCost(g, w, cc, ResidualPolicy::kFree), ff + 1e-9) << family;
}

TEST_P(FamilyStressTest, ServingStackAuditsClean) {
  auto [family, ratio] = GetParam();
  Graph g = MakeFamily(family, 7);
  Workload w = GenerateWorkload(g, {.read_write_ratio = ratio, .min_rate = 0.05})
                   .ValueOrDie();
  auto pn = RunParallelNosy(g, w).ValueOrDie();
  PrototypeOptions opt;
  opt.num_servers = 8;
  opt.view_capacity = 0;
  auto proto = Prototype::Create(g, pn.schedule, opt).MoveValueOrDie();
  auto scenario =
      MakeScenario("stationary", g, w, {.num_requests = 1500, .seed = 11})
          .MoveValueOrDie();
  size_t audited = 0;
  ReplayOptions options;
  options.on_epoch_close = AuditPlaneAtEpochClose(*proto, 8, &audited);
  ASSERT_TRUE(ReplayScenario(*scenario, *proto, pn.schedule, options).ok())
      << family;
  EXPECT_GT(audited, 0u) << family;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndRatios, FamilyStressTest,
    ::testing::Combine(::testing::Values("star", "cycle", "complete", "bipartite",
                                         "smallworld", "er", "two-islands"),
                       ::testing::Values(1.0, 5.0, 50.0)));

// Structure-specific expectations.

TEST(FamilyExpectationsTest, TriangleFreeFamiliesGainNothing) {
  // Stars, cycles and producer->consumer bipartite graphs have no 2-path
  // closed by a cross edge, so the optimum is FF and both algorithms match
  // it without inventing hub covers.
  for (const char* family : {"star", "cycle", "bipartite"}) {
    Graph g = MakeFamily(family, 3);
    Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
    auto pn = RunParallelNosy(g, w).ValueOrDie();
    EXPECT_NEAR(pn.final_cost, pn.hybrid_cost, 1e-9) << family;
    EXPECT_EQ(pn.schedule.hub_covered_size(), 0u) << family;
    Schedule cc = RunChitChat(g, w).ValueOrDie();
    EXPECT_NEAR(ScheduleCost(g, w, cc, ResidualPolicy::kFree), HybridCost(g, w),
                1e-9)
        << family;
  }
}

TEST(FamilyExpectationsTest, CompleteGraphGainsALot) {
  // A complete digraph is all triangles: nearly every edge can ride a hub.
  Graph g = MakeFamily("complete", 3);
  Workload w = GenerateWorkload(g, {.read_write_ratio = 2.0, .min_rate = 0.05})
                   .ValueOrDie();
  auto pn = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_LT(pn.final_cost, pn.hybrid_cost * 0.7);
  EXPECT_GT(pn.schedule.hub_covered_size(), g.num_edges() / 2);
}

TEST(FamilyExpectationsTest, IslandsOptimizeIndependently) {
  // Disconnected components must not interfere: covers never cross islands.
  Graph g = MakeFamily("two-islands", 3);
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto pn = RunParallelNosy(g, w).ValueOrDie();
  pn.schedule.ForEachHubCover([](const Edge& e, NodeId hub) {
    bool src_island = e.src < 10;
    EXPECT_EQ(src_island, e.dst < 10);
    EXPECT_EQ(src_island, hub < 10);
  });
  EXPECT_GT(pn.schedule.hub_covered_size(), 0u);
}

}  // namespace
}  // namespace piggy
