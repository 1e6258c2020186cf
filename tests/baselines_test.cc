#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "core/baselines.h"
#include "core/cost_model.h"
#include "core/validator.h"
#include "gen/generators.h"
#include "gen/presets.h"
#include "workload/workload.h"

namespace piggy {
namespace {

TEST(BaselinesTest, PushAllPutsEveryEdgeInH) {
  Graph g = GenerateErdosRenyi(30, 100, 1).ValueOrDie();
  Schedule s = PushAllSchedule(g);
  EXPECT_EQ(s.push_size(), g.num_edges());
  EXPECT_EQ(s.pull_size(), 0u);
  g.ForEachEdge([&](const Edge& e) { EXPECT_TRUE(s.IsPush(e.src, e.dst)); });
}

TEST(BaselinesTest, PullAllPutsEveryEdgeInL) {
  Graph g = GenerateErdosRenyi(30, 100, 2).ValueOrDie();
  Schedule s = PullAllSchedule(g);
  EXPECT_EQ(s.pull_size(), g.num_edges());
  EXPECT_EQ(s.push_size(), 0u);
}

TEST(BaselinesTest, HybridPicksCheaperSide) {
  Graph g = BuildGraph(4, {{0, 1}, {2, 3}}).ValueOrDie();
  Workload w = UniformWorkload(4, 1.0, 1.0);
  w.production[0] = 0.5;  // push cheaper on 0->1
  w.consumption[1] = 2.0;
  w.production[2] = 9.0;  // pull cheaper on 2->3
  w.consumption[3] = 1.0;
  Schedule s = HybridSchedule(g, w);
  EXPECT_TRUE(s.IsPush(0, 1));
  EXPECT_FALSE(s.IsPull(0, 1));
  EXPECT_TRUE(s.IsPull(2, 3));
  EXPECT_FALSE(s.IsPush(2, 3));
}

TEST(BaselinesTest, HybridTieGoesToPush) {
  Graph g = BuildGraph(2, {{0, 1}}).ValueOrDie();
  Workload w = UniformWorkload(2, 3.0, 3.0);
  Schedule s = HybridSchedule(g, w);
  EXPECT_TRUE(s.IsPush(0, 1));
}

TEST(BaselinesTest, HybridCostMatchesScheduleCost) {
  Graph g = MakeFlickrLike(800, 3).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  Schedule s = HybridSchedule(g, w);
  EXPECT_NEAR(ScheduleCost(g, w, s, ResidualPolicy::kFree), HybridCost(g, w), 1e-6);
}

TEST(BaselinesTest, HybridNeverWorseThanPushAllOrPullAll) {
  for (double ratio : {0.5, 1.0, 5.0, 50.0}) {
    Graph g = MakeTwitterLike(600, 7).ValueOrDie();
    Workload w = GenerateWorkload(g, {.read_write_ratio = ratio}).ValueOrDie();
    double hybrid = ScheduleCost(g, w, HybridSchedule(g, w));
    double push_all = ScheduleCost(g, w, PushAllSchedule(g));
    double pull_all = ScheduleCost(g, w, PullAllSchedule(g));
    EXPECT_LE(hybrid, push_all + 1e-9);
    EXPECT_LE(hybrid, pull_all + 1e-9);
  }
}

// FF is provably optimal among schedules that serve every edge directly:
// brute-force all 2^m push/pull assignments on a small graph.
TEST(BaselinesTest, HybridOptimalAmongDirectSchedules) {
  Graph g = GenerateErdosRenyi(6, 10, 5).ValueOrDie();
  Workload w;
  w.production = {1.0, 3.0, 0.5, 2.0, 4.0, 1.5};
  w.consumption = {2.0, 0.7, 5.0, 1.0, 0.2, 3.0};
  std::vector<Edge> edges = g.Edges();
  double best = 1e18;
  for (uint32_t mask = 0; mask < (1u << edges.size()); ++mask) {
    Schedule s;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (mask >> i & 1) {
        s.AddPush(edges[i].src, edges[i].dst);
      } else {
        s.AddPull(edges[i].src, edges[i].dst);
      }
    }
    best = std::min(best, ScheduleCost(g, w, s, ResidualPolicy::kFree));
  }
  EXPECT_NEAR(HybridCost(g, w), best, 1e-9);
}

}  // namespace
}  // namespace piggy
