#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/baselines.h"
#include "core/cost_model.h"
#include "core/parallel_nosy.h"
#include "core/validator.h"
#include "gen/generators.h"
#include "gen/presets.h"
#include "graph/graph_builder.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

Graph PaperTriangle() {
  return BuildGraph(3, {{0, 2}, {2, 1}, {0, 1}}).ValueOrDie();
}

// Compares two schedules entry-by-entry.
void ExpectSameSchedule(const Graph& g, const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.push_size(), b.push_size());
  EXPECT_EQ(a.pull_size(), b.pull_size());
  EXPECT_EQ(a.hub_covered_size(), b.hub_covered_size());
  g.ForEachEdge([&](const Edge& e) {
    EXPECT_EQ(a.IsPush(e.src, e.dst), b.IsPush(e.src, e.dst))
        << e.src << "->" << e.dst;
    EXPECT_EQ(a.IsPull(e.src, e.dst), b.IsPull(e.src, e.dst))
        << e.src << "->" << e.dst;
    EXPECT_EQ(a.HubFor(e.src, e.dst), b.HubFor(e.src, e.dst))
        << e.src << "->" << e.dst;
  });
}

TEST(ParallelNosyTest, TrianglePiggybacksWhenProfitable) {
  Graph g = PaperTriangle();
  Workload w;
  w.production = {1.0, 0.1, 1.0};
  w.consumption = {10.0, 0.5, 10.0};
  // Candidate for hub edge 2->1 with X = {0}: saved = c*(0->1) = 0.5;
  // cost = push(0->2): 1 - min(1,10) = 0, pull(2->1): 0.5 - 0.5 = 0 => gain 0.5.
  auto result = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(ValidateSchedule(g, result.schedule).ok());
  EXPECT_TRUE(result.schedule.IsPush(0, 2));
  EXPECT_TRUE(result.schedule.IsPull(2, 1));
  EXPECT_TRUE(result.schedule.IsHubCovered(0, 1));
  EXPECT_NEAR(result.final_cost, 1.5, 1e-9);
  EXPECT_LT(result.final_cost, result.hybrid_cost);
}

TEST(ParallelNosyTest, NoCandidateMeansImmediateConvergence) {
  Graph g = BuildGraph(3, {{0, 1}, {1, 2}}).ValueOrDie();  // no triangles
  Workload w = UniformWorkload(3, 1.0, 5.0);
  auto result = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.iterations[0].candidates, 0u);
  EXPECT_NEAR(result.final_cost, result.hybrid_cost, 1e-9);
}

TEST(ParallelNosyTest, SequentialAndMapReduceAgree) {
  for (uint64_t seed : {1, 2, 3}) {
    Graph g = MakeFlickrLike(500, seed).ValueOrDie();
    Workload w = GenerateWorkload(g, {}).ValueOrDie();
    ParallelNosyOptions seq;
    seq.use_mapreduce = false;
    ParallelNosyOptions par;
    par.use_mapreduce = true;
    par.num_threads = 7;  // odd thread count to stress determinism
    auto a = RunParallelNosy(g, w, seq).ValueOrDie();
    auto b = RunParallelNosy(g, w, par).ValueOrDie();
    EXPECT_EQ(a.iterations.size(), b.iterations.size());
    for (size_t i = 0; i < a.iterations.size(); ++i) {
      EXPECT_EQ(a.iterations[i].candidates, b.iterations[i].candidates);
      EXPECT_EQ(a.iterations[i].applied, b.iterations[i].applied);
      EXPECT_NEAR(a.iterations[i].cost_after, b.iterations[i].cost_after, 1e-6);
    }
    EXPECT_NEAR(a.final_cost, b.final_cost, 1e-6);
    ExpectSameSchedule(g, a.schedule, b.schedule);
  }
}

TEST(ParallelNosyTest, IterationCostsAreMonotone) {
  Graph g = MakeTwitterLike(800, 4).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  auto result = RunParallelNosy(g, w).ValueOrDie();
  double prev = result.hybrid_cost;
  for (const auto& it : result.iterations) {
    EXPECT_LE(it.cost_after, prev + 1e-6) << it.ToString();
    prev = it.cost_after;
  }
  EXPECT_LE(result.final_cost, result.hybrid_cost + 1e-6);
}

TEST(ParallelNosyTest, ConvergesAndStopsEarly) {
  Graph g = MakeFlickrLike(400, 6).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  ParallelNosyOptions opt;
  opt.max_iterations = 50;
  auto result = RunParallelNosy(g, w, opt).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations.size(), 50u);
  // Last iteration applied nothing.
  EXPECT_EQ(result.iterations.back().applied, 0u);
}

TEST(ParallelNosyTest, FinalizedScheduleIsValid) {
  Graph g = MakeFlickrLike(300, 8).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  auto result = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_TRUE(ValidateSchedule(g, result.schedule).ok());
}

// Finalize completes the schedule at the hybrid policy: served edges (push,
// pull or hub-covered) keep their service, and every other edge goes to its
// cheaper direct side, push on ties.
TEST(ParallelNosyTest, FinalizeServesOnlyUnservedEdgesAtTheirCheaperSide) {
  Graph g = MakeFlickrLike(300, 8).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  ParallelNosyOptions opt;
  opt.finalize_hybrid = false;
  const Schedule open = RunParallelNosy(g, w, opt).ValueOrDie().schedule;
  const Schedule done = RunParallelNosy(g, w).ValueOrDie().schedule;
  ASSERT_GT(open.hub_covered_size(), 0u);
  size_t completed = 0;
  g.ForEachEdge([&](const Edge& e) {
    if (open.IsAssigned(e.src, e.dst)) {
      EXPECT_EQ(done.IsPush(e.src, e.dst), open.IsPush(e.src, e.dst));
      EXPECT_EQ(done.IsPull(e.src, e.dst), open.IsPull(e.src, e.dst));
      EXPECT_EQ(done.HubFor(e.src, e.dst), open.HubFor(e.src, e.dst));
      return;
    }
    ++completed;
    const bool push = w.rp(e.src) <= w.rc(e.dst);
    EXPECT_EQ(done.IsPush(e.src, e.dst), push) << e.src << "->" << e.dst;
    EXPECT_EQ(done.IsPull(e.src, e.dst), !push) << e.src << "->" << e.dst;
  });
  EXPECT_GT(completed, 0u);
}

TEST(ParallelNosyTest, UnfinalizedLeavesResidualToHybrid) {
  Graph g = MakeFlickrLike(300, 8).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  ParallelNosyOptions opt;
  opt.finalize_hybrid = false;
  auto result = RunParallelNosy(g, w, opt).ValueOrDie();
  // Not fully assigned, but valid under allow_unassigned (hybrid at run time)
  // and costs identical to the finalized run.
  EXPECT_FALSE(ValidateSchedule(g, result.schedule).ok());
  EXPECT_TRUE(
      ValidateSchedule(g, result.schedule, {.allow_unassigned = true}).ok());
  auto finalized = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_NEAR(result.final_cost, finalized.final_cost, 1e-9);
}

TEST(ParallelNosyTest, MinGainThresholdReducesCandidates) {
  Graph g = MakeFlickrLike(400, 10).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  auto base = RunParallelNosy(g, w).ValueOrDie();
  ParallelNosyOptions strict;
  strict.min_gain = 1.0;  // only strongly profitable hubs
  auto filtered = RunParallelNosy(g, w, strict).ValueOrDie();
  EXPECT_LE(filtered.iterations[0].candidates, base.iterations[0].candidates);
  EXPECT_TRUE(ValidateSchedule(g, filtered.schedule).ok());
}

TEST(ParallelNosyTest, CrossEdgeCapBoundsHubSize) {
  Graph g = MakeTwitterLike(400, 12).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  ParallelNosyOptions capped;
  capped.max_hub_producers = 2;
  auto result = RunParallelNosy(g, w, capped).ValueOrDie();
  EXPECT_TRUE(ValidateSchedule(g, result.schedule).ok());
  // Capping loses opportunities but never validity or FF-dominance.
  EXPECT_LE(result.final_cost, result.hybrid_cost + 1e-6);
  auto uncapped = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_LE(uncapped.final_cost, result.final_cost + 1e-6);
}

TEST(ParallelNosyTest, RandomizedTieBreakStillValid) {
  Graph g = MakeFlickrLike(300, 14).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  ParallelNosyOptions opt;
  opt.randomized_tie_break = true;
  auto result = RunParallelNosy(g, w, opt).ValueOrDie();
  EXPECT_TRUE(ValidateSchedule(g, result.schedule).ok());
  EXPECT_LE(result.final_cost, result.hybrid_cost + 1e-6);
}

TEST(ParallelNosyTest, InvalidOptionsRejected) {
  Graph g = PaperTriangle();
  Workload w = UniformWorkload(3, 1, 1);
  ParallelNosyOptions bad;
  bad.max_hub_producers = 0;
  EXPECT_FALSE(RunParallelNosy(g, w, bad).ok());
  Workload mismatched = UniformWorkload(2, 1, 1);
  EXPECT_FALSE(RunParallelNosy(g, mismatched).ok());
}

// Hub covers must never chain: a pull edge w->y that supports covers cannot
// itself be covered through another hub (Theorem 1 allows only 2-hop paths).
TEST(ParallelNosyTest, NoChainedCovers) {
  Graph g = MakeTwitterLike(600, 16).ValueOrDie();
  Workload w = GenerateWorkload(g, {}).ValueOrDie();
  auto result = RunParallelNosy(g, w).ValueOrDie();
  result.schedule.ForEachHubCover([&](const Edge& e, NodeId hub) {
    EXPECT_TRUE(result.schedule.IsPush(e.src, hub));
    EXPECT_TRUE(result.schedule.IsPull(hub, e.dst));
    EXPECT_FALSE(result.schedule.IsHubCovered(e.src, hub));
    EXPECT_FALSE(result.schedule.IsHubCovered(hub, e.dst));
  });
}

// Order-independent digest of everything a run returns: the sorted push,
// pull and (edge, hub) cover sets, every iteration's counters and cost bits,
// the convergence flag and the final cost bits.
uint64_t PlanDigest(const ParallelNosyResult& r) {
  uint64_t h = 0;
  auto fold = [&h](uint64_t v) { h = Mix64(h ^ v); };
  auto fold_sorted = [&fold](std::vector<uint64_t> keys) {
    std::sort(keys.begin(), keys.end());
    fold(keys.size());
    for (uint64_t k : keys) fold(k);
  };
  std::vector<uint64_t> keys;
  r.schedule.ForEachPush([&keys](const Edge& e) { keys.push_back(EdgeKey(e)); });
  fold_sorted(std::move(keys));
  keys.clear();
  r.schedule.ForEachPull([&keys](const Edge& e) { keys.push_back(EdgeKey(e)); });
  fold_sorted(std::move(keys));
  keys.clear();
  r.schedule.ForEachHubCover([&keys](const Edge& e, NodeId hub) {
    keys.push_back(Mix64(EdgeKey(e)) ^ hub);
  });
  fold_sorted(std::move(keys));
  fold(r.iterations.size());
  for (const NosyIterationStats& it : r.iterations) {
    fold(it.candidates);
    fold(it.lock_requests);
    fold(it.applied);
    fold(it.edges_covered);
    fold(std::bit_cast<uint64_t>(it.cost_after));
  }
  fold(r.converged ? 1 : 0);
  fold(std::bit_cast<uint64_t>(r.final_cost));
  return h;
}

// Pins the plan bit for bit: the digests were recorded from the
// hash-set implementation of the planner, so any rewrite of its inner loops
// must reproduce the same schedules, iteration rows and costs. Every
// executor (sequential, MapReduce at 1, 2 and 4 threads) must agree.
TEST(ParallelNosyTest, PlanMatchesParentDigest) {
  struct Config {
    const char* name;
    size_t max_hub_producers;
    bool randomized_tie_break;
  };
  const Config kConfigs[] = {{"default", 100000, false},
                             {"max_hub_producers=2", 2, false},
                             {"randomized_tie_break", 100000, true}};
  const Graph graphs[] = {MakeFlickrLike(2000, 29).ValueOrDie(),
                          MakeTwitterLike(2000, 31).ValueOrDie()};
  const uint64_t kExpected[2][3] = {
      {0xada0ef5b2027048bULL, 0xeb9d1690fd79b8f3ULL, 0x10988cb6bdc7693fULL},
      {0xcd1d7a38c40a0ffaULL, 0x0e3852713be00794ULL, 0x4311461c7a920563ULL}};
  for (size_t gi = 0; gi < 2; ++gi) {
    const Graph& g = graphs[gi];
    Workload w = GenerateWorkload(g, {}).ValueOrDie();
    for (size_t ci = 0; ci < 3; ++ci) {
      SCOPED_TRACE(std::string(gi == 0 ? "flickr " : "twitter ") + kConfigs[ci].name);
      ParallelNosyOptions opt;
      opt.max_hub_producers = kConfigs[ci].max_hub_producers;
      opt.randomized_tie_break = kConfigs[ci].randomized_tie_break;
      opt.use_mapreduce = false;
      const uint64_t digest = PlanDigest(RunParallelNosy(g, w, opt).ValueOrDie());
      EXPECT_EQ(digest, kExpected[gi][ci]);
      opt.use_mapreduce = true;
      for (size_t threads : {1, 2, 4}) {
        opt.num_threads = threads;
        EXPECT_EQ(PlanDigest(RunParallelNosy(g, w, opt).ValueOrDie()), digest)
            << threads << " threads";
      }
    }
  }
}

// Property sweep across read/write ratios and seeds.
class NosyPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(NosyPropertyTest, ValidMonotoneAndFFDominant) {
  auto [ratio, seed] = GetParam();
  Graph g = GenerateSocialNetwork({.num_nodes = 300, .edges_per_node = 7}, seed)
                .ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = ratio}).ValueOrDie();
  auto result = RunParallelNosy(g, w).ValueOrDie();
  EXPECT_TRUE(ValidateSchedule(g, result.schedule).ok());
  EXPECT_LE(result.final_cost, result.hybrid_cost + 1e-6);
  double prev = result.hybrid_cost;
  for (const auto& it : result.iterations) {
    EXPECT_LE(it.cost_after, prev + 1e-6);
    prev = it.cost_after;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndSeeds, NosyPropertyTest,
    ::testing::Combine(::testing::Values(1.0, 5.0, 25.0, 100.0),
                       ::testing::Values<uint64_t>(1, 2, 3)));

}  // namespace
}  // namespace piggy
