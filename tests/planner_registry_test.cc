// The unified planner surface: registry behavior, the uniform Plan contract
// on 3 graph families x 2 seeds for every registered planner, and golden
// parity tests proving the registry planners reproduce the legacy free
// functions' schedules bit-identically.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/chitchat.h"
#include "core/cost_model.h"
#include "core/parallel_nosy.h"
#include "core/planner.h"
#include "core/validator.h"
#include "gen/generators.h"
#include "gen/presets.h"
#include "workload/workload.h"

namespace piggy {
namespace {

constexpr size_t kNodes = 400;

struct Family {
  const char* name;
  Graph graph;
};

std::vector<Family> GraphFamilies(uint64_t seed) {
  std::vector<Family> families;
  families.push_back({"flickr", MakeFlickrLike(kNodes, seed).ValueOrDie()});
  families.push_back({"twitter", MakeTwitterLike(kNodes, seed).ValueOrDie()});
  families.push_back(
      {"er", GenerateErdosRenyi(kNodes, kNodes * 8, seed).ValueOrDie()});
  return families;
}

Workload WorkloadFor(const Graph& g) {
  return GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
      .ValueOrDie();
}

// Bit-identity: same H, same L, same C (including the covering hub ids).
void ExpectSchedulesIdentical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.push_size(), b.push_size());
  ASSERT_EQ(a.pull_size(), b.pull_size());
  ASSERT_EQ(a.hub_covered_size(), b.hub_covered_size());
  a.ForEachPush([&b](const Edge& e) { EXPECT_TRUE(b.IsPush(e.src, e.dst)); });
  a.ForEachPull([&b](const Edge& e) { EXPECT_TRUE(b.IsPull(e.src, e.dst)); });
  a.ForEachHubCover([&b](const Edge& e, NodeId hub) {
    auto other = b.HubFor(e.src, e.dst);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(*other, hub);
  });
}

TEST(PlannerRegistryTest, RegistryListsTheExpectedPlanners) {
  std::set<std::string> names;
  for (const PlannerInfo& info : RegisteredPlanners()) {
    EXPECT_FALSE(info.description.empty()) << info.name;
    names.insert(info.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"chitchat", "hybrid", "nosy",
                                          "pull-all", "push-all"}));
}

TEST(PlannerRegistryTest, UnknownNameIsAnErrorNamingValidOptions) {
  for (const char* unknown : {"no-such-planner", "ff", "parallelnosy"}) {
    auto planner = MakePlanner(unknown);
    ASSERT_FALSE(planner.ok()) << unknown;
    EXPECT_TRUE(planner.status().IsInvalidArgument()) << unknown;
    const std::string& msg = planner.status().message();
    for (const char* name : {"chitchat", "hybrid", "nosy", "pull-all", "push-all"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(PlannerRegistryTest, MismatchedWorkloadIsAnError) {
  Graph g = MakeFlickrLike(kNodes, 1).ValueOrDie();
  Workload w;  // empty: covers no users
  for (const PlannerInfo& info : RegisteredPlanners()) {
    auto planner = MakePlanner(info.name).MoveValueOrDie();
    auto plan = planner->Plan(g, w, {});
    EXPECT_FALSE(plan.ok()) << info.name;
    EXPECT_TRUE(plan.status().IsInvalidArgument()) << info.name;
  }
}

// Every registered planner, on every family and seed, must return a valid
// schedule with self-consistent metadata.
TEST(PlannerRegistryTest, EveryPlannerValidatesOnEveryFamilyAndSeed) {
  for (uint64_t seed : {7u, 21u}) {
    for (Family& family : GraphFamilies(seed)) {
      Workload w = WorkloadFor(family.graph);
      const double ff = HybridCost(family.graph, w);
      for (const PlannerInfo& info : RegisteredPlanners()) {
        SCOPED_TRACE(std::string(family.name) + "/" + info.name +
                     "/seed=" + std::to_string(seed));
        auto planner = MakePlanner(info.name).MoveValueOrDie();
        PlanResult plan =
            planner->Plan(family.graph, w, {}).MoveValueOrDie();
        EXPECT_TRUE(ValidateSchedule(family.graph, plan.schedule).ok());
        EXPECT_EQ(plan.planner, info.name);
        EXPECT_EQ(plan.hybrid_cost, ff);
        EXPECT_EQ(plan.final_cost, ScheduleCost(family.graph, w, plan.schedule,
                                                ResidualPolicy::kFree));
        EXPECT_GT(plan.final_cost, 0.0);
        EXPECT_GE(plan.wall_seconds, 0.0);
        // The optimizers never lose to the FF baseline; FF never loses to
        // the naive baselines (so every planner is within the bracket).
        if (info.name == "chitchat" || info.name == "nosy") {
          EXPECT_LE(plan.final_cost, ff + 1e-6);
          EXPECT_TRUE(plan.converged);
        }
        if (info.name == "hybrid") {
          EXPECT_EQ(plan.final_cost, ff);
        }
      }
    }
  }
}

// Golden parity: registry-built planners emit bit-identical schedules to the
// legacy free-function entry points they wrap.
TEST(PlannerRegistryTest, RegistryPlannersMatchLegacyEntryPointsBitwise) {
  for (uint64_t seed : {7u, 21u}) {
    for (Family& family : GraphFamilies(seed)) {
      Workload w = WorkloadFor(family.graph);
      SCOPED_TRACE(std::string(family.name) + "/seed=" + std::to_string(seed));

      auto plan = [&family, &w](const char* name) {
        return MakePlanner(name)
            .ValueOrDie()
            ->Plan(family.graph, w, {})
            .MoveValueOrDie();
      };

      ChitChatStats cc_stats;
      Schedule cc =
          RunChitChat(family.graph, w, {}, &cc_stats).MoveValueOrDie();
      PlanResult cc_plan = plan("chitchat");
      ExpectSchedulesIdentical(cc_plan.schedule, cc);
      EXPECT_EQ(cc_plan.final_cost, cc_stats.final_cost);

      ParallelNosyResult pn = RunParallelNosy(family.graph, w).MoveValueOrDie();
      PlanResult pn_plan = plan("nosy");
      ExpectSchedulesIdentical(pn_plan.schedule, pn.schedule);
      EXPECT_EQ(pn_plan.final_cost, pn.final_cost);
      EXPECT_EQ(pn_plan.hybrid_cost, pn.hybrid_cost);
      ASSERT_EQ(pn_plan.iterations.size(), pn.iterations.size());
      for (size_t i = 0; i < pn.iterations.size(); ++i) {
        EXPECT_EQ(pn_plan.iterations[i].cost_after, pn.iterations[i].cost_after);
        EXPECT_EQ(pn_plan.iterations[i].applied, pn.iterations[i].applied);
      }

      ExpectSchedulesIdentical(plan("hybrid").schedule,
                               HybridSchedule(family.graph, w));
      ExpectSchedulesIdentical(plan("push-all").schedule,
                               PushAllSchedule(family.graph));
      ExpectSchedulesIdentical(plan("pull-all").schedule,
                               PullAllSchedule(family.graph));
    }
  }
}

// Typed factories honor custom algorithm options through the same contract.
TEST(PlannerRegistryTest, TypedFactoriesForwardOptions) {
  Graph g = MakeFlickrLike(kNodes, 5).ValueOrDie();
  Workload w = WorkloadFor(g);

  ParallelNosyOptions nosy_options;
  nosy_options.max_iterations = 2;
  auto nosy = MakeParallelNosyPlanner(nosy_options);
  PlanResult plan = nosy->Plan(g, w, {}).MoveValueOrDie();
  EXPECT_LE(plan.iterations.size(), 2u);
  ExpectSchedulesIdentical(
      plan.schedule, RunParallelNosy(g, w, nosy_options).ValueOrDie().schedule);

  ChitChatOptions cc_options;
  cc_options.num_threads = 1;  // sequential reference
  PlanResult cc = MakeChitChatPlanner(cc_options)->Plan(g, w, {}).MoveValueOrDie();
  ExpectSchedulesIdentical(cc.schedule,
                           RunChitChat(g, w, cc_options).ValueOrDie());
}

// PlanContext.num_threads overrides the options' thread count without
// changing the result (the thread-count parity guarantee of PR 2).
TEST(PlannerRegistryTest, ContextThreadsPreserveParity) {
  Graph g = MakeFlickrLike(kNodes, 9).ValueOrDie();
  Workload w = WorkloadFor(g);
  PlanContext sequential;
  sequential.num_threads = 1;
  PlanContext threaded;
  threaded.num_threads = 4;
  for (const char* name : {"chitchat", "nosy"}) {
    SCOPED_TRACE(name);
    auto planner = MakePlanner(name).MoveValueOrDie();
    PlanResult a = planner->Plan(g, w, sequential).MoveValueOrDie();
    PlanResult b = planner->Plan(g, w, threaded).MoveValueOrDie();
    ExpectSchedulesIdentical(a.schedule, b.schedule);
    EXPECT_EQ(a.final_cost, b.final_cost);
  }
}

// Cancellation is anytime-safe: a pre-cancelled context still yields a
// schedule serving every edge (the optimizers complete it at hybrid).
TEST(PlannerRegistryTest, CancelledPlanIsStillValid) {
  Graph g = MakeFlickrLike(kNodes, 3).ValueOrDie();
  Workload w = WorkloadFor(g);
  std::atomic<bool> cancel{true};
  PlanContext ctx;
  ctx.cancel = &cancel;
  for (const PlannerInfo& info : RegisteredPlanners()) {
    SCOPED_TRACE(info.name);
    auto planner = MakePlanner(info.name).MoveValueOrDie();
    PlanResult plan = planner->Plan(g, w, ctx).MoveValueOrDie();
    EXPECT_TRUE(ValidateSchedule(g, plan.schedule).ok());
    if (info.name == "chitchat" || info.name == "nosy") {
      EXPECT_FALSE(plan.converged);
    }
  }
}

// The progress callback observes the optimizers' steps.
TEST(PlannerRegistryTest, ProgressCallbackFires) {
  Graph g = MakeFlickrLike(kNodes, 11).ValueOrDie();
  Workload w = WorkloadFor(g);
  size_t calls = 0;
  PlanContext ctx;
  ctx.progress = [&calls](const PlanProgress& p) {
    EXPECT_NE(p.phase, nullptr);
    ++calls;
  };
  MakePlanner("nosy").ValueOrDie()->Plan(g, w, ctx).MoveValueOrDie();
  EXPECT_GT(calls, 0u);
  calls = 0;
  MakePlanner("chitchat").ValueOrDie()->Plan(g, w, ctx).MoveValueOrDie();
  EXPECT_GT(calls, 0u);
}

}  // namespace
}  // namespace piggy
