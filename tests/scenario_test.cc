// Scenario engine: registry surface, stream determinism, epoch accounting,
// stationary sampling against a reference draw loop, and churn-op
// coherence for every registered scenario family.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "gen/presets.h"
#include "graph/dynamic_graph.h"
#include "scenario/scenario.h"
#include "util/alias_table.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (const ScenarioInfo& info : RegisteredScenarios()) names.push_back(info.name);
  return names;
}

ScenarioOptions SmallRun() {
  ScenarioOptions options;
  options.num_requests = 4000;
  options.epochs = 8;
  options.seed = 11;
  return options;
}

std::vector<ScenarioOp> Drain(Scenario& scenario) {
  std::vector<ScenarioOp> ops;
  ScenarioOp op;
  while (scenario.Next(&op)) ops.push_back(op);
  return ops;
}

bool SameOp(const ScenarioOp& a, const ScenarioOp& b) {
  return a.time == b.time && a.kind == b.kind && a.user == b.user &&
         a.producer == b.producer && a.epoch == b.epoch;
}

TEST(ScenarioTest, RegistryListsTheSixFamilies) {
  const std::vector<std::string> names = AllNames();
  for (const char* expected :
       {"stationary", "diurnal", "flash-crowd", "celebrity-join",
        "follow-storm", "regional-event"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
}

TEST(ScenarioTest, UnknownNamesListValidOptions) {
  Graph g = MakeFlickrLike(100, 1).ValueOrDie();
  auto scenario = MakeScenario("no-such-scenario", g, SmallRun());
  ASSERT_FALSE(scenario.ok());
  EXPECT_TRUE(scenario.status().IsInvalidArgument());
  EXPECT_NE(scenario.status().message().find("flash-crowd"), std::string::npos);
}

TEST(ScenarioTest, RejectsBadInputs) {
  Graph g = MakeFlickrLike(100, 1).ValueOrDie();
  ScenarioOptions no_epochs = SmallRun();
  no_epochs.epochs = 0;
  EXPECT_FALSE(MakeScenario("stationary", g, no_epochs).ok());
  ScenarioOptions no_duration = SmallRun();
  no_duration.duration = 0;
  EXPECT_FALSE(MakeScenario("stationary", g, no_duration).ok());
  Workload wrong = UniformWorkload(7, 1.0, 5.0);
  EXPECT_FALSE(MakeScenario("stationary", g, std::move(wrong), SmallRun()).ok());
}

// The satellite requirement: a fixed seed reproduces the stream exactly,
// both across fresh instances and across Reset().
TEST(ScenarioTest, StreamsAreDeterministicAcrossRerunsAndReset) {
  Graph g = MakeFlickrLike(300, 5).ValueOrDie();
  for (const std::string& name : AllNames()) {
    SCOPED_TRACE(name);
    auto a = MakeScenario(name, g, SmallRun()).MoveValueOrDie();
    auto b = MakeScenario(name, g, SmallRun()).MoveValueOrDie();
    const std::vector<ScenarioOp> ops_a = Drain(*a);
    const std::vector<ScenarioOp> ops_b = Drain(*b);
    ASSERT_EQ(ops_a.size(), ops_b.size());
    for (size_t i = 0; i < ops_a.size(); ++i) {
      ASSERT_TRUE(SameOp(ops_a[i], ops_b[i])) << "op " << i;
    }
    a->Reset();
    const std::vector<ScenarioOp> ops_again = Drain(*a);
    ASSERT_EQ(ops_a.size(), ops_again.size());
    for (size_t i = 0; i < ops_a.size(); ++i) {
      ASSERT_TRUE(SameOp(ops_a[i], ops_again[i])) << "op " << i;
    }
  }
}

TEST(ScenarioTest, StreamsAreTimeOrderedWithExactRequestCounts) {
  Graph g = MakeFlickrLike(300, 5).ValueOrDie();
  for (const std::string& name : AllNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenario(name, g, SmallRun()).MoveValueOrDie();
    EXPECT_EQ(scenario->num_epochs(), SmallRun().epochs);
    size_t requests = 0;
    double last_time = 0;
    uint32_t last_epoch = 0;
    ScenarioOp op;
    while (scenario->Next(&op)) {
      EXPECT_GE(op.time, last_time);
      EXPECT_GE(op.epoch, last_epoch);
      EXPECT_LT(op.epoch, scenario->num_epochs());
      EXPECT_GE(op.time, scenario->EpochStart(op.epoch));
      EXPECT_LE(op.time, scenario->duration());
      last_time = op.time;
      last_epoch = op.epoch;
      if (op.kind == ScenarioOpKind::kShare || op.kind == ScenarioOpKind::kQuery) {
        EXPECT_LT(op.user, g.num_nodes());
        ++requests;
      }
    }
    EXPECT_EQ(requests, SmallRun().num_requests);
  }
}

// The stationary scenario must sample requests as the paper's cost model
// assumes, draw for draw against this reference loop: one Bernoulli on the
// share fraction, then one alias-table draw, from Rng(seed). Every figure
// that replays it (Figs. 6, 8, 14) depends on this order staying fixed.
TEST(ScenarioTest, StationarySamplingMatchesReferenceDraws) {
  Graph g = MakeFlickrLike(400, 9).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.01}).ValueOrDie();
  ScenarioOptions options = SmallRun();
  auto scenario = MakeScenario("stationary", g, w, options).MoveValueOrDie();

  AliasTable share_sampler(w.production);
  AliasTable query_sampler(w.consumption);
  const double p_share =
      w.TotalProduction() / (w.TotalProduction() + w.TotalConsumption());
  Rng rng(options.seed);

  ScenarioOp op;
  for (size_t i = 0; i < options.num_requests; ++i) {
    ASSERT_TRUE(scenario->Next(&op)) << "stream ended early at " << i;
    if (rng.Bernoulli(p_share)) {
      EXPECT_EQ(op.kind, ScenarioOpKind::kShare) << "request " << i;
      EXPECT_EQ(op.user, share_sampler.Sample(rng)) << "request " << i;
    } else {
      EXPECT_EQ(op.kind, ScenarioOpKind::kQuery) << "request " << i;
      EXPECT_EQ(op.user, query_sampler.Sample(rng)) << "request " << i;
    }
  }
  EXPECT_FALSE(scenario->Next(&op));  // no churn, no rate shifts, no extras
}

TEST(ScenarioTest, StationaryNeverShiftsRates) {
  Graph g = MakeFlickrLike(200, 3).ValueOrDie();
  auto scenario = MakeScenario("stationary", g, SmallRun()).MoveValueOrDie();
  for (const ScenarioOp& op : Drain(*scenario)) {
    EXPECT_NE(op.kind, ScenarioOpKind::kRateShift);
    EXPECT_NE(op.kind, ScenarioOpKind::kFollow);
    EXPECT_NE(op.kind, ScenarioOpKind::kUnfollow);
  }
  for (size_t e = 0; e < scenario->num_epochs(); ++e) {
    EXPECT_EQ(&scenario->EpochWorkload(e), &scenario->EpochWorkload(0));
  }
}

// Churn ops must be coherent against the evolving topology: follows add
// edges that do not exist yet, unfollows remove edges that do.
TEST(ScenarioTest, ChurnOpsAreCoherentAgainstTheEvolvingGraph) {
  Graph g = MakeFlickrLike(300, 5).ValueOrDie();
  for (const std::string& name : AllNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenario(name, g, SmallRun()).MoveValueOrDie();
    DynamicGraph evolving(g);
    size_t follows = 0, unfollows = 0;
    ScenarioOp op;
    while (scenario->Next(&op)) {
      if (op.kind == ScenarioOpKind::kFollow) {
        ASSERT_NE(op.user, op.producer);
        ASSERT_TRUE(evolving.AddEdge(op.producer, op.user))
            << "duplicate follow " << op.ToString();
        ++follows;
      } else if (op.kind == ScenarioOpKind::kUnfollow) {
        ASSERT_TRUE(evolving.RemoveEdge(op.producer, op.user))
            << "spurious unfollow " << op.ToString();
        ++unfollows;
      }
    }
    if (name == "celebrity-join" || name == "follow-storm" ||
        name == "regional-event") {
      EXPECT_GT(follows, 0u) << "churn scenario emitted no follows";
    }
    if (name == "follow-storm") {
      EXPECT_GT(unfollows, 0u);
    }
  }
}

// Rate-shift markers fire exactly when the ground-truth workload changes,
// and epoch workloads evolve for every non-stationary family.
TEST(ScenarioTest, RateShiftsTrackEpochWorkloads) {
  Graph g = MakeFlickrLike(300, 5).ValueOrDie();
  for (const std::string& name :
       {std::string("diurnal"), std::string("flash-crowd"),
        std::string("regional-event")}) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenario(name, g, SmallRun()).MoveValueOrDie();
    std::set<uint32_t> shifted;
    for (const ScenarioOp& op : Drain(*scenario)) {
      if (op.kind == ScenarioOpKind::kRateShift) {
        EXPECT_TRUE(shifted.insert(op.epoch).second)
            << "duplicate shift in epoch " << op.epoch;
        EXPECT_GT(op.epoch, 0u);
      }
    }
    ASSERT_FALSE(shifted.empty());
    for (uint32_t e : shifted) {
      EXPECT_NE(&scenario->EpochWorkload(e), &scenario->EpochWorkload(e - 1));
    }
  }
}

// Bursty epochs carry proportionally more requests (flash-crowd's spike
// epoch must outweigh a quiet epoch).
TEST(ScenarioTest, RequestDensityFollowsEpochRates) {
  Graph g = MakeFlickrLike(400, 9).ValueOrDie();
  ScenarioOptions options = SmallRun();
  options.num_requests = 16000;
  options.intensity = 10.0;
  auto scenario = MakeScenario("flash-crowd", g, options).MoveValueOrDie();
  std::vector<size_t> per_epoch(scenario->num_epochs(), 0);
  for (const ScenarioOp& op : Drain(*scenario)) {
    if (op.kind == ScenarioOpKind::kShare || op.kind == ScenarioOpKind::kQuery) {
      per_epoch[op.epoch] += 1;
    }
  }
  const size_t quiet = per_epoch[0];
  const size_t spike = *std::max_element(per_epoch.begin(), per_epoch.end());
  EXPECT_GT(spike, quiet);
}

// An all-zero base workload legally produces an empty stream (the "rate
// shift to zero" degenerate case at its extreme).
TEST(ScenarioTest, ZeroRatesEmitNoRequests) {
  Graph g = MakeFlickrLike(100, 2).ValueOrDie();
  Workload zero;
  zero.production.assign(g.num_nodes(), 0.0);
  zero.consumption.assign(g.num_nodes(), 0.0);
  auto scenario =
      MakeScenario("stationary", g, std::move(zero), SmallRun()).MoveValueOrDie();
  ScenarioOp op;
  EXPECT_FALSE(scenario->Next(&op));
}

}  // namespace
}  // namespace piggy
