// FeedService end-to-end: the facade must keep serving correct feeds (audited
// against the event-log oracle) through shares, queries, follow/unfollow
// churn, serving-plane rebuilds, and full replans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/validator.h"
#include "gen/presets.h"
#include "obs/trace.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/feed_service.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

FeedServiceOptions SmallDeployment(const std::string& planner) {
  FeedServiceOptions options;
  options.planner = planner;
  options.prototype.num_servers = 16;
  options.prototype.view_capacity = 0;  // unbounded views: exact audits
  options.workload = {.read_write_ratio = 5.0, .min_rate = 0.05};
  options.audit_every = 1;  // audit every query
  return options;
}

TEST(FeedServiceTest, CreateRejectsUnknownPlanner) {
  Graph g = MakeFlickrLike(200, 1).ValueOrDie();
  auto service = FeedService::Create(g, SmallDeployment("no-such-planner"));
  ASSERT_FALSE(service.ok());
  EXPECT_TRUE(service.status().IsInvalidArgument());
}

TEST(FeedServiceTest, CreateRejectsMismatchedWorkload) {
  Graph g = MakeFlickrLike(200, 1).ValueOrDie();
  Workload w = UniformWorkload(10, 1.0, 5.0);  // wrong size
  auto service = FeedService::Create(g, std::move(w), SmallDeployment("nosy"));
  ASSERT_FALSE(service.ok());
  EXPECT_TRUE(service.status().IsInvalidArgument());
}

TEST(FeedServiceTest, UnknownUsersAreRejected) {
  Graph g = MakeFlickrLike(100, 2).ValueOrDie();
  auto service = FeedService::Create(g, SmallDeployment("hybrid")).MoveValueOrDie();
  EXPECT_TRUE(service->Share(1000).IsInvalidArgument());
  EXPECT_FALSE(service->QueryStream(1000).ok());
  EXPECT_TRUE(service->Follow(1000, 1).IsInvalidArgument());
  EXPECT_TRUE(service->Follow(1, 1).IsInvalidArgument());
  EXPECT_TRUE(service->Unfollow(1000, 1).IsInvalidArgument());
}

TEST(FeedServiceTest, SharesAppearInFollowerFeeds) {
  Graph g = MakeFlickrLike(300, 3).ValueOrDie();
  auto service = FeedService::Create(g, SmallDeployment("chitchat")).MoveValueOrDie();

  // Find a followed producer and one of their followers.
  NodeId producer = 0;
  while (service->graph().OutDegree(producer) == 0) ++producer;
  NodeId follower = service->graph().OutNeighbors(producer)[0];

  ASSERT_TRUE(service->Share(producer).ok());
  ASSERT_TRUE(service->Share(producer).ok());
  std::vector<EventTuple> feed = service->QueryStream(follower).MoveValueOrDie();
  ASSERT_EQ(feed.size(), 2u);  // audited (audit_every = 1) and newest-first
  EXPECT_EQ(feed[0].producer, producer);
  EXPECT_EQ(feed[1].producer, producer);
}

TEST(FeedServiceTest, FollowDeliversAndUnfollowStops) {
  Graph g = MakeFlickrLike(300, 4).ValueOrDie();
  auto service = FeedService::Create(g, SmallDeployment("nosy")).MoveValueOrDie();

  // A producer and a user who does not follow them yet.
  NodeId producer = 0;
  while (service->graph().OutDegree(producer) == 0) ++producer;
  NodeId follower = 0;
  while (follower == producer || service->graph().HasEdge(producer, follower)) {
    ++follower;
  }
  ASSERT_LT(follower, service->graph().num_nodes());

  ASSERT_TRUE(service->Share(producer).ok());  // before the follow
  ASSERT_TRUE(service->Follow(follower, producer).ok());
  ASSERT_TRUE(service->Validate().ok());
  ASSERT_TRUE(service->Share(producer).ok());  // after the follow

  std::vector<EventTuple> feed = service->QueryStream(follower).MoveValueOrDie();
  // The pre-follow event survives the serving-plane rebuild (bounded
  // staleness with Theta = 0: the feed is exactly the oracle's answer).
  size_t from_producer = 0;
  for (const EventTuple& e : feed) from_producer += (e.producer == producer);
  EXPECT_EQ(from_producer, 2u);

  ASSERT_TRUE(service->Unfollow(follower, producer).ok());
  ASSERT_TRUE(service->Validate().ok());
  feed = service->QueryStream(follower).MoveValueOrDie();
  for (const EventTuple& e : feed) EXPECT_NE(e.producer, producer);
}

// The acceptance scenario: a long interleaved share / query / follow /
// unfollow run with every query audited, across planners, ending with a
// manual replan that must also preserve stored events.
TEST(FeedServiceTest, ChurnLifecycleStaysAuditClean) {
  for (const char* planner : {"nosy", "chitchat"}) {
    SCOPED_TRACE(planner);
    const size_t kNodes = 250;
    Graph g = MakeFlickrLike(kNodes, 7).ValueOrDie();
    auto service = FeedService::Create(g, SmallDeployment(planner)).MoveValueOrDie();
    ASSERT_TRUE(service->Validate().ok());

    Rng rng(99);
    for (int op = 0; op < 2000; ++op) {
      const double dice = rng.UniformDouble();
      NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      NodeId v = static_cast<NodeId>(rng.Uniform(kNodes));
      if (dice < 0.35) {
        ASSERT_TRUE(service->Share(u).ok());
      } else if (dice < 0.85) {
        ASSERT_TRUE(service->QueryStream(u).ok()) << "audit failed at op " << op;
      } else if (u != v && dice < 0.95) {
        ASSERT_TRUE(service->Follow(u, v).ok());
      } else if (u != v) {
        ASSERT_TRUE(service->Unfollow(u, v).ok());
      }
    }
    ASSERT_TRUE(service->Validate().ok());

    FeedService::Metrics before = service->GetMetrics();
    EXPECT_GT(before.shares, 0u);
    EXPECT_GT(before.queries, 0u);
    EXPECT_GT(before.audited_queries, 0u);
    EXPECT_GT(before.churn_ops, 0u);
    EXPECT_GT(before.serving_rebuilds, 0u);
    EXPECT_GT(before.messages_per_request, 0.0);
    EXPECT_EQ(before.replans, 1u);  // the initial plan only

    // Full replan on the churned graph: validity and events must survive.
    ASSERT_TRUE(service->Replan().ok());
    ASSERT_TRUE(service->Validate().ok());
    FeedService::Metrics after = service->GetMetrics();
    EXPECT_EQ(after.replans, 2u);
    NodeId probe = 0;
    while (service->graph().OutDegree(probe) == 0) ++probe;
    ASSERT_TRUE(service->Share(probe).ok());
    ASSERT_TRUE(service->QueryStream(service->graph().OutNeighbors(probe)[0]).ok());
  }
}

TEST(FeedServiceTest, RebuildPreservesTrimCountersForAuditSoundness) {
  // With bounded views, AuditStream can only check soundness once trimming
  // has happened (completeness is no longer provable). The serving-plane
  // rebuild must carry the trim evidence across — a rebuild that zeroed the
  // fleet's trim counters would re-arm the strict completeness check against
  // the full event log and fail correct queries.
  Graph g = MakeFlickrLike(200, 21).ValueOrDie();
  FeedServiceOptions options = SmallDeployment("hybrid");
  options.prototype.view_capacity = 2;  // trim aggressively
  auto service = FeedService::Create(g, options).MoveValueOrDie();

  NodeId producer = 0;
  while (service->graph().OutDegree(producer) == 0) ++producer;
  NodeId follower = service->graph().OutNeighbors(producer)[0];
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(service->Share(producer).ok());

  // Churn forces a rebuild (replaying 20 events re-trims the views); the
  // audited query afterwards must still pass.
  NodeId other = 0;
  while (other == producer || other == follower ||
         service->graph().HasEdge(other, follower)) {
    ++other;
  }
  ASSERT_TRUE(service->Follow(follower, other).ok());
  ASSERT_TRUE(service->QueryStream(follower).ok())
      << "rebuild must not erase trim evidence the audit oracle depends on";
}

TEST(FeedServiceTest, AutoReplanTriggersAfterConfiguredChurn) {
  Graph g = MakeFlickrLike(200, 9).ValueOrDie();
  FeedServiceOptions options = SmallDeployment("hybrid");
  options.replan = ReplanPolicy::EveryN(5);
  auto service = FeedService::Create(g, options).MoveValueOrDie();

  Rng rng(5);
  size_t applied = 0;
  while (applied < 11) {
    NodeId u = static_cast<NodeId>(rng.Uniform(200));
    NodeId v = static_cast<NodeId>(rng.Uniform(200));
    if (u == v || service->graph().HasEdge(v, u)) continue;
    ASSERT_TRUE(service->Follow(u, v).ok());
    ++applied;
  }
  // 11 churn ops with a threshold of 5: initial plan + 2 auto replans.
  FeedService::Metrics m = service->GetMetrics();
  EXPECT_EQ(m.replans, 3u);
  EXPECT_EQ(m.churn_ops, 11u);
  EXPECT_TRUE(service->Validate().ok());
}

TEST(FeedServiceTest, DriveReplaysTheWorkloadWithAudits) {
  Graph g = MakeFlickrLike(300, 12).ValueOrDie();
  FeedServiceOptions options = SmallDeployment("nosy");
  options.audit_every = 25;
  auto service = FeedService::Create(g, options).MoveValueOrDie();
  auto scenario = MakeScenario("stationary", g, service->WorkloadSnapshot(),
                               {.num_requests = 2000, .seed = 4})
                      .MoveValueOrDie();
  ReplayReport report = ReplayScenario(*scenario, *service).MoveValueOrDie();
  EXPECT_EQ(report.shares + report.queries, 2000u);
  FeedService::Metrics m = service->GetMetrics();
  EXPECT_EQ(m.shares + m.queries, 2000u);
  EXPECT_EQ(m.audited_queries, m.queries / 25);
  EXPECT_GT(m.audited_queries, 10u);
}

// The facade reports costs consistent with the core cost model, so capacity
// planning can be done from Metrics alone.
TEST(FeedServiceTest, MetricsReportCoreModelCosts) {
  Graph g = MakeFlickrLike(300, 15).ValueOrDie();
  auto service = FeedService::Create(g, SmallDeployment("nosy")).MoveValueOrDie();
  FeedService::Metrics m = service->GetMetrics();
  EXPECT_EQ(m.planner, "nosy");
  EXPECT_EQ(m.hybrid_cost, HybridCost(service->graph(), service->workload()));
  EXPECT_EQ(m.schedule_cost,
            ScheduleCost(service->graph(), service->workload(),
                         service->schedule(), ResidualPolicy::kFree));
  EXPECT_LE(m.schedule_cost, m.hybrid_cost + 1e-6);
  EXPECT_FALSE(m.ToString().empty());
}

// A traced nosy plan shows where its time went: one plan:* span per
// sub-phase, in order and without overlap, from setup through every
// iteration's candidate job, decision job, merge, cost and active-edge
// passes to finalize. The last iteration computes no active edges.
TEST(FeedServiceTest, NosyPlanTracesItsPhases) {
  Graph g = MakeFlickrLike(300, 17).ValueOrDie();
  obs::TraceLog trace;
  FeedServiceOptions options = SmallDeployment("nosy");
  options.trace = &trace;
  auto service = FeedService::Create(g, options).MoveValueOrDie();
  std::vector<std::string> names;
  double prev_end = 0;
  for (const obs::TraceEvent& ev : trace.Events()) {
    if (ev.kind != obs::TraceEventKind::kPlanPhase) continue;
    EXPECT_GE(ev.ts_us + 1e-3, prev_end) << ev.name;  // 1 ns of rounding slack
    prev_end = ev.ts_us + ev.dur_us;
    names.push_back(ev.name);
  }
  ASSERT_GE(names.size(), 7u);
  EXPECT_EQ(names.front(), "plan:setup");
  EXPECT_EQ(names.back(), "plan:finalize");
  const std::vector<std::string> iteration = {"plan:candidates", "plan:decide",
                                              "plan:merge", "plan:cost", "plan:active"};
  ASSERT_EQ((names.size() - 2) % iteration.size(), iteration.size() - 1);
  for (size_t i = 1; i + 1 < names.size(); ++i) {
    EXPECT_EQ(names[i], iteration[(i - 1) % iteration.size()]) << i;
  }
}

}  // namespace
}  // namespace piggy
