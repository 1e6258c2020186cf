// Scenario replay end-to-end: parity of a stationary replay through a
// FeedService with one through its bare serving plane, edge cases under churn
// (empty epochs, rate shift to zero, producers losing every consumer),
// replay determinism, drift-triggered adaptive replanning beating
// never-replan under a flash crowd, and the sharded cluster under a
// regional event with per-shard drift replans.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_service.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "scenario/drift.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/feed_service.h"
#include "store/prototype.h"
#include "workload/workload.h"

namespace piggy {
namespace {

FeedServiceOptions SmallDeployment(const std::string& planner) {
  FeedServiceOptions options;
  options.planner = planner;
  options.prototype.num_servers = 16;
  options.prototype.view_capacity = 0;  // unbounded views: exact audits
  options.workload = {.read_write_ratio = 5.0, .min_rate = 0.05};
  return options;
}

// A stationary replay through a FeedService drives its serving plane exactly
// like the same replay through a bare Prototype built from the service's
// schedule: same request sequence, same serving messages, same per-server
// load, same feeds.
TEST(ScenarioDriveTest, StationaryReplayMatchesBarePlaneBitForBit) {
  Graph g = MakeFlickrLike(300, 12).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();

  FeedServiceOptions options = SmallDeployment("nosy");
  auto service = FeedService::Create(g, w, options).MoveValueOrDie();
  auto plane =
      Prototype::Create(g, service->schedule(), options.prototype).MoveValueOrDie();

  ScenarioOptions scenario_options;
  scenario_options.num_requests = 5000;
  scenario_options.seed = 21;
  auto scenario =
      MakeScenario("stationary", g, w, scenario_options).MoveValueOrDie();
  ReplayReport service_report =
      ReplayScenario(*scenario, *service).MoveValueOrDie();
  scenario->Reset();
  ReplayReport plane_report =
      ReplayScenario(*scenario, *plane, service->schedule()).MoveValueOrDie();

  EXPECT_EQ(service_report.shares, plane_report.shares);
  EXPECT_EQ(service_report.queries, plane_report.queries);
  EXPECT_EQ(service_report.shares + service_report.queries, 5000u);
  const FeedService::Metrics metrics = service->GetMetrics();
  EXPECT_EQ(metrics.replans, 1u);  // served by the plan the plane copied
  EXPECT_EQ(metrics.messages_per_request,
            plane->client().metrics().MessagesPerRequest());  // bitwise
  ASSERT_EQ(service_report.epochs.size(), plane_report.epochs.size());
  for (size_t e = 0; e < plane_report.epochs.size(); ++e) {
    EXPECT_EQ(service_report.epochs[e].true_cost, plane_report.epochs[e].true_cost);
  }

  Prototype* served = service->ServingPlane().MoveValueOrDie();
  EXPECT_EQ(served->PerServerQueryLoad(), plane->PerServerQueryLoad());
  EXPECT_EQ(served->PerServerUpdateLoad(), plane->PerServerUpdateLoad());

  // Both planes hold identical feeds afterwards, for every user.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<EventTuple> a = service->QueryStream(u).MoveValueOrDie();
    std::vector<EventTuple> b = plane->QueryStream(u);
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].producer, b[i].producer);
      EXPECT_EQ(a[i].event_id, b[i].event_id);
    }
  }
}

// A bare plane serves a fixed graph on one process: scenarios that script
// churn or shard events are rejected, as is a scenario built for another
// graph.
TEST(ScenarioDriveTest, BarePlaneRejectsChurnShardEventsAndWrongGraph) {
  Graph g = MakeFlickrLike(200, 4).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  Schedule schedule = MakePlanner("hybrid").ValueOrDie()->Plan(g, w).MoveValueOrDie().schedule;
  auto plane = Prototype::Create(g, schedule, PrototypeOptions{}).MoveValueOrDie();

  ScenarioOptions scenario_options;
  scenario_options.num_requests = 2000;
  for (const char* name : {"follow-storm", "shard-failure"}) {
    auto scenario = MakeScenario(name, g, w, scenario_options).MoveValueOrDie();
    EXPECT_TRUE(ReplayScenario(*scenario, *plane, schedule).status().IsInvalidArgument())
        << name;
  }
  Graph other = MakeFlickrLike(150, 4).ValueOrDie();
  auto mismatched = MakeScenario("stationary", other, scenario_options).MoveValueOrDie();
  EXPECT_TRUE(
      ReplayScenario(*mismatched, *plane, schedule).status().IsInvalidArgument());
}

TEST(ScenarioDriveTest, ReplayIsDeterministicAcrossReruns) {
  Graph g = MakeFlickrLike(250, 5).ValueOrDie();
  ScenarioOptions scenario_options;
  scenario_options.num_requests = 4000;
  scenario_options.epochs = 6;
  scenario_options.seed = 33;
  FeedServiceOptions options = SmallDeployment("nosy");
  options.audit_every = 100;

  ReplayReport reports[2];
  for (ReplayReport& report : reports) {
    auto scenario =
        MakeScenario("celebrity-join", g, scenario_options).MoveValueOrDie();
    auto service = FeedService::Create(g, options).MoveValueOrDie();
    report = ReplayScenario(*scenario, *service).MoveValueOrDie();
  }
  EXPECT_EQ(reports[0].shares, reports[1].shares);
  EXPECT_EQ(reports[0].queries, reports[1].queries);
  EXPECT_EQ(reports[0].follows, reports[1].follows);
  EXPECT_EQ(reports[0].unfollows, reports[1].unfollows);
  EXPECT_EQ(reports[0].messages, reports[1].messages);  // bitwise
  EXPECT_EQ(reports[0].replans, reports[1].replans);
  ASSERT_EQ(reports[0].epochs.size(), reports[1].epochs.size());
  for (size_t e = 0; e < reports[0].epochs.size(); ++e) {
    EXPECT_EQ(reports[0].epochs[e].messages, reports[1].epochs[e].messages);
    EXPECT_EQ(reports[0].epochs[e].true_cost, reports[1].epochs[e].true_cost);
  }
}

// Empty epochs — zero rates, zero churn in the middle of a run — must
// produce zero-request rows, not confuse epoch accounting, and the
// rate-shift back up must be served correctly.
TEST(ScenarioDriveTest, EmptyEpochsAndRateShiftToZero) {
  Graph g = MakeFlickrLike(200, 7).ValueOrDie();
  Workload base = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto active = std::make_shared<const Workload>(base);
  Workload zero;
  zero.production.assign(g.num_nodes(), 0.0);
  zero.consumption.assign(g.num_nodes(), 0.0);
  auto blackout = std::make_shared<const Workload>(std::move(zero));

  // active | blackout | blackout | active: a rate shift to zero, two empty
  // epochs (the second without a rate shift of its own), and recovery.
  std::vector<CustomEpoch> epochs(4);
  epochs[0].workload = active;
  epochs[1].workload = blackout;
  epochs[2].workload = blackout;
  epochs[3].workload = active;

  ScenarioOptions scenario_options;
  scenario_options.num_requests = 3000;
  scenario_options.seed = 17;
  auto scenario =
      MakeCustomScenario({"test-blackout", "shift to zero mid-run"}, g, base,
                         scenario_options, std::move(epochs))
          .MoveValueOrDie();
  EXPECT_EQ(scenario->num_epochs(), 4u);

  FeedServiceOptions options = SmallDeployment("nosy");
  options.audit_every = 50;
  auto service = FeedService::Create(g, base, options).MoveValueOrDie();
  ReplayReport report = ReplayScenario(*scenario, *service).MoveValueOrDie();

  ASSERT_EQ(report.epochs.size(), 4u);
  EXPECT_GT(report.epochs[0].shares + report.epochs[0].queries, 0u);
  EXPECT_EQ(report.epochs[1].shares + report.epochs[1].queries, 0u);
  EXPECT_EQ(report.epochs[2].shares + report.epochs[2].queries, 0u);
  EXPECT_GT(report.epochs[3].shares + report.epochs[3].queries, 0u);
  EXPECT_EQ(report.epochs[1].messages_per_request, 0.0);
  EXPECT_EQ(report.epochs[1].true_cost, 0.0);  // zero rates cost nothing
  EXPECT_EQ(report.shares + report.queries, 3000u);
  EXPECT_TRUE(service->Validate().ok());
}

// Producers that lose every consumer mid-run: the repaired schedule keeps
// serving (audited) queries, ex-followers get feeds without the producer,
// and the producer's shares keep flowing to nobody without error.
TEST(ScenarioDriveTest, AllConsumersUnfollowProducerMidRun) {
  Graph g = MakeFlickrLike(150, 9).ValueOrDie();
  // Find the best-followed producer.
  NodeId producer = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) > g.OutDegree(producer)) producer = u;
  }
  const std::vector<NodeId> followers(g.OutNeighbors(producer).begin(),
                                      g.OutNeighbors(producer).end());
  ASSERT_GT(followers.size(), 2u);

  // Only `producer` shares; only its followers query. Every sampled request
  // then exercises exactly the producer/consumer pair under test.
  Workload focused;
  focused.production.assign(g.num_nodes(), 0.0);
  focused.consumption.assign(g.num_nodes(), 0.0);
  focused.production[producer] = 1.0;
  for (NodeId f : followers) focused.consumption[f] = 2.0;
  auto rates = std::make_shared<const Workload>(focused);

  // Epoch 0: normal traffic. Epoch 1: every follower unfollows, traffic
  // continues around the churn. Epoch 2: queries against the emptied fan-out.
  ScenarioOptions scenario_options;
  scenario_options.num_requests = 900;
  scenario_options.seed = 3;
  scenario_options.duration = 3.0;
  std::vector<CustomEpoch> epochs(3);
  for (CustomEpoch& e : epochs) e.workload = rates;
  for (size_t i = 0; i < followers.size(); ++i) {
    ScenarioOp op;
    op.kind = ScenarioOpKind::kUnfollow;
    op.user = followers[i];
    op.producer = producer;
    op.epoch = 1;
    op.time = 1.0 + (static_cast<double>(i) + 0.5) /
                        static_cast<double>(followers.size());
    epochs[1].churn.push_back(op);
  }
  auto scenario =
      MakeCustomScenario({"test-abandoned", "producer loses every consumer"},
                         g, focused, scenario_options, std::move(epochs))
          .MoveValueOrDie();

  FeedServiceOptions options = SmallDeployment("nosy");
  options.audit_every = 1;  // audit every query
  auto service = FeedService::Create(g, focused, options).MoveValueOrDie();
  ReplayReport report = ReplayScenario(*scenario, *service).MoveValueOrDie();

  EXPECT_EQ(report.unfollows, followers.size());
  EXPECT_EQ(report.shares + report.queries, 900u);
  EXPECT_TRUE(service->Validate().ok());
  // Ex-followers no longer see the producer.
  for (size_t i = 0; i < 3 && i < followers.size(); ++i) {
    std::vector<EventTuple> feed =
        service->QueryStream(followers[i]).MoveValueOrDie();
    for (const EventTuple& e : feed) EXPECT_NE(e.producer, producer);
  }
}

// The tentpole payoff at test scale: under a flash crowd, the drift policy
// notices the rate excursion from traffic alone, replans with re-estimated
// rates, and serves the run with fewer messages than never replanning.
TEST(ScenarioDriveTest, DriftPolicyBeatsNeverReplanOnFlashCrowd) {
  Graph g = MakeFlickrLike(400, 19).ValueOrDie();
  ScenarioOptions scenario_options;
  scenario_options.num_requests = 24000;
  scenario_options.epochs = 8;
  scenario_options.seed = 5;
  scenario_options.intensity = 12.0;

  auto run = [&](const ReplanPolicy& policy) {
    FeedServiceOptions options = SmallDeployment("nosy");
    options.replan = policy;
    auto scenario =
        MakeScenario("flash-crowd", g, scenario_options).MoveValueOrDie();
    auto service = FeedService::Create(g, options).MoveValueOrDie();
    ReplayReport report = ReplayScenario(*scenario, *service).MoveValueOrDie();
    const FeedService::Metrics metrics = service->GetMetrics();
    return std::make_pair(report, metrics);
  };

  DriftOptions drift;
  drift.check_interval = 1024;
  drift.min_requests_between_replans = 2048;
  auto [never_report, never_metrics] = run(ReplanPolicy::Never());
  auto [drift_report, drift_metrics] = run(ReplanPolicy::Drift(drift));

  EXPECT_EQ(never_metrics.replans, 1u);  // the initial plan only
  EXPECT_GE(drift_metrics.drift_replans, 1u)
      << "the flash crowd must register as drift";
  EXPECT_LT(drift_report.messages, never_report.messages)
      << "adaptive replanning must reduce serving traffic under the spike";
}

// Per-shard adaptivity in the sharded cluster: a regional event spikes some
// shards harder than others; shard-local drift estimators replan where it
// matters, merged feeds stay audit-exact throughout.
TEST(ScenarioDriveTest, ClusterReplayUnderRegionalEventStaysAuditClean) {
  Graph g = MakeFlickrLike(300, 23).ValueOrDie();
  ScenarioOptions scenario_options;
  scenario_options.num_requests = 12000;
  scenario_options.epochs = 8;
  scenario_options.seed = 7;
  scenario_options.intensity = 10.0;
  auto scenario =
      MakeScenario("regional-event", g, scenario_options).MoveValueOrDie();

  ClusterOptions options;
  options.num_shards = 4;
  options.partitioner = "hash";
  options.shard = SmallDeployment("nosy");
  options.shard.replan =
      ReplanPolicy::Drift({.check_interval = 512,
                           .min_requests_between_replans = 1024});
  options.audit_every = 100;  // audit merged streams against the oracle
  auto cluster = ClusterService::Create(g, options).MoveValueOrDie();

  ReplayReport report = ReplayScenario(*scenario, *cluster).MoveValueOrDie();
  EXPECT_EQ(report.shares + report.queries, 12000u);
  EXPECT_GT(report.follows, 0u);  // outsiders followed into the region
  EXPECT_TRUE(cluster->Validate().ok());

  const ClusterMetrics metrics = cluster->GetMetrics();
  EXPECT_GT(metrics.audited_queries, 0u);
  EXPECT_GE(metrics.replans, options.num_shards);  // initial plans at least
  EXPECT_EQ(metrics.churn_ops, report.follows + report.unfollows);
}

}  // namespace
}  // namespace piggy
