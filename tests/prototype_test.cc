#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/baselines.h"
#include "core/parallel_nosy.h"
#include "gen/presets.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/event_log.h"
#include "store/prototype.h"
#include "workload/workload.h"

namespace piggy {
namespace {

// Replays `requests` requests of the paper's stationary mix at `workload`'s
// rates through `plane`, which serves `schedule`.
ReplayReport ReplayStationary(Prototype& plane, const Workload& workload,
                              const Schedule& schedule, size_t requests,
                              uint64_t seed = 7, const ReplayOptions& options = {}) {
  auto scenario =
      MakeScenario("stationary", plane.graph(), workload,
                   {.num_requests = requests, .seed = seed})
          .MoveValueOrDie();
  return ReplayScenario(*scenario, plane, schedule, options).MoveValueOrDie();
}

struct SmallSystem {
  explicit SmallSystem(size_t servers, size_t view_capacity = 0) {
    graph = MakeFlickrLike(400, 31).ValueOrDie();
    workload = GenerateWorkload(graph, {.min_rate = 0.05}).ValueOrDie();
    schedule = HybridSchedule(graph, workload);
    PrototypeOptions opt;
    opt.num_servers = servers;
    opt.view_capacity = view_capacity;
    prototype = Prototype::Create(graph, schedule, opt).MoveValueOrDie();
  }
  Graph graph;
  Workload workload;
  Schedule schedule;
  std::unique_ptr<Prototype> prototype;
};

TEST(PrototypeTest, CreateValidatesOptions) {
  SmallSystem sys(4);
  PrototypeOptions bad;
  bad.num_servers = 0;
  EXPECT_FALSE(Prototype::Create(sys.graph, sys.schedule, bad).ok());
  PrototypeOptions bad2;
  bad2.feed_size = 0;
  EXPECT_FALSE(Prototype::Create(sys.graph, sys.schedule, bad2).ok());
}

TEST(PrototypeTest, StreamsPassAuditWithUnboundedViews) {
  SmallSystem sys(8);
  Rng rng(1);
  // Mixed traffic, then audit several users.
  for (int i = 0; i < 2000; ++i) {
    NodeId u = static_cast<NodeId>(rng.Uniform(sys.graph.num_nodes()));
    if (rng.Bernoulli(0.3)) {
      sys.prototype->ShareEvent(u);
    } else {
      auto stream = sys.prototype->QueryStream(u);
      ASSERT_TRUE(sys.prototype->AuditStream(u, stream).ok());
    }
  }
  EXPECT_EQ(sys.prototype->TotalTrimmedEvents(), 0u);
}

TEST(PrototypeTest, AuditCatchesForgedStream) {
  SmallSystem sys(4);
  sys.prototype->ShareEvent(0);
  // A stream containing an event from a producer the user does not follow.
  NodeId loner = 0;
  for (NodeId u = 0; u < sys.graph.num_nodes(); ++u) {
    if (sys.graph.InDegree(u) == 0) {
      loner = u;
      break;
    }
  }
  std::vector<EventTuple> forged{{static_cast<NodeId>(loner + 1), 1, 1}};
  if (!sys.graph.HasEdge(loner + 1, loner) && loner + 1 < sys.graph.num_nodes()) {
    EXPECT_FALSE(sys.prototype->AuditStream(loner, forged).ok());
  }
}

TEST(PrototypeTest, ActualThroughputTracksMessages) {
  SmallSystem one(1);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    NodeId u = static_cast<NodeId>(rng.Uniform(one.graph.num_nodes()));
    if (i % 3 == 0) {
      one.prototype->ShareEvent(u);
    } else {
      one.prototype->QueryStream(u);
    }
  }
  // One server: exactly one message per request.
  EXPECT_DOUBLE_EQ(one.prototype->client().metrics().MessagesPerRequest(), 1.0);
  EXPECT_DOUBLE_EQ(one.prototype->ActualThroughput(), kClientMessagesPerSecond);
}

TEST(PrototypeTest, MoreServersLowerPerClientThroughput) {
  double prev = 1e18;
  for (size_t servers : {1, 8, 64}) {
    SmallSystem sys(servers);
    ReplayStationary(*sys.prototype, sys.workload, sys.schedule, 4000, 5);
    const double throughput = sys.prototype->ActualThroughput();
    EXPECT_LE(throughput, prev + 1e-6);
    prev = throughput;
  }
}

TEST(PrototypeTest, PerServerLoadsSumToMessages) {
  SmallSystem sys(16);
  ReplayReport report =
      ReplayStationary(*sys.prototype, sys.workload, sys.schedule, 3000);
  EXPECT_EQ(report.shares + report.queries, 3000u);
  uint64_t total_queries = 0, total_updates = 0;
  for (uint64_t q : sys.prototype->PerServerQueryLoad()) total_queries += q;
  for (uint64_t u : sys.prototype->PerServerUpdateLoad()) total_updates += u;
  const ClientMetrics client = sys.prototype->client().metrics();
  EXPECT_EQ(total_queries, client.query_messages);
  EXPECT_EQ(total_updates, client.update_messages);
  EXPECT_EQ(report.messages,
            static_cast<double>(client.query_messages + client.update_messages));
}

TEST(PrototypeTest, DriverIsDeterministic) {
  SmallSystem a(8), b(8);
  ReplayReport ra = ReplayStationary(*a.prototype, a.workload, a.schedule, 2000, 9);
  ReplayReport rb = ReplayStationary(*b.prototype, b.workload, b.schedule, 2000, 9);
  EXPECT_EQ(ra.shares, rb.shares);
  EXPECT_EQ(ra.messages, rb.messages);  // bitwise
  EXPECT_EQ(a.prototype->client().metrics().update_messages,
            b.prototype->client().metrics().update_messages);
  EXPECT_EQ(a.prototype->PerServerQueryLoad(), b.prototype->PerServerQueryLoad());
}

TEST(PrototypeTest, DriverAuditsPass) {
  SmallSystem sys(8);
  size_t audited = 0;
  ReplayOptions options;
  options.on_epoch_close = AuditPlaneAtEpochClose(*sys.prototype, 4, &audited);
  ReplayStationary(*sys.prototype, sys.workload, sys.schedule, 3000, 7, options);
  EXPECT_EQ(audited, 16u * 4u);  // 16 epochs, 4 feeds each
}

TEST(PrototypeTest, DriverAuditsPassWithPiggybackSchedule) {
  Graph graph = MakeFlickrLike(400, 37).ValueOrDie();
  Workload workload = GenerateWorkload(graph, {.min_rate = 0.05}).ValueOrDie();
  auto pn = RunParallelNosy(graph, workload).ValueOrDie();
  PrototypeOptions opt;
  opt.num_servers = 16;
  opt.view_capacity = 0;
  auto proto = Prototype::Create(graph, pn.schedule, opt).MoveValueOrDie();
  size_t audited = 0;
  ReplayOptions options;
  options.on_epoch_close = AuditPlaneAtEpochClose(*proto, 8, &audited);
  ReplayStationary(*proto, workload, pn.schedule, 4000, 7, options);
  EXPECT_EQ(audited, 16u * 8u);
}

TEST(PrototypeTest, RequestMixTracksRates) {
  SmallSystem sys(4);
  ReplayReport report =
      ReplayStationary(*sys.prototype, sys.workload, sys.schedule, 20000);
  double share_fraction = static_cast<double>(report.shares) /
                          static_cast<double>(report.shares + report.queries);
  double expected = sys.workload.TotalProduction() /
                    (sys.workload.TotalProduction() + sys.workload.TotalConsumption());
  EXPECT_NEAR(share_fraction, expected, 0.02);
}

TEST(PrototypeTest, NormalizedLoadStatistics) {
  SmallSystem sys(10);
  ReplayReport report =
      ReplayStationary(*sys.prototype, sys.workload, sys.schedule, 5000);
  const std::vector<uint64_t> loads = sys.prototype->PerServerQueryLoad();
  ASSERT_EQ(loads.size(), 10u);
  uint64_t total = 0;
  for (uint64_t q : loads) total += q;
  ASSERT_GT(total, 0u);
  double mean = 0, variance = 0;
  for (uint64_t q : loads) mean += static_cast<double>(q) / static_cast<double>(total);
  mean /= 10;
  for (uint64_t q : loads) {
    const double norm = static_cast<double>(q) / static_cast<double>(total);
    variance += (norm - mean) * (norm - mean) / 10;
  }
  EXPECT_NEAR(mean, 0.1, 1e-9);
  EXPECT_LT(variance, 0.01);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(PrototypeTest, ResetMetricsClearsCounters) {
  SmallSystem sys(4);
  sys.prototype->ShareEvent(0);
  sys.prototype->QueryStream(1);
  sys.prototype->ResetMetrics();
  EXPECT_EQ(sys.prototype->client().metrics().requests(), 0u);
  for (uint64_t q : sys.prototype->PerServerQueryLoad()) EXPECT_EQ(q, 0u);
}

TEST(PrototypeTest, TrimmingKeepsSoundness) {
  SmallSystem sys(4, /*view_capacity=*/5);
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    NodeId u = static_cast<NodeId>(rng.Uniform(sys.graph.num_nodes()));
    if (rng.Bernoulli(0.5)) {
      sys.prototype->ShareEvent(u);
    } else {
      auto stream = sys.prototype->QueryStream(u);
      // With trimming the audit degrades to soundness checks; must still pass.
      ASSERT_TRUE(sys.prototype->AuditStream(u, stream).ok());
    }
  }
  EXPECT_GT(sys.prototype->TotalTrimmedEvents(), 0u);
}

TEST(SegmentedEventLogTest, KeepsShareOrderAcrossSegments) {
  constexpr size_t kSeg = SegmentedEventLog::kSegmentEvents;
  SegmentedEventLog log;
  std::vector<EventTuple> want;
  // Even timestamps in order, then odd ones delivered late: each lands at
  // its sorted position, in the tail or (copy-on-write) in a sealed segment.
  for (uint64_t t = 2; t <= 2 * (3 * kSeg); t += 2) {
    log.Insert({static_cast<NodeId>(t % 13), t, t});
  }
  const SegmentedEventLog::View before = log.Snapshot();
  const std::vector<EventTuple> before_events = before.Flatten();
  ASSERT_EQ(before.size(), 3 * kSeg);
  ASSERT_NE(before.sealed, nullptr);
  EXPECT_EQ(before.sealed->size(), 3u);
  for (uint64_t t : {uint64_t{1}, uint64_t{2 * kSeg + 1}, uint64_t{6 * kSeg - 1},
                     uint64_t{4 * kSeg + 3}}) {
    log.Insert({static_cast<NodeId>(t % 13), t, t});
  }
  for (uint64_t t = 2; t <= 2 * (3 * kSeg); t += 2) {
    want.push_back({static_cast<NodeId>(t % 13), t, t});
  }
  for (uint64_t t : {uint64_t{1}, uint64_t{2 * kSeg + 1}, uint64_t{6 * kSeg - 1},
                     uint64_t{4 * kSeg + 3}}) {
    want.push_back({static_cast<NodeId>(t % 13), t, t});
  }
  std::sort(want.begin(), want.end(),
            [](const EventTuple& a, const EventTuple& b) { return NewerThan(b, a); });
  EXPECT_EQ(log.Snapshot().Flatten(), want);
  EXPECT_EQ(log.size(), want.size());
  // The earlier view is untouched by the late inserts.
  EXPECT_EQ(before.Flatten(), before_events);

  SegmentedEventLog copy;
  copy.Assign(want);
  EXPECT_EQ(copy.Snapshot().Flatten(), want);
  copy.Insert({1, 6 * kSeg + 2, 6 * kSeg + 2});
  want.push_back({1, 6 * kSeg + 2, 6 * kSeg + 2});
  EXPECT_EQ(copy.Snapshot().Flatten(), want);
}

TEST(PrototypeTest, EventLogViewMatchesCopy) {
  SmallSystem sys(4);
  for (NodeId u = 0; u < 300; ++u) sys.prototype->ShareEvent(u % 50);
  const SegmentedEventLog::View view = sys.prototype->EventLogView();
  EXPECT_EQ(view.Flatten(), sys.prototype->EventLog());
  sys.prototype->ShareEvent(3);
  EXPECT_EQ(view.size(), 300u);
  EXPECT_EQ(sys.prototype->EventLog().size(), 301u);
}

}  // namespace
}  // namespace piggy
