// The concurrent serving plane under adversarial interleavings: many writer
// threads (Share / Follow / Unfollow) and reader threads (QueryStream) hammer
// one FeedService — and a 4-shard ClusterService — while background replans
// swap schedules underneath. Every query is audited against the event-log
// oracle (quiescence-gated completeness, soundness always), and after the
// threads join a single-threaded sweep proves the final state exact: every
// feed matches the oracle with no tuple lost or duplicated, and the schedule
// is still Theorem-1 valid. The CI tsan lane runs this suite (label
// `concurrent`) under -DPIGGY_TSAN=ON, which is also what makes the metrics
// regression test bite: GetMetrics used to read plain counters that Share /
// QueryStream bump on the shared-lock path — a data race TSan flags even
// though the torn values only skewed telemetry.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_service.h"
#include "gen/presets.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/concurrent_driver.h"
#include "store/feed_service.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

constexpr uint64_t kSeed = 42;

Graph TestGraph(size_t nodes = 200) {
  return MakeFlickrLike(nodes, kSeed).ValueOrDie();
}

Workload TestWorkload(const Graph& g) {
  return GenerateWorkload(g, {.read_write_ratio = 4.0, .min_rate = 0.05})
      .ValueOrDie();
}

// Per-thread pools of (follower, producer) pairs absent from `g`, disjoint
// across threads so writer threads never fight over the same edge.
std::vector<std::vector<std::pair<NodeId, NodeId>>> ChurnPools(
    const Graph& g, size_t threads, size_t per_thread) {
  std::vector<std::vector<std::pair<NodeId, NodeId>>> pools(threads);
  Rng rng(Mix64(kSeed ^ 0xc4u));
  const size_t n = g.num_nodes();
  for (size_t t = 0; t < threads; ++t) {
    while (pools[t].size() < per_thread) {
      const NodeId producer = static_cast<NodeId>(rng.Uniform(n));
      const NodeId follower = static_cast<NodeId>(rng.Uniform(n));
      if (producer == follower || g.HasEdge(producer, follower)) continue;
      pools[t].emplace_back(follower, producer);
    }
  }
  return pools;
}

// The stream invariant every assembled feed must satisfy: newest-first by
// timestamp with no duplicated event — a duplicate would mean a tuple was
// merged twice (e.g. once from a replica, once from a pull).
void ExpectSortedUnique(const std::vector<EventTuple>& stream) {
  for (size_t i = 1; i < stream.size(); ++i) {
    EXPECT_LT(stream[i].timestamp, stream[i - 1].timestamp);
    EXPECT_NE(stream[i].event_id, stream[i - 1].event_id);
  }
}

// N writers (Share + Follow/Unfollow cycles + background-replan posts) and M
// readers (audited QueryStream) against `service`; any op error fails the
// test. Generic over FeedService / ClusterService.
template <typename Service>
void HammerService(Service& service, const Workload& w, size_t writers,
                   size_t readers, size_t ops_per_thread) {
  const auto pools = ChurnPools(TestGraph(), writers, 8);
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto record = [&](const char* what, const Status& st) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::string(what) + ": " + st.ToString());
  };
  std::vector<std::thread> threads;
  const size_t n = w.production.size();
  for (size_t t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Mix64(kSeed + t + 1));
      size_t churn = 0;
      for (size_t i = 0; i < ops_per_thread; ++i) {
        if (i % 10 == 9) {
          // A full Follow -> Unfollow cycle, so the final graph topology is
          // the one the service was planned for.
          const auto& [f, p] = pools[t][churn++ % pools[t].size()];
          if (Status st = service.Follow(f, p); !st.ok()) {
            record("Follow", st);
            return;
          }
          if (Status st = service.Unfollow(f, p); !st.ok()) {
            record("Unfollow", st);
            return;
          }
          if (i % 50 == 49) {
            if (Status st = service.StartBackgroundReplan(); !st.ok()) {
              record("StartBackgroundReplan", st);
              return;
            }
          }
        } else {
          const NodeId u = static_cast<NodeId>(rng.Uniform(n));
          if (Status st = service.Share(u); !st.ok()) {
            record("Share", st);
            return;
          }
        }
      }
    });
  }
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Mix64(kSeed + 1000 + t));
      for (size_t i = 0; i < ops_per_thread; ++i) {
        auto stream = service.QueryStream(static_cast<NodeId>(rng.Uniform(n)));
        if (!stream.ok()) {
          record("QueryStream", stream.status());
          return;
        }
        ExpectSortedUnique(*stream);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  ASSERT_TRUE(failures.empty());
  ASSERT_TRUE(service.WaitForBackgroundReplan().ok());
}

TEST(ConcurrentServingTest, FeedServiceSurvivesWritersReadersAndReplans) {
  Graph g = TestGraph();
  Workload w = TestWorkload(g);
  FeedServiceOptions options;
  options.prototype.num_servers = 8;
  options.prototype.view_capacity = 0;  // unbounded views: exact audits
  options.audit_every = 1;              // audit every query, even mid-storm
  options.background_replan = true;
  auto service = FeedService::Create(g, w, options).MoveValueOrDie();

  HammerService(*service, w, /*writers=*/2, /*readers=*/2,
                /*ops_per_thread=*/300);

  // Quiescent now: every audit must prove completeness, not just soundness.
  ASSERT_TRUE(service->Validate().ok());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto stream = service->QueryStream(u);
    ASSERT_TRUE(stream.ok()) << "final audit diverged for user " << u << ": "
                             << stream.status().ToString();
    ExpectSortedUnique(*stream);
  }

  const FeedService::Metrics m = service->GetMetrics();
  EXPECT_GE(m.background_replans, 1u);
  EXPECT_GE(m.churn_ops, 2u);
  EXPECT_GT(m.shares, 0u);
  EXPECT_GT(m.audited_queries, 0u);
}

TEST(ConcurrentServingTest, FourShardClusterSurvivesWritersReadersAndReplans) {
  Graph g = TestGraph();
  Workload w = TestWorkload(g);
  ClusterOptions options;
  options.num_shards = 4;
  options.audit_every = 1;  // cluster-wide merged-stream audits
  options.shard.prototype.num_servers = 4;
  options.shard.prototype.view_capacity = 0;
  options.shard.background_replan = true;
  auto cluster = ClusterService::Create(g, w, options).MoveValueOrDie();

  HammerService(*cluster, w, /*writers=*/2, /*readers=*/2,
                /*ops_per_thread=*/300);

  ASSERT_TRUE(cluster->Validate().ok());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto stream = cluster->QueryStream(u);
    ASSERT_TRUE(stream.ok()) << "final merged audit diverged for user " << u
                             << ": " << stream.status().ToString();
    ExpectSortedUnique(*stream);
  }

  const ClusterMetrics m = cluster->GetMetrics();
  EXPECT_GT(m.shares, 0u);
  EXPECT_GT(m.audited_queries, 0u);
  EXPECT_EQ(m.shards, 4u);
}

// The concurrent driver's bookkeeping: every issued op is accounted exactly
// once, across threads.
TEST(ConcurrentServingTest, DriverAccountsEveryOp) {
  Graph g = TestGraph(100);
  Workload w = TestWorkload(g);
  FeedServiceOptions options;
  options.prototype.num_servers = 4;
  auto service = FeedService::Create(g, w, options).MoveValueOrDie();

  ConcurrentDriverOptions driver;
  driver.client_threads = 4;
  driver.requests_per_thread = 100;
  const ConcurrentDriveReport report =
      RunConcurrentDriver(*service, driver).ValueOrDie();

  EXPECT_EQ(report.shares + report.queries, 400u);
  EXPECT_EQ(report.share_latency.count, report.shares);
  EXPECT_EQ(report.query_latency.count, report.queries);
  EXPECT_GT(report.ops_per_second, 0.0);
  EXPECT_GT(report.shares, 0u);
  EXPECT_GT(report.queries, 0u);

  const FeedService::Metrics m = service->GetMetrics();
  EXPECT_EQ(m.shares, report.shares);
  EXPECT_EQ(m.queries, report.queries);
}

// Regression: GetMetrics (and ClusterService::GetMetrics) used to read plain
// uint64_t counters that the shared-lock serving path increments — a data
// race the CI tsan lane now catches. Hammer the counters from serving
// threads while polling metrics, then check nothing was lost once quiet.
TEST(ConcurrentServingTest, MetricsStayRaceFreeAndExactUnderLoad) {
  Graph g = TestGraph(100);
  Workload w = TestWorkload(g);
  ClusterOptions options;
  options.num_shards = 2;
  options.shard.prototype.num_servers = 4;
  auto cluster = ClusterService::Create(g, w, options).MoveValueOrDie();

  constexpr size_t kThreads = 3;
  constexpr size_t kOps = 200;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Mix64(kSeed + 7 * t));
      const size_t n = g.num_nodes();
      for (size_t i = 0; i < kOps; ++i) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(n));
        const Status st = i % 2 == 0
                              ? cluster->Share(u)
                              : cluster->QueryStream(u).status();
        if (!st.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const ClusterMetrics m = cluster->GetMetrics();
      // Monotone counters can be mid-update but never implausible.
      if (m.shares + m.queries > kThreads * kOps) failures.fetch_add(1);
    }
  });
  for (std::thread& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(failures.load(), 0);
  const ClusterMetrics m = cluster->GetMetrics();
  EXPECT_EQ(m.shares, kThreads * kOps / 2 + kThreads * kOps % 2);
  EXPECT_EQ(m.shares + m.queries, kThreads * kOps);
}

// Scenario replay with auxiliary client threads: the deterministic epoch
// stream still closes every epoch while background load shares the service.
TEST(ConcurrentServingTest, ReplayWithAuxLoadThreads) {
  Graph g = TestGraph(100);
  Workload w = TestWorkload(g);
  ScenarioOptions scenario_options;
  scenario_options.num_requests = 600;
  scenario_options.epochs = 4;
  scenario_options.seed = kSeed;
  auto scenario =
      MakeScenario("stationary", g, w, scenario_options).MoveValueOrDie();

  FeedServiceOptions options;
  options.prototype.num_servers = 4;
  options.background_replan = true;
  auto service = FeedService::Create(g, w, options).MoveValueOrDie();

  ReplayOptions replay;
  replay.client_threads = 3;
  const ReplayReport report =
      ReplayScenario(*scenario, *service, replay).ValueOrDie();

  EXPECT_EQ(report.epochs.size(), 4u);
  EXPECT_EQ(report.aux_threads, 2u);
  EXPECT_GT(report.aux_requests, 0u);
  EXPECT_GT(report.shares + report.queries, 0u);
  ASSERT_TRUE(service->Validate().ok());
}

// The epochs' messages include the aux threads' traffic, so the run's
// msgs/req must divide by their requests too: on a stationary mix the ratio
// matches the single-threaded one instead of scaling with the thread count.
TEST(ConcurrentServingTest, ReplayWithAuxCountsAuxRequestsInMessagesPerRequest) {
  Graph g = TestGraph(300);
  Workload w = TestWorkload(g);
  auto run = [&](size_t client_threads) {
    ScenarioOptions scenario_options;
    scenario_options.num_requests = 40000;
    scenario_options.epochs = 4;
    scenario_options.seed = kSeed;
    auto scenario =
        MakeScenario("stationary", g, w, scenario_options).MoveValueOrDie();
    FeedServiceOptions options;
    options.prototype.num_servers = 4;
    auto service = FeedService::Create(g, w, options).MoveValueOrDie();
    ReplayOptions replay;
    replay.client_threads = client_threads;
    return ReplayScenario(*scenario, *service, replay).ValueOrDie();
  };
  const ReplayReport single = run(1);
  const ReplayReport threaded = run(3);
  ASSERT_GT(single.messages_per_request, 0.0);
  EXPECT_GT(threaded.aux_requests, 0u);
  EXPECT_NEAR(threaded.messages_per_request, single.messages_per_request,
              0.05 * single.messages_per_request);
}

}  // namespace
}  // namespace piggy
