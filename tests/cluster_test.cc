// ClusterService end-to-end: 1-shard parity with the single-process
// FeedService (schedules and audited query results identical), cross-shard
// push/pull mechanics with replica materialization and batched fan-out, a
// 2000-op churn lifecycle with every merged stream audited across >= 4
// shards, the router's bounded newest-k merge against a sort-and-truncate
// reference and under live churn and migration, router latency histograms,
// the lock-free cross-shard fan-out under concurrent writers and readers,
// and the edge-cut partitioner's cross-traffic win over hash placement.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/cluster_service.h"
#include "gen/generators.h"
#include "gen/presets.h"
#include "graph/graph_builder.h"
#include "scenario/drift.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/feed_service.h"
#include "store/newest_k_merge.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

ClusterOptions SmallCluster(size_t shards, const std::string& planner) {
  ClusterOptions options;
  options.num_shards = shards;
  options.shard.planner = planner;
  options.shard.prototype.num_servers = 4;
  options.shard.prototype.view_capacity = 0;  // unbounded views: exact audits
  options.shard.workload = {.read_write_ratio = 5.0, .min_rate = 0.05};
  options.shard.audit_every = 1;  // shard-local audits on every local feed
  options.audit_every = 1;        // cluster audits on every merged stream
  return options;
}

// The paper's stationary request mix at the cluster's rates.
std::unique_ptr<Scenario> StationaryReplay(const Graph& g,
                                           const ClusterService& cluster,
                                           size_t requests, uint64_t seed) {
  return MakeScenario("stationary", g, cluster.workload(),
                      {.num_requests = requests, .seed = seed})
      .MoveValueOrDie();
}

// Batched cross-shard messages per replayed request.
double CrossMessagesPerRequest(const ReplayReport& report) {
  return report.cross_messages / static_cast<double>(report.shares + report.queries);
}

void ExpectSameSchedule(const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.push_size(), b.push_size());
  EXPECT_EQ(a.pull_size(), b.pull_size());
  EXPECT_EQ(a.hub_covered_size(), b.hub_covered_size());
  a.ForEachPush([&](const Edge& e) { EXPECT_TRUE(b.IsPush(e.src, e.dst)); });
  a.ForEachPull([&](const Edge& e) { EXPECT_TRUE(b.IsPull(e.src, e.dst)); });
  a.ForEachHubCover([&](const Edge& e, NodeId hub) {
    EXPECT_EQ(b.HubFor(e.src, e.dst).value_or(hub + 1), hub);
  });
}

// The acceptance bar: a 1-shard cluster is the single-process deployment.
// Same planner, same graph, same op sequence => the shard schedule equals the
// FeedService schedule and every query returns identical tuples.
TEST(ClusterServiceTest, OneShardParityWithFeedService) {
  for (const char* planner : {"nosy", "chitchat", "hybrid"}) {
    SCOPED_TRACE(planner);
    const size_t kNodes = 220;
    Graph g = MakeFlickrLike(kNodes, 5).ValueOrDie();

    ClusterOptions copts = SmallCluster(1, planner);
    FeedServiceOptions fopts = copts.shard;
    auto single = FeedService::Create(g, fopts).MoveValueOrDie();
    auto cluster = ClusterService::Create(g, copts).MoveValueOrDie();

    ASSERT_EQ(cluster->num_shards(), 1u);
    EXPECT_EQ(cluster->cross_index().num_edges(), 0u);
    ExpectSameSchedule(single->schedule(), cluster->shard(0).schedule());

    Rng rng(17);
    for (int op = 0; op < 600; ++op) {
      const double dice = rng.UniformDouble();
      NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      NodeId v = static_cast<NodeId>(rng.Uniform(kNodes));
      if (dice < 0.35) {
        ASSERT_TRUE(single->Share(u).ok());
        ASSERT_TRUE(cluster->Share(u).ok());
      } else if (dice < 0.85) {
        auto a = single->QueryStream(u);
        auto b = cluster->QueryStream(u);
        ASSERT_TRUE(a.ok() && b.ok()) << "op " << op;
        ASSERT_EQ(*a, *b) << "op " << op;
      } else if (u != v && dice < 0.95) {
        ASSERT_TRUE(single->Follow(u, v).ok());
        ASSERT_TRUE(cluster->Follow(u, v).ok());
      } else if (u != v) {
        ASSERT_TRUE(single->Unfollow(u, v).ok());
        ASSERT_TRUE(cluster->Unfollow(u, v).ok());
      }
    }
    ASSERT_TRUE(cluster->Validate().ok());
    ExpectSameSchedule(single->schedule(), cluster->shard(0).schedule());

    ClusterMetrics m = cluster->GetMetrics();
    FeedService::Metrics sm = single->GetMetrics();
    EXPECT_EQ(m.planner, sm.planner);
    EXPECT_DOUBLE_EQ(m.intra_cost, sm.schedule_cost);
    EXPECT_DOUBLE_EQ(m.cross_cost, 0.0);
    EXPECT_EQ(m.cross_update_messages + m.cross_query_messages, 0u);
    EXPECT_GT(m.audited_queries, 0u);
  }
}

TEST(ClusterServiceTest, RejectsBadConfigurations) {
  Graph g = MakeFlickrLike(100, 2).ValueOrDie();
  ClusterOptions options = SmallCluster(2, "nosy");
  options.partitioner = "metis";
  auto unknown = ClusterService::Create(g, options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(unknown.status().message().find("edge-cut"), std::string::npos);

  options = SmallCluster(0, "nosy");
  EXPECT_FALSE(ClusterService::Create(g, options).ok());

  options = SmallCluster(2, "no-such-planner");
  auto planner = ClusterService::Create(g, options);
  ASSERT_FALSE(planner.ok());
  EXPECT_TRUE(planner.status().IsInvalidArgument());

  options = SmallCluster(2, "nosy");
  auto cluster = ClusterService::Create(g, options).MoveValueOrDie();
  EXPECT_TRUE(cluster->Share(1000).IsInvalidArgument());
  EXPECT_FALSE(cluster->QueryStream(1000).ok());
  EXPECT_TRUE(cluster->Follow(1000, 1).IsInvalidArgument());
  EXPECT_TRUE(cluster->Follow(1, 1).IsInvalidArgument());
  EXPECT_TRUE(cluster->Unfollow(1000, 1).IsInvalidArgument());
}

// Remote pushes materialize one replica per (producer, shard) — not per
// follower — and each share then costs one batched update message per
// replicating shard. Backfill delivers pre-follow events.
TEST(ClusterServiceTest, RemotePushMaterializesOneReplicaPerShard) {
  // 24 isolated users; rp < rc forces every cross edge to push mode.
  Graph g = BuildGraph(24, {}).ValueOrDie();
  ClusterOptions options = SmallCluster(2, "hybrid");
  auto cluster =
      ClusterService::Create(g, UniformWorkload(24, 1.0, 5.0), options)
          .MoveValueOrDie();

  const ShardMap& map = cluster->shard_map();
  NodeId producer = 0;
  NodeId c1 = 0, c2 = 0;
  // A producer and two consumers on the *other* shard.
  while (map.ShardOf(c1) == map.ShardOf(producer)) ++c1;
  c2 = c1 + 1;
  while (c2 == producer || map.ShardOf(c2) != map.ShardOf(c1)) ++c2;

  ASSERT_TRUE(cluster->Share(producer).ok());
  ASSERT_TRUE(cluster->Share(producer).ok());  // pre-follow events

  ASSERT_TRUE(cluster->Follow(c1, producer).ok());
  EXPECT_EQ(cluster->cross_index().ModeOf(producer, c1), CrossEdgeMode::kPush);
  ClusterMetrics m = cluster->GetMetrics();
  EXPECT_EQ(m.replicas, 1u);
  EXPECT_EQ(m.cross_update_messages, 1u);  // the backfill transfer

  // Backfilled events are served locally: no pull messages.
  std::vector<EventTuple> feed = cluster->QueryStream(c1).MoveValueOrDie();
  ASSERT_EQ(feed.size(), 2u);
  EXPECT_EQ(feed[0].producer, producer);
  EXPECT_EQ(cluster->GetMetrics().cross_query_messages, 0u);

  // Second follower in the same shard: the replica is shared, no backfill.
  ASSERT_TRUE(cluster->Follow(c2, producer).ok());
  m = cluster->GetMetrics();
  EXPECT_EQ(m.replicas, 1u);
  EXPECT_EQ(m.cross_update_messages, 1u);

  // A new share fans out exactly one batched message to the one shard.
  ASSERT_TRUE(cluster->Share(producer).ok());
  m = cluster->GetMetrics();
  EXPECT_EQ(m.cross_update_messages, 2u);
  feed = cluster->QueryStream(c2).MoveValueOrDie();
  ASSERT_EQ(feed.size(), 3u);

  // Unfollowing the last pushing edge into the shard drops the replica.
  ASSERT_TRUE(cluster->Unfollow(c1, producer).ok());
  EXPECT_EQ(cluster->GetMetrics().replicas, 1u);
  ASSERT_TRUE(cluster->Unfollow(c2, producer).ok());
  EXPECT_EQ(cluster->GetMetrics().replicas, 0u);
  feed = cluster->QueryStream(c2).MoveValueOrDie();
  EXPECT_TRUE(feed.empty());
  ASSERT_TRUE(cluster->Validate().ok());
}

// Remote pulls fan out one batched message per touched shard, covering every
// pulled producer hosted there (the paper's batching rule).
TEST(ClusterServiceTest, RemotePullsBatchOneMessagePerShard) {
  // rp > rc forces every cross edge to pull mode.
  Graph g = BuildGraph(24, {}).ValueOrDie();
  ClusterOptions options = SmallCluster(2, "hybrid");
  auto cluster =
      ClusterService::Create(g, UniformWorkload(24, 5.0, 1.0), options)
          .MoveValueOrDie();

  const ShardMap& map = cluster->shard_map();
  NodeId consumer = 0;
  // Two producers on the other shard.
  NodeId p1 = 0, p2 = 0;
  while (map.ShardOf(p1) == map.ShardOf(consumer)) ++p1;
  p2 = p1 + 1;
  while (p2 == consumer || map.ShardOf(p2) != map.ShardOf(p1)) ++p2;

  ASSERT_TRUE(cluster->Share(p1).ok());
  ASSERT_TRUE(cluster->Follow(consumer, p1).ok());
  ASSERT_TRUE(cluster->Follow(consumer, p2).ok());
  EXPECT_EQ(cluster->cross_index().ModeOf(p1, consumer), CrossEdgeMode::kPull);
  EXPECT_EQ(cluster->GetMetrics().replicas, 0u);
  ASSERT_TRUE(cluster->Share(p2).ok());
  EXPECT_EQ(cluster->GetMetrics().cross_update_messages, 0u);

  // Both producers live on one shard: a query costs exactly one message.
  std::vector<EventTuple> feed = cluster->QueryStream(consumer).MoveValueOrDie();
  ASSERT_EQ(feed.size(), 2u);
  EXPECT_EQ(feed[0].producer, p2);  // newest-first
  EXPECT_EQ(feed[1].producer, p1);
  EXPECT_EQ(cluster->GetMetrics().cross_query_messages, 1u);

  ASSERT_TRUE(cluster->Unfollow(consumer, p1).ok());
  ASSERT_TRUE(cluster->Unfollow(consumer, p2).ok());
  feed = cluster->QueryStream(consumer).MoveValueOrDie();
  EXPECT_TRUE(feed.empty());
  // The unfollowed query touched no remote shard.
  EXPECT_EQ(cluster->GetMetrics().cross_query_messages, 1u);
  ASSERT_TRUE(cluster->Validate().ok());
}

// The acceptance scenario: a long interleaved share / query / follow /
// unfollow run across >= 4 shards with every merged stream audited against
// the cluster-wide oracle, ending in a cluster-wide parallel replan.
TEST(ClusterServiceTest, ChurnLifecycleStaysAuditCleanAcrossShards) {
  for (const char* partitioner : {"hash", "edge-cut"}) {
    SCOPED_TRACE(partitioner);
    const size_t kNodes = 260;
    Graph g = MakeFlickrLike(kNodes, 7).ValueOrDie();
    ClusterOptions options = SmallCluster(4, "nosy");
    options.partitioner = partitioner;
    auto cluster = ClusterService::Create(g, options).MoveValueOrDie();
    ASSERT_TRUE(cluster->Validate().ok());
    EXPECT_GT(cluster->cross_index().num_edges(), 0u);

    Rng rng(99);
    for (int op = 0; op < 2000; ++op) {
      const double dice = rng.UniformDouble();
      NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      NodeId v = static_cast<NodeId>(rng.Uniform(kNodes));
      if (dice < 0.35) {
        ASSERT_TRUE(cluster->Share(u).ok());
      } else if (dice < 0.85) {
        ASSERT_TRUE(cluster->QueryStream(u).ok()) << "audit failed at op " << op;
      } else if (u != v && dice < 0.95) {
        ASSERT_TRUE(cluster->Follow(u, v).ok());
      } else if (u != v) {
        ASSERT_TRUE(cluster->Unfollow(u, v).ok());
      }
    }
    ASSERT_TRUE(cluster->Validate().ok());

    ClusterMetrics m = cluster->GetMetrics();
    EXPECT_EQ(m.shards, 4u);
    EXPECT_EQ(m.partitioner, partitioner);
    EXPECT_GT(m.shares, 0u);
    EXPECT_GT(m.queries, 0u);
    EXPECT_GT(m.audited_queries, 0u);
    EXPECT_GT(m.churn_ops, 0u);
    EXPECT_GT(m.cross_edges, 0u);
    EXPECT_GT(m.cross_cost, 0.0);
    EXPECT_GT(m.messages_per_request, 0.0);
    EXPECT_GE(m.imbalance, 1.0);
    EXPECT_EQ(m.replans, 4u);  // the initial plan of each shard
    ASSERT_EQ(m.per_shard_requests.size(), 4u);
    for (uint64_t load : m.per_shard_requests) EXPECT_GT(load, 0u);
    EXPECT_FALSE(m.ToString().empty());

    // Full parallel replan on the churned shard subgraphs; serving state and
    // audit-exactness must survive.
    ASSERT_TRUE(cluster->Replan().ok());
    ASSERT_TRUE(cluster->Validate().ok());
    EXPECT_EQ(cluster->GetMetrics().replans, 8u);
    for (int i = 0; i < 50; ++i) {
      NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      ASSERT_TRUE(cluster->QueryStream(u).ok());
    }
  }
}

TEST(ClusterServiceTest, EmptyShardsAreTolerated) {
  // 3 users on 6 shards: at least three shards are empty.
  Graph g = BuildGraph(3, {{0, 1}}).ValueOrDie();
  ClusterOptions options = SmallCluster(6, "nosy");
  auto cluster = ClusterService::Create(g, UniformWorkload(3, 1.0, 5.0), options)
                     .MoveValueOrDie();
  ASSERT_TRUE(cluster->Share(0).ok());
  std::vector<EventTuple> feed = cluster->QueryStream(1).MoveValueOrDie();
  ASSERT_EQ(feed.size(), 1u);
  EXPECT_EQ(feed[0].producer, 0u);
  ASSERT_TRUE(cluster->Validate().ok());
}

// Each shard applies shard.replan to its own churn: same-shard follows count
// toward that shard's EveryN period; cross-shard follows go to the router
// and count toward none.
TEST(ClusterServiceTest, AutoReplanTriggersAfterConfiguredChurn) {
  Graph g = MakeFlickrLike(150, 9).ValueOrDie();
  ClusterOptions options = SmallCluster(2, "hybrid");
  options.shard.replan = ReplanPolicy::EveryN(5);
  auto cluster = ClusterService::Create(g, options).MoveValueOrDie();

  Rng rng(5);
  size_t applied = 0;
  while (applied < 40) {
    NodeId u = static_cast<NodeId>(rng.Uniform(150));
    NodeId v = static_cast<NodeId>(rng.Uniform(150));
    if (u == v || cluster->graph().HasEdge(v, u)) continue;
    ASSERT_TRUE(cluster->Follow(u, v).ok());
    ++applied;
  }
  // Initial plan + one replan per 5 local churn ops, per shard.
  size_t local_churn = 0, replans = 0;
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    const FeedService::Metrics sm = cluster->shard(s).GetMetrics();
    EXPECT_GE(sm.churn_ops, 5u) << "shard " << s;
    EXPECT_EQ(sm.replans, 1 + sm.churn_ops / 5) << "shard " << s;
    local_churn += sm.churn_ops;
    replans += sm.replans;
  }
  EXPECT_LT(local_churn, 40u);  // some follows crossed shards
  ClusterMetrics m = cluster->GetMetrics();
  EXPECT_EQ(m.replans, replans);
  EXPECT_EQ(m.churn_ops, 40u);
  ASSERT_TRUE(cluster->Validate().ok());
}

TEST(ClusterServiceTest, DriveReplaysTheWorkloadWithAudits) {
  Graph g = MakeFlickrLike(240, 12).ValueOrDie();
  ClusterOptions options = SmallCluster(4, "nosy");
  options.audit_every = 25;
  auto cluster = ClusterService::Create(g, options).MoveValueOrDie();

  auto scenario = StationaryReplay(g, *cluster, 1500, 4);
  ReplayReport report = ReplayScenario(*scenario, *cluster).MoveValueOrDie();
  EXPECT_EQ(report.shares + report.queries, 1500u);
  EXPECT_GT(report.shares, 0u);
  EXPECT_GT(report.queries, 0u);
  EXPECT_GT(report.messages_per_request, 0.0);
  EXPECT_GT(CrossMessagesPerRequest(report), 0.0);
  EXPECT_FALSE(report.ToString().empty());

  ClusterMetrics m = cluster->GetMetrics();
  EXPECT_EQ(m.shares + m.queries, 1500u);
  EXPECT_EQ(m.audited_queries, m.queries / 25);
  EXPECT_GT(m.audited_queries, 10u);
  EXPECT_GE(m.imbalance, 1.0);
}

// The merge's contract on its own: newest-first local list plus any number
// of ascending per-producer sources, each holding at most k unique seqs,
// must give exactly the k-prefix of the sorted union.
TEST(NewestKMergeTest, MatchesSortAndTruncateReference) {
  Rng rng(2024);
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
    SCOPED_TRACE(k);
    for (int trial = 0; trial < 200; ++trial) {
      std::unordered_set<uint64_t> used;
      auto fresh_seq = [&] {
        for (;;) {
          const uint64_t seq = 1 + rng.Uniform(100000);
          if (used.insert(seq).second) return seq;
        }
      };
      std::vector<std::pair<uint64_t, NodeId>> reference;

      std::vector<EventTuple> local(rng.Uniform(2 * k + 1));
      for (size_t j = 0; j < local.size(); ++j) {
        local[j].producer = static_cast<NodeId>(1000 + j);
        local[j].event_id = fresh_seq();
        reference.emplace_back(local[j].event_id, local[j].producer);
      }
      std::sort(local.begin(), local.end(), [](const auto& a, const auto& b) {
        return a.event_id > b.event_id;
      });

      std::vector<std::vector<uint64_t>> sources(rng.Uniform(201));
      for (size_t i = 0; i < sources.size(); ++i) {
        sources[i].resize(rng.Uniform(k + 1));
        for (uint64_t& seq : sources[i]) {
          seq = fresh_seq();
          reference.emplace_back(seq, static_cast<NodeId>(i));
        }
        std::sort(sources[i].begin(), sources[i].end());
      }

      NewestKMerge merge(k);
      for (const EventTuple& e : local) {
        if (!merge.Offer(e.event_id, e.producer)) break;
      }
      for (size_t i = 0; i < sources.size(); ++i) {
        merge.OfferAscending(sources[i], static_cast<NodeId>(i));
      }
      const std::vector<EventTuple> merged = std::move(merge).Take();

      std::sort(reference.begin(), reference.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      if (reference.size() > k) reference.resize(k);
      ASSERT_EQ(merged.size(), reference.size()) << "trial " << trial;
      for (size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].event_id, reference[i].first) << "trial " << trial;
        EXPECT_EQ(merged[i].producer, reference[i].second) << "trial " << trial;
        EXPECT_EQ(merged[i].timestamp, merged[i].event_id);
      }
    }
  }
}

// The same event can reach the router twice: in the shard-local feed and
// in a replica or pulled history of its producer. The merge keeps it once,
// so the output is the k-prefix of the sorted union without repeats.
TEST(NewestKMergeTest, DropsEventsRepeatedAcrossSources) {
  Rng rng(2026);
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
    SCOPED_TRACE(k);
    for (int trial = 0; trial < 200; ++trial) {
      // The local list holds events of producers 0-4; source 0 repeats some
      // of producer 0's events and adds fresh ones.
      std::vector<EventTuple> local(1 + rng.Uniform(2 * k + 1));
      for (size_t j = 0; j < local.size(); ++j) {
        const uint64_t seq = 1 + 4 * j + rng.Uniform(4);
        local[j] = EventTuple{static_cast<NodeId>(rng.Uniform(5)), seq, seq};
      }
      local[0].producer = 0;
      std::vector<uint64_t> source{local[0].event_id};
      for (size_t j = 1; j < local.size(); ++j) {
        if (local[j].producer == 0 && rng.Bernoulli(0.8)) source.push_back(local[j].event_id);
      }
      std::sort(local.begin(), local.end(), NewerThan);
      for (size_t j = 0, fresh = rng.Uniform(k + 1); j < fresh; ++j) {
        source.push_back(1000 + 4 * j);
      }
      std::sort(source.begin(), source.end());

      NewestKMerge merge(k);
      for (const EventTuple& e : local) {
        if (!merge.Offer(e)) break;
      }
      merge.OfferAscending(source, 0);
      const std::vector<EventTuple> merged = std::move(merge).Take();

      std::vector<EventTuple> reference = local;
      for (uint64_t seq : source) reference.push_back(EventTuple{0, seq, seq});
      std::sort(reference.begin(), reference.end(), NewerThan);
      reference.erase(std::unique(reference.begin(), reference.end()), reference.end());
      if (reference.size() > k) reference.resize(k);
      ASSERT_EQ(merged, reference) << "trial " << trial;
      for (size_t i = 1; i < merged.size(); ++i) {
        EXPECT_NE(merged[i].event_id, merged[i - 1].event_id) << "trial " << trial;
      }
    }
  }
}

// The merge inside the router: consumers whose local feed, push replicas and
// pulled histories together hold more than feed_size events must still get
// audit-exact streams through shares, churn and a live migration.
TEST(ClusterServiceTest, BoundedMergeStaysAuditCleanWithOverfullSources) {
  const size_t kNodes = 260;
  Graph g = MakeFlickrLike(kNodes, 21).ValueOrDie();
  ClusterOptions options = SmallCluster(4, "hybrid");
  options.partitioner = "edge-cut";
  const size_t k = options.shard.prototype.feed_size;
  auto cluster = ClusterService::Create(g, options).MoveValueOrDie();

  // Events each producer can contribute: histories and replicas are
  // trimmed to the newest k seqs.
  std::vector<size_t> shared(kNodes, 0);
  size_t overfull = 0;
  auto query = [&](NodeId u) {
    const ShardMap& map = cluster->shard_map();
    const uint32_t s = map.ShardOf(u);
    size_t local = std::min(shared[u], k);
    size_t remote = 0;
    for (NodeId p : cluster->graph().InNeighbors(u)) {
      (map.ShardOf(p) == s ? local : remote) += std::min(shared[p], k);
    }
    if (remote > 0 && std::min(local, k) + remote > k) ++overfull;
    return cluster->QueryStream(u).status();
  };

  Rng rng(31);
  for (int op = 0; op < 1600; ++op) {
    if (op == 800) {
      std::vector<UserMove> moves;
      for (NodeId u = 0; u < kNodes; u += 37) {
        const uint32_t from = cluster->shard_map().ShardOf(u);
        moves.push_back(UserMove{u, static_cast<uint32_t>((from + 1) % 4)});
      }
      ASSERT_TRUE(cluster->MigrateUsers(moves).ok());
    }
    const double dice = rng.UniformDouble();
    NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
    NodeId v = static_cast<NodeId>(rng.Uniform(kNodes));
    if (dice < 0.45) {
      ASSERT_TRUE(cluster->Share(u).ok());
      ++shared[u];
    } else if (dice < 0.85) {
      ASSERT_TRUE(query(u).ok()) << "audit failed at op " << op;
    } else if (u != v && dice < 0.94) {
      ASSERT_TRUE(cluster->Follow(u, v).ok());
    } else if (u != v) {
      ASSERT_TRUE(cluster->Unfollow(u, v).ok());
    }
  }
  for (NodeId u = 0; u < kNodes; ++u) {
    ASSERT_TRUE(query(u).ok()) << "audit failed for user " << u;
  }
  ASSERT_TRUE(cluster->Validate().ok());

  const ClusterMetrics m = cluster->GetMetrics();
  EXPECT_EQ(m.migrations, 1u);
  EXPECT_GT(m.cross_edges, 0u);
  EXPECT_GT(overfull, 0u);
  // Single-threaded, unbounded views: every query was a complete audit.
  EXPECT_EQ(m.audited_queries, m.queries);
}

// The router records its own latency: one histogram sample per routed Share
// and per query, a replay's queries included.
TEST(ClusterServiceTest, RouterLatencyHistogramsCountEveryRequest) {
  Graph g = MakeFlickrLike(200, 4).ValueOrDie();
  ClusterOptions options = SmallCluster(4, "nosy");
  options.audit_every = 0;
  auto cluster = ClusterService::Create(g, options).MoveValueOrDie();

  auto scenario = StationaryReplay(g, *cluster, 1000, 8);
  ASSERT_TRUE(ReplayScenario(*scenario, *cluster).ok());
  for (NodeId u = 0; u < 50; ++u) {
    ASSERT_TRUE(cluster->Share(u).ok());
    ASSERT_TRUE(cluster->QueryStream(u).ok());
  }

  obs::MetricsRegistry& registry = cluster->registry();
  const uint64_t shares = registry.GetCounter("cluster.shares").Value();
  const uint64_t queries = registry.GetCounter("cluster.queries").Value();
  EXPECT_GT(shares, 50u);
  EXPECT_GT(queries, 50u);
  EXPECT_EQ(registry.GetHistogram("cluster.share_us").Count(), shares);
  EXPECT_EQ(registry.GetHistogram("cluster.query_us").Count(), queries);
}

// The router reads push replicas and pulled histories with no lock while
// shares rewrite them. Writer threads share hot producers that consumers on
// other shards both pull and hold push replicas of, while reader threads
// query: every feed returned under the race must be newest-first, free of
// repeats, limited to followed producers and made of acked shares, and once
// the writers stop every feed must equal the oracle built from the acked
// shares (the shard event logs, which the router's slots do not feed).
TEST(ClusterServiceTest, LockFreeFanOutStaysExactUnderConcurrentShares) {
  constexpr size_t kNodes = 64;
  constexpr NodeId kHot = 4;
  constexpr size_t kWriters = 3;
  constexpr size_t kReaders = 2;
  constexpr size_t kSharesPerWriter = 3000;
  // Everyone follows every hot producer.
  std::vector<Edge> edges;
  for (NodeId p = 0; p < kHot; ++p) {
    for (NodeId c = 0; c < kNodes; ++c) {
      if (c != p) edges.push_back(Edge{p, c});
    }
  }
  Graph g = BuildGraph(kNodes, edges).ValueOrDie();
  // rp = 1 everywhere; even consumers (rc 5) take pushes, odd ones (rc 0.2)
  // pull (the hybrid rule pushes iff rp <= rc).
  Workload w = UniformWorkload(kNodes, 1.0, 1.0);
  for (NodeId u = 0; u < kNodes; ++u) w.consumption[u] = u % 2 == 0 ? 5.0 : 0.2;
  ClusterOptions options = SmallCluster(4, "hybrid");
  auto cluster = ClusterService::Create(g, w, options).MoveValueOrDie();
  const ShardMap& map = cluster->shard_map();
  const size_t k = options.shard.prototype.feed_size;
  for (NodeId p = 0; p < kHot; ++p) {
    size_t pushes = 0, pulls = 0;
    for (NodeId c = 0; c < kNodes; ++c) {
      const auto mode = cluster->cross_index().ModeOf(p, c);
      if (mode.has_value()) ++(*mode == CrossEdgeMode::kPush ? pushes : pulls);
    }
    ASSERT_GT(pushes, 0u) << "hot producer " << p;
    ASSERT_GT(pulls, 0u) << "hot producer " << p;
  }

  std::vector<std::atomic<uint64_t>> acked(kNodes);
  std::atomic<size_t> writers_left{kWriters};
  std::atomic<uint64_t> bad_feeds{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> queries{0};
  std::vector<std::vector<EventTuple>> seen(kReaders);
  // Every thread starts together, so the shares overlap the queries.
  std::atomic<size_t> ready{0};
  auto start = [&] {
    ready.fetch_add(1);
    while (ready.load() < kWriters + kReaders) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Mix64(t + 101));
      start();
      for (size_t i = 0; i < kSharesPerWriter; ++i) {
        const NodeId u = rng.Bernoulli(0.8)
                             ? static_cast<NodeId>(rng.Uniform(kHot))
                             : static_cast<NodeId>(rng.Uniform(kNodes));
        if (cluster->Share(u).ok()) {
          acked[u].fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Mix64(t + 202));
      start();
      while (writers_left.load() > 0) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
        auto feed = cluster->QueryStream(u);
        if (!feed.ok()) {
          errors.fetch_add(1);
          continue;
        }
        const std::vector<EventTuple>& stream = feed.ValueOrDie();
        bool ok = stream.size() <= k;
        for (size_t i = 0; i < stream.size(); ++i) {
          const EventTuple& e = stream[i];
          ok = ok && e.timestamp == e.event_id &&
               (e.producer == u || g.HasEdge(e.producer, u)) &&
               (i == 0 || e.event_id < stream[i - 1].event_id);
          seen[t].push_back(e);
        }
        if (!ok) bad_feeds.fetch_add(1);
        queries.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(bad_feeds.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // The oracle: every logged share, under its global producer id. Each
  // acked share is logged exactly once, and nothing else is.
  std::vector<std::vector<uint64_t>> logged(kNodes);
  std::set<std::pair<NodeId, uint64_t>> events;
  for (uint32_t s = 0; s < map.num_shards(); ++s) {
    Prototype* plane = cluster->shard(s).ServingPlane().ValueOrDie();
    for (const EventTuple& e : plane->EventLog()) {
      const NodeId p = map.GlobalId(s, e.producer);
      logged[p].push_back(e.event_id);
      events.emplace(p, e.event_id);
    }
  }
  for (NodeId u = 0; u < kNodes; ++u) {
    EXPECT_EQ(logged[u].size(), acked[u].load()) << "user " << u;
  }
  for (const std::vector<EventTuple>& feeds : seen) {
    for (const EventTuple& e : feeds) {
      ASSERT_TRUE(events.count({e.producer, e.event_id}))
          << "event " << e.event_id << " of " << e.producer << " never acked";
    }
  }
  for (NodeId u = 0; u < kNodes; ++u) {
    std::vector<EventTuple> expected;
    auto add = [&](NodeId p) {
      for (uint64_t seq : logged[p]) expected.push_back(EventTuple{p, seq, seq});
    };
    add(u);
    for (NodeId p : g.InNeighbors(u)) add(p);
    std::sort(expected.begin(), expected.end(), NewerThan);
    if (expected.size() > k) expected.resize(k);
    EXPECT_EQ(cluster->QueryStream(u).MoveValueOrDie(), expected) << "user " << u;
  }
  ASSERT_TRUE(cluster->Validate().ok());
  EXPECT_GT(cluster->GetMetrics().audited_queries, 0u);
}

// The edge-cut partitioner's reason to exist: on a community-structured
// graph it must strictly reduce the predicted cross-shard cost — and the
// measured cross-shard traffic — versus hash placement.
TEST(ClusterServiceTest, EdgeCutPartitionerBeatsHashOnCommunityGraph) {
  Graph g = GeneratePlantedPartition(4, 50, 0.2, 0.01, 13).ValueOrDie();
  ClusterOptions options = SmallCluster(4, "hybrid");
  options.audit_every = 50;

  options.partitioner = "hash";
  auto hash = ClusterService::Create(g, options).MoveValueOrDie();
  options.partitioner = "edge-cut";
  auto cut = ClusterService::Create(g, options).MoveValueOrDie();

  const ClusterMetrics hm = hash->GetMetrics();
  const ClusterMetrics cm = cut->GetMetrics();
  EXPECT_LT(cm.cross_edges, hm.cross_edges);
  EXPECT_LT(cm.cross_cost, hm.cross_cost);

  auto hash_scenario = StationaryReplay(g, *hash, 2000, 3);
  auto cut_scenario = StationaryReplay(g, *cut, 2000, 3);
  ReplayReport hr = ReplayScenario(*hash_scenario, *hash).MoveValueOrDie();
  ReplayReport cr = ReplayScenario(*cut_scenario, *cut).MoveValueOrDie();
  EXPECT_LT(CrossMessagesPerRequest(cr), CrossMessagesPerRequest(hr));
  EXPECT_GT(hash->GetMetrics().audited_queries, 0u);
  EXPECT_GT(cut->GetMetrics().audited_queries, 0u);
}

}  // namespace
}  // namespace piggy
