// Crash recovery end-to-end: restart equivalence (recovered feeds are
// bit-identical to the pre-shutdown deployment), kill-and-recover storms that
// crash the durability layer at randomized WAL/snapshot boundaries and audit
// every recovered feed against an in-memory oracle, shard kill/restart
// through the cluster router, and the shard-failure scenario family.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_service.h"
#include "gen/presets.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/feed_service.h"
#include "util/failpoint.h"
#include "workload/workload.h"

namespace piggy {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().ClearAll();
    dir_ = std::filesystem::temp_directory_path() /
           ("piggy_rec_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointRegistry::Instance().ClearAll();
    std::filesystem::remove_all(dir_);
  }
  std::string Dir(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

/// One op of a deterministic storm (shares, queries, churn, rate shifts).
struct StormOp {
  enum Kind { kShare, kQuery, kFollow, kUnfollow, kRates } kind = kShare;
  NodeId user = 0;
  NodeId producer = 0;
  double rp = 0, rc = 0;
};

std::vector<StormOp> MakeStorm(size_t n_nodes, size_t n_ops, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> node(0, static_cast<NodeId>(n_nodes - 1));
  std::uniform_int_distribution<int> kind(0, 99);
  std::vector<StormOp> ops;
  std::vector<std::pair<NodeId, NodeId>> followed;  // (follower, producer)
  ops.reserve(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    StormOp op;
    int k = kind(rng);
    if (k < 45) {
      op.kind = StormOp::kShare;
      op.user = node(rng);
    } else if (k < 80) {
      op.kind = StormOp::kQuery;
      op.user = node(rng);
    } else if (k < 90) {
      op.kind = StormOp::kFollow;
      op.user = node(rng);
      do op.producer = node(rng); while (op.producer == op.user);
      followed.emplace_back(op.user, op.producer);
    } else if (k < 96 && !followed.empty()) {
      op.kind = StormOp::kUnfollow;
      auto [f, p] = followed[rng() % followed.size()];
      op.user = f;
      op.producer = p;
    } else {
      op.kind = StormOp::kRates;
      op.user = node(rng);
      op.rp = 0.1 + static_cast<double>(rng() % 100) / 10.0;
      op.rc = 0.1 + static_cast<double>(rng() % 100) / 10.0;
    }
    ops.push_back(op);
  }
  return ops;
}

/// Applies one storm op through either service type's public API.
template <typename Service>
Status ApplyOp(Service& s, const StormOp& op) {
  switch (op.kind) {
    case StormOp::kShare:
      return s.Share(op.user);
    case StormOp::kQuery:
      return s.QueryStream(op.user).status();
    case StormOp::kFollow:
      return s.Follow(op.user, op.producer);
    case StormOp::kUnfollow:
      return s.Unfollow(op.user, op.producer);
    case StormOp::kRates:
      return s.SetUserRates(op.user, op.rp, op.rc);
  }
  return Status::OK();
}

template <typename Service>
std::vector<std::vector<EventTuple>> AllFeeds(Service& s, size_t n_nodes) {
  std::vector<std::vector<EventTuple>> feeds(n_nodes);
  for (NodeId u = 0; u < n_nodes; ++u)
    feeds[u] = s.QueryStream(u).MoveValueOrDie();
  return feeds;
}

FeedServiceOptions ServiceOpts(const std::string& data_dir) {
  FeedServiceOptions o;
  o.prototype.num_servers = 4;
  o.prototype.feed_size = 10;
  o.durability.data_dir = data_dir;
  o.durability.flush = WalFlushPolicy::kEveryRecord;
  return o;
}

TEST_F(RecoveryTest, FeedServiceRestartEquivalence) {
  const size_t n = 200;
  Graph g = MakeFlickrLike(n, 3).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  FeedServiceOptions opts = ServiceOpts(Dir("svc"));
  auto ops = MakeStorm(n, 600, 11);

  std::vector<std::vector<EventTuple>> before;
  {
    auto svc = FeedService::Create(g, w, opts).MoveValueOrDie();
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(ApplyOp(*svc, ops[i]).ok()) << "op " << i;
      if (i == ops.size() / 2) {
        ASSERT_TRUE(svc->Replan().ok());
      }
    }
    before = AllFeeds(*svc, n);
  }  // orderly shutdown: the WAL is flushed by the destructor

  RecoveryStats stats;
  auto svc = FeedService::Recover(opts, &stats).MoveValueOrDie();
  EXPECT_TRUE(svc->Validate().ok());
  EXPECT_GT(stats.wal_records, 0u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(AllFeeds(*svc, n), before);

  // The recovered deployment keeps serving and logging: more ops, then a
  // second recovery still round-trips.
  auto more = MakeStorm(n, 100, 12);
  std::vector<std::vector<EventTuple>> after;
  {
    for (const auto& op : more) ASSERT_TRUE(ApplyOp(*svc, op).ok());
    after = AllFeeds(*svc, n);
    svc.reset();
  }
  auto svc2 = FeedService::Recover(opts).MoveValueOrDie();
  EXPECT_EQ(AllFeeds(*svc2, n), after);
}

TEST_F(RecoveryTest, FeedServiceSnapshotRotationBoundsReplay) {
  const size_t n = 150;
  Graph g = MakeFlickrLike(n, 5).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  FeedServiceOptions opts = ServiceOpts(Dir("svc"));
  opts.durability.snapshot_every = 100;
  auto ops = MakeStorm(n, 700, 21);

  std::vector<std::vector<EventTuple>> before;
  {
    auto svc = FeedService::Create(g, w, opts).MoveValueOrDie();
    for (const auto& op : ops) ASSERT_TRUE(ApplyOp(*svc, op).ok());
    before = AllFeeds(*svc, n);
  }
  RecoveryStats stats;
  auto svc = FeedService::Recover(opts, &stats).MoveValueOrDie();
  EXPECT_EQ(AllFeeds(*svc, n), before);
  // Rotation happened, and the WAL tail replayed is shorter than the storm.
  EXPECT_GT(stats.snapshot_id, 0u);
  EXPECT_LT(stats.wal_records, 250u);
}

struct CrashSite {
  const char* point;
  FailPointAction action;
  uint64_t skip;
};

/// Runs `ops` against a durable service until the simulated crash kills it,
/// mirroring every acked op into `oracle`. Returns the first op that failed
/// (the one in-doubt op), or ops.size() if the storm ran to completion.
template <typename Service, typename Oracle>
size_t RunUntilCrash(Service& svc, Oracle& oracle,
                     const std::vector<StormOp>& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    Status st = ApplyOp(svc, ops[i]);
    if (!st.ok()) return i;  // fail-stop: the process is dead from here
    EXPECT_TRUE(ApplyOp(oracle, ops[i]).ok());
  }
  return ops.size();
}

/// The recovered state must equal the acked prefix, or the acked prefix plus
/// the single in-doubt op (durable but unacked — e.g. a crash between the
/// WAL flush and the ack). Anything else is data loss or corruption.
template <typename Service, typename Oracle>
void ExpectAckedStateRecovered(Service& svc, Oracle& oracle, size_t n,
                               const std::vector<StormOp>& ops,
                               size_t in_doubt) {
  auto recovered = AllFeeds(svc, n);
  if (recovered == AllFeeds(oracle, n)) return;
  ASSERT_LT(in_doubt, ops.size())
      << "recovered feeds diverge from the fully-acked oracle";
  ASSERT_TRUE(ApplyOp(oracle, ops[in_doubt]).ok());
  EXPECT_EQ(recovered, AllFeeds(oracle, n))
      << "recovered feeds match neither the acked prefix nor prefix+1";
}

TEST_F(RecoveryTest, FeedServiceKillAndRecoverStorm) {
  const size_t n = 150;
  Graph g = MakeFlickrLike(n, 7).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto ops = MakeStorm(n, 400, 31);

  std::mt19937_64 rng(77);
  std::vector<CrashSite> sites = {
      {"wal.append", FailPointAction::kCrashHard, 2},
      {"wal.append", FailPointAction::kCrashTornWrite, 1 + rng() % 50},
      {"wal.append", FailPointAction::kCrashHard, 1 + rng() % 200},
      {"wal.append", FailPointAction::kCrashTornWrite, 1 + rng() % 200},
      {"wal.sync", FailPointAction::kCrashHard, 1 + rng() % 100},
      {"snapshot.write", FailPointAction::kCrashHard, 1},
      {"snapshot.write", FailPointAction::kCrashTornWrite, 2},
      {"snapshot.rename", FailPointAction::kCrashHard, 1},
  };

  for (size_t trial = 0; trial < sites.size(); ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 sites[trial].point);
    auto& fp = FailPointRegistry::Instance();
    fp.ClearAll();
    std::string trial_dir = "t";
    trial_dir += std::to_string(trial);
    FeedServiceOptions opts = ServiceOpts(Dir(trial_dir));
    opts.durability.snapshot_every = 120;  // so rotation points get exercised
    FeedServiceOptions mem;  // oracle: identical but memory-only
    mem.prototype = opts.prototype;

    auto svc = FeedService::Create(g, w, opts).MoveValueOrDie();
    auto oracle = FeedService::Create(g, w, mem).MoveValueOrDie();
    fp.Arm(sites[trial].point, sites[trial].action, sites[trial].skip);
    size_t in_doubt = RunUntilCrash(*svc, *oracle, ops);
    svc.reset();  // the dead process's memory is gone
    fp.ClearAll();

    auto back = FeedService::Recover(opts).MoveValueOrDie();
    EXPECT_TRUE(back->Validate().ok());
    ExpectAckedStateRecovered(*back, *oracle, n, ops, in_doubt);
  }
}

// Request-path snapshots publish on a background writer; these tests hold
// that writer at a FailPoint to pin down what happens around it.
constexpr auto kParkTimeout = std::chrono::seconds(30);

TEST_F(RecoveryTest, FeedServiceServesWhilePublishIsHeld) {
  const size_t n = 150;
  Graph g = MakeFlickrLike(n, 9).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  FeedServiceOptions opts = ServiceOpts(Dir("svc"));
  opts.durability.snapshot_every = 50;
  auto& fp = FailPointRegistry::Instance();
  const obs::Counter* rotations = nullptr;

  std::vector<std::vector<EventTuple>> before;
  {
    auto svc = FeedService::Create(g, w, opts).MoveValueOrDie();
    rotations = svc->registry().FindCounter("wal.rotations");
    ASSERT_NE(rotations, nullptr);
    EXPECT_EQ(rotations->Value(), 1u);  // snapshot 0 at create
    fp.Hold("snapshot.write");
    // The 50th share crosses the threshold: it cuts (wal-1) and hands the
    // publish to the writer, which parks at the FailPoint.
    for (NodeId u = 0; u < 50; ++u) ASSERT_TRUE(svc->Share(u % n).ok());
    ASSERT_TRUE(fp.WaitUntilParked("snapshot.write", kParkTimeout));
    EXPECT_EQ(rotations->Value(), 2u);
    // Shares and queries complete while the publish is held. The count
    // crosses the threshold twice more: those cuts are deferred (no wal-2),
    // not queued behind the held one.
    for (size_t i = 0; i < 120; ++i) {
      ASSERT_TRUE(svc->Share(static_cast<NodeId>((i * 7) % n)).ok());
      ASSERT_TRUE(svc->QueryStream(static_cast<NodeId>(i % n)).ok());
    }
    EXPECT_EQ(rotations->Value(), 2u);
    EXPECT_TRUE(std::filesystem::exists(Dir("svc") + "/wal-000001.log"));
    EXPECT_FALSE(std::filesystem::exists(Dir("svc") + "/wal-000002.log"));
    EXPECT_FALSE(std::filesystem::exists(Dir("svc") + "/snapshot-000001"));
    fp.Release("snapshot.write");
    ASSERT_TRUE(svc->WaitForSnapshotPublish().ok());
    EXPECT_TRUE(std::filesystem::exists(Dir("svc") + "/snapshot-000001"));
    // The first request after the publish landed serves the deferred cut.
    ASSERT_TRUE(svc->Share(1).ok());
    ASSERT_TRUE(svc->WaitForSnapshotPublish().ok());
    EXPECT_EQ(rotations->Value(), 3u);
    EXPECT_TRUE(std::filesystem::exists(Dir("svc") + "/snapshot-000002"));
    before = AllFeeds(*svc, n);
  }
  RecoveryStats stats;
  auto back = FeedService::Recover(opts, &stats).MoveValueOrDie();
  EXPECT_EQ(stats.snapshot_id, 2u);
  EXPECT_EQ(stats.wal_records, 0u);
  EXPECT_EQ(AllFeeds(*back, n), before);
}

TEST_F(RecoveryTest, FeedServiceCrashDuringPublishRecoversAckedPrefix) {
  const size_t n = 150;
  Graph g = MakeFlickrLike(n, 13).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto ops = MakeStorm(n, 400, 41);
  auto& fp = FailPointRegistry::Instance();

  for (const char* point : {"snapshot.write", "snapshot.rename"}) {
    SCOPED_TRACE(point);
    fp.ClearAll();
    const std::string dir = Dir(std::string("crash-") + point);
    FeedServiceOptions opts = ServiceOpts(dir);
    opts.durability.snapshot_every = 40;
    FeedServiceOptions mem;
    mem.prototype = opts.prototype;
    auto svc = FeedService::Create(g, w, opts).MoveValueOrDie();
    auto oracle = FeedService::Create(g, w, mem).MoveValueOrDie();

    // Run until the writer parks on the first request-path publish, then
    // keep acking ops into wal-1 while it is held.
    fp.Hold(point);
    fp.Arm(point, FailPointAction::kCrashHard);
    size_t i = 0;
    bool parked = false;
    for (; i < ops.size() && !parked; ++i) {
      ASSERT_TRUE(ApplyOp(*svc, ops[i]).ok()) << "op " << i;
      ASSERT_TRUE(ApplyOp(*oracle, ops[i]).ok());
      parked = fp.WaitUntilParked(point, std::chrono::milliseconds(0));
    }
    ASSERT_TRUE(fp.WaitUntilParked(point, kParkTimeout));
    for (size_t k = 0; k < 30 && i < ops.size(); ++k, ++i) {
      ASSERT_TRUE(ApplyOp(*svc, ops[i]).ok()) << "op " << i;
      ASSERT_TRUE(ApplyOp(*oracle, ops[i]).ok());
    }
    // The crash fires in the writer: snapshot-1 never lands.
    fp.Release(point);
    EXPECT_TRUE(svc->WaitForSnapshotPublish().IsIOError());
    svc.reset();
    fp.ClearAll();
    EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot-000001"));

    RecoveryStats stats;
    auto back = FeedService::Recover(opts, &stats).MoveValueOrDie();
    EXPECT_EQ(stats.snapshot_id, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/wal-000000.log"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/wal-000001.log"));
    EXPECT_GT(stats.wal_records, 40u);
    EXPECT_TRUE(back->Validate().ok());
    // Exactly the acked ops: nothing was in doubt when the crash fired.
    EXPECT_EQ(AllFeeds(*back, n), AllFeeds(*oracle, n));
  }
}

TEST_F(RecoveryTest, FeedServiceConcurrentWritersAcrossBackgroundPublishes) {
  const size_t n = 150;
  Graph g = MakeFlickrLike(n, 17).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  FeedServiceOptions opts = ServiceOpts(Dir("svc"));
  opts.durability.snapshot_every = 40;
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 400;

  std::vector<std::vector<EventTuple>> before;
  {
    auto svc = FeedService::Create(g, w, opts).MoveValueOrDie();
    std::vector<std::thread> clients;
    std::atomic<size_t> failures{0};
    for (size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = 0; i < kOpsPerThread; ++i) {
          const NodeId u = static_cast<NodeId>((t * 37 + i * 11) % n);
          if (!svc->Share(u).ok()) failures.fetch_add(1);
          if (!svc->QueryStream(u).ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_TRUE(svc->WaitForSnapshotPublish().ok());
    const obs::Counter* rotations = svc->registry().FindCounter("wal.rotations");
    ASSERT_NE(rotations, nullptr);
    EXPECT_GE(rotations->Value(), 2u);  // create + at least one request-path cut
    before = AllFeeds(*svc, n);
  }
  RecoveryStats stats;
  auto back = FeedService::Recover(opts, &stats).MoveValueOrDie();
  EXPECT_GT(stats.snapshot_id, 0u);
  EXPECT_EQ(AllFeeds(*back, n), before);
}

ClusterOptions ClusterOpts(const std::string& data_dir) {
  ClusterOptions o;
  o.num_shards = 4;
  o.shard.prototype.num_servers = 4;
  o.shard.prototype.feed_size = 10;
  o.durability.data_dir = data_dir;
  o.durability.flush = WalFlushPolicy::kEveryRecord;
  return o;
}

TEST_F(RecoveryTest, ClusterRestartEquivalence) {
  const size_t n = 240;
  Graph g = MakeFlickrLike(n, 13).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  ClusterOptions opts = ClusterOpts(Dir("cluster"));
  auto ops = MakeStorm(n, 800, 41);

  std::vector<std::vector<EventTuple>> before;
  {
    auto cluster = ClusterService::Create(g, w, opts).MoveValueOrDie();
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(ApplyOp(*cluster, ops[i]).ok()) << "op " << i;
      if (i == ops.size() / 2) {
        ASSERT_TRUE(cluster->Replan().ok());
      }
    }
    before = AllFeeds(*cluster, n);
  }

  RecoveryStats stats;
  auto cluster = ClusterService::Recover(opts, &stats).MoveValueOrDie();
  ASSERT_TRUE(cluster->Validate().ok());
  EXPECT_EQ(cluster->num_shards(), 4u);
  EXPECT_EQ(AllFeeds(*cluster, n), before);

  // Keeps serving, routing and logging after recovery; a second recovery
  // still reproduces the feeds exactly.
  auto more = MakeStorm(n, 150, 42);
  std::vector<std::vector<EventTuple>> after;
  for (const auto& op : more) ASSERT_TRUE(ApplyOp(*cluster, op).ok());
  after = AllFeeds(*cluster, n);
  cluster.reset();
  auto cluster2 = ClusterService::Recover(opts).MoveValueOrDie();
  EXPECT_EQ(AllFeeds(*cluster2, n), after);
  EXPECT_TRUE(cluster2->Validate().ok());
}

TEST_F(RecoveryTest, ClusterKillAndRestartShard) {
  const size_t n = 200;
  Graph g = MakeFlickrLike(n, 17).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  ClusterOptions opts = ClusterOpts(Dir("cluster"));
  auto cluster = ClusterService::Create(g, w, opts).MoveValueOrDie();
  for (const auto& op : MakeStorm(n, 300, 51))
    ASSERT_TRUE(ApplyOp(*cluster, op).ok());
  auto before = AllFeeds(*cluster, n);

  const uint32_t victim = 2;
  ASSERT_TRUE(cluster->KillShard(victim).ok());
  EXPECT_TRUE(cluster->IsShardDown(victim));

  // Requests owned by the dead shard bounce with Unavailable; the rest of
  // the cluster keeps serving (feed-neutral ops only, so `before` stays the
  // ground truth for every user).
  NodeId down_user = cluster->shard_map().Members(victim).front();
  NodeId live_user = cluster->shard_map().Members(0).front();
  EXPECT_TRUE(cluster->Share(down_user).IsUnavailable());
  EXPECT_TRUE(cluster->QueryStream(down_user).status().IsUnavailable());
  EXPECT_TRUE(cluster->SetUserRates(down_user, 1, 1).IsUnavailable());
  EXPECT_TRUE(cluster->SetUserRates(live_user, 2, 2).ok());
  EXPECT_EQ(cluster->QueryStream(live_user).ValueOrDie(), before[live_user]);

  // An orderly kill loses nothing: the restarted shard serves bit-identical
  // feeds.
  ASSERT_TRUE(cluster->RestartShard(victim).ok());
  EXPECT_FALSE(cluster->IsShardDown(victim));
  for (NodeId u : cluster->shard_map().Members(victim)) {
    EXPECT_EQ(cluster->QueryStream(u).ValueOrDie(), before[u]) << "user " << u;
  }
  EXPECT_TRUE(cluster->Validate().ok());

  // Killing twice is an error; restarting an up shard is a no-op.
  ASSERT_TRUE(cluster->RestartShard(victim).ok());
  ClusterOptions memory_only = ClusterOpts("");
  memory_only.durability.data_dir.clear();
  auto transient = ClusterService::Create(g, w, memory_only).MoveValueOrDie();
  EXPECT_TRUE(transient->KillShard(0).IsFailedPrecondition());
}

TEST_F(RecoveryTest, ClusterKillAndRecoverStorm) {
  const size_t n = 160;
  Graph g = MakeFlickrLike(n, 19).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto ops = MakeStorm(n, 350, 61);

  std::vector<CrashSite> sites = {
      {"wal.append", FailPointAction::kCrashHard, 40},
      {"wal.append", FailPointAction::kCrashTornWrite, 150},
      {"wal.sync", FailPointAction::kCrashHard, 77},
  };
  for (size_t trial = 0; trial < sites.size(); ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 sites[trial].point);
    auto& fp = FailPointRegistry::Instance();
    fp.ClearAll();
    ClusterOptions opts = ClusterOpts(Dir("ct" + std::to_string(trial)));
    ClusterOptions mem = opts;
    mem.durability.data_dir.clear();

    auto svc = ClusterService::Create(g, w, opts).MoveValueOrDie();
    auto oracle = ClusterService::Create(g, w, mem).MoveValueOrDie();
    fp.Arm(sites[trial].point, sites[trial].action, sites[trial].skip);
    size_t in_doubt = RunUntilCrash(*svc, *oracle, ops);
    ASSERT_LT(in_doubt, ops.size()) << "crash site never fired";
    svc.reset();
    fp.ClearAll();

    auto back = ClusterService::Recover(opts).MoveValueOrDie();
    EXPECT_TRUE(back->Validate().ok());
    ExpectAckedStateRecovered(*back, *oracle, n, ops, in_doubt);
  }
}

TEST_F(RecoveryTest, ShardFailureScenarioReplay) {
  const size_t n = 300;
  Graph g = MakeFlickrLike(n, 23).ValueOrDie();
  ScenarioOptions sopts;
  sopts.num_requests = 3000;
  sopts.epochs = 8;
  sopts.churn_level = 2;  // two fail/restart pairs
  auto scenario = MakeScenario("shard-failure", g, sopts).MoveValueOrDie();

  ClusterOptions opts = ClusterOpts(Dir("cluster"));
  auto cluster =
      ClusterService::Create(g, scenario->base_workload(), opts).MoveValueOrDie();
  auto report = ReplayScenario(*scenario, *cluster).MoveValueOrDie();
  EXPECT_EQ(report.shard_fails, 2u);
  EXPECT_EQ(report.shard_restarts, 2u);
  // Traffic routed to the dead shard during the outage windows bounces.
  EXPECT_GT(report.unavailable, 0u);
  EXPECT_GT(report.shares, 0u);
  for (uint32_t s = 0; s < cluster->num_shards(); ++s)
    EXPECT_FALSE(cluster->IsShardDown(s));
  EXPECT_TRUE(cluster->Validate().ok());

  // Scenario shard events require a cluster; the single-process replay
  // rejects them up front.
  scenario->Reset();
  FeedServiceOptions fopts;
  fopts.prototype.num_servers = 4;
  auto svc =
      FeedService::Create(g, scenario->base_workload(), fopts).MoveValueOrDie();
  EXPECT_TRUE(ReplayScenario(*scenario, *svc).status().IsInvalidArgument());
}

}  // namespace
}  // namespace piggy
