// Elastic rebalancing end-to-end: trigger hysteresis, the bounded delta
// planner, live user migration through ClusterService::MigrateUsers (shard-
// map edge cases: zero-edge users, hubs replicated on every shard, A->B->A
// round trips), migration under concurrent-looking op streams against a
// non-migrating oracle, durable migrate-then-recover round trips, randomized
// kill-during-migration recovery, and the windowed imbalance view.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "cluster/cluster_service.h"
#include "gen/presets.h"
#include "graph/graph_builder.h"
#include "rebalance/coordinator.h"
#include "rebalance/planner.h"
#include "rebalance/trigger.h"
#include "store/feed_service.h"
#include "util/failpoint.h"
#include "workload/workload.h"

namespace piggy {
namespace {

class RebalanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().ClearAll();
    dir_ = std::filesystem::temp_directory_path() /
           ("piggy_reb_" + std::to_string(::getpid()) + "_" +
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

ClusterOptions MemoryOpts(size_t shards = 4) {
  ClusterOptions o;
  o.num_shards = shards;
  o.shard.prototype.num_servers = 4;
  o.shard.prototype.feed_size = 10;
  return o;
}

ClusterOptions DurableOpts(const std::string& data_dir, size_t shards = 4) {
  ClusterOptions o = MemoryOpts(shards);
  o.durability.data_dir = data_dir;
  o.durability.flush = WalFlushPolicy::kEveryRecord;
  return o;
}

template <typename Service>
std::vector<std::vector<EventTuple>> AllFeeds(Service& s, size_t n_nodes) {
  std::vector<std::vector<EventTuple>> feeds(n_nodes);
  for (NodeId u = 0; u < n_nodes; ++u)
    feeds[u] = s.QueryStream(u).MoveValueOrDie();
  return feeds;
}

/// Deterministic mixed op stream (shares, queries, churn, rate shifts).
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
  std::vector<std::pair<NodeId, NodeId>> followed;
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

TEST(RebalanceTriggerTest, StreakThenCooldown) {
  RebalanceTriggerOptions opts;
  opts.imbalance_threshold = 1.5;
  opts.consecutive_windows = 2;
  opts.cooldown_windows = 2;
  RebalanceTrigger trigger(opts);

  // One hot window is not enough; two consecutive ones fire.
  EXPECT_FALSE(trigger.ObserveValue(2.0));
  EXPECT_TRUE(trigger.ObserveValue(2.0));
  // Cooldown swallows the next windows, hot or not.
  EXPECT_FALSE(trigger.ObserveValue(3.0));
  EXPECT_FALSE(trigger.ObserveValue(3.0));
  // Streak restarts from zero after the cooldown.
  EXPECT_FALSE(trigger.ObserveValue(3.0));
  EXPECT_TRUE(trigger.ObserveValue(3.0));
  // A cool window in the middle resets the streak.
  EXPECT_FALSE(trigger.ObserveValue(2.0));
  EXPECT_FALSE(trigger.ObserveValue(2.0));  // cooldown tail
  EXPECT_FALSE(trigger.ObserveValue(2.0));
  EXPECT_FALSE(trigger.ObserveValue(1.0));
  EXPECT_FALSE(trigger.ObserveValue(2.0));
  EXPECT_TRUE(trigger.ObserveValue(2.0));
}

TEST(RebalancePlannerTest, BudgetBoundAndPredictedImprovement) {
  const size_t n = 200, shards = 4;
  Graph g = MakeFlickrLike(n, 3).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  // Round-robin placement, but all observed load on shard 0's users.
  std::vector<uint32_t> assignment(n);
  for (NodeId u = 0; u < n; ++u) assignment[u] = u % shards;
  std::vector<uint64_t> load(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (assignment[u] == 0) load[u] = 100 + u;
  }

  RebalancePlanOptions opts;
  opts.move_budget = 10;
  MovePlan plan = PlanRebalance(g, w, assignment, shards, load, opts);
  ASSERT_FALSE(plan.empty());
  EXPECT_LE(plan.moves.size(), 10u);
  EXPECT_GT(plan.predicted_imbalance_before, 1.5);
  EXPECT_LT(plan.predicted_imbalance_after, plan.predicted_imbalance_before);
  for (const RebalanceMove& m : plan.moves) {
    EXPECT_EQ(m.from, 0u);  // the only overloaded shard
    EXPECT_NE(m.to, 0u);
    EXPECT_LT(m.user, n);
  }
  // Hubs first: moves are heaviest-load-first from the donor.
  for (size_t i = 1; i < plan.moves.size(); ++i) {
    EXPECT_GE(load[plan.moves[i - 1].user], load[plan.moves[i].user]);
  }
}

TEST(RebalancePlannerTest, BalancedLoadPlansNothing) {
  const size_t n = 120, shards = 4;
  Graph g = MakeFlickrLike(n, 5).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  std::vector<uint32_t> assignment(n);
  for (NodeId u = 0; u < n; ++u) assignment[u] = u % shards;
  std::vector<uint64_t> load(n, 7);  // perfectly even by construction

  RebalancePlanOptions drain_only;
  drain_only.heal_cut = false;
  MovePlan plan = PlanRebalance(g, w, assignment, shards, load, drain_only);
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.predicted_imbalance_after,
                   plan.predicted_imbalance_before);
  // Cut healing may still shuffle a balanced cluster toward its traffic,
  // but never un-balances it: the cut shrinks and every destination stays
  // under the donor cap.
  MovePlan heal = PlanRebalance(g, w, assignment, shards, load, {});
  EXPECT_LE(heal.predicted_cut_after, heal.predicted_cut_before);
  EXPECT_LE(heal.predicted_imbalance_after, 1.05 + 1e-9);
  // Zero observed load: nothing to weigh, nothing to move.
  EXPECT_TRUE(
      PlanRebalance(g, w, assignment, shards,
                    std::vector<uint64_t>(n, 0), {}).empty());
}

TEST_F(RebalanceTest, MigrateZeroEdgeUser) {
  // Node n-1 is isolated: no edges, no replicas, nothing to repair — the
  // migration degenerates to moving its feed history.
  const size_t n = 60;
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 2 < n; ++u) builder.AddEdge(u, u + 1);
  Graph g = std::move(builder).Build().ValueOrDie();
  ASSERT_EQ(g.OutDegree(n - 1), 0u);
  ASSERT_EQ(g.InDegree(n - 1), 0u);
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();

  auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
  const NodeId loner = static_cast<NodeId>(n - 1);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cluster->Share(loner).ok());
  for (const auto& op : MakeStorm(n, 200, 7))
    ASSERT_TRUE(ApplyOp(*cluster, op).ok());
  auto before = AllFeeds(*cluster, n);

  const uint32_t from = cluster->shard_map().ShardOf(loner);
  const uint32_t to = (from + 1) % 4;
  ASSERT_TRUE(cluster->MigrateUsers({{loner, to}}).ok());
  EXPECT_EQ(cluster->shard_map().ShardOf(loner), to);
  EXPECT_TRUE(cluster->Validate().ok());
  EXPECT_EQ(AllFeeds(*cluster, n), before);

  // The moved user keeps serving and sharing from its new home (feeds cap
  // at the configured feed_size of 10).
  ASSERT_TRUE(cluster->Share(loner).ok());
  EXPECT_EQ(cluster->QueryStream(loner).ValueOrDie().size(),
            std::min(before[loner].size() + 1, static_cast<size_t>(10)));
}

TEST_F(RebalanceTest, MigrateHubReplicatedOnEveryShard) {
  // Hub 0 pushes to followers on all four shards (rp << rc forces push), so
  // it owns a replica on every remote shard; moving it must tear down and
  // rebuild the whole replica set.
  const size_t n = 80;
  GraphBuilder builder(n);
  for (NodeId u = 1; u < n; ++u) builder.AddEdge(0, u);
  Graph g = std::move(builder).Build().ValueOrDie();
  Workload w;
  w.production.assign(n, 1.0);
  w.consumption.assign(n, 10.0);  // every follower reads much more

  auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(cluster->Share(0).ok());
  for (NodeId u = 0; u < n; ++u) ASSERT_TRUE(cluster->QueryStream(u).ok());
  ClusterMetrics m = cluster->GetMetrics();
  const uint32_t home = cluster->shard_map().ShardOf(0);
  for (uint32_t s = 0; s < 4; ++s) {
    if (s != home) {
      EXPECT_GT(m.per_shard_replicas[s], 0u) << "shard " << s;
    }
  }
  auto before = AllFeeds(*cluster, n);

  // Walk the hub through every other shard; feeds must never change.
  uint32_t at = home;
  for (uint32_t hop = 1; hop < 4; ++hop) {
    const uint32_t to = (home + hop) % 4;
    ASSERT_TRUE(cluster->MigrateUsers({{0, to}}).ok());
    at = to;
    ASSERT_TRUE(cluster->Validate().ok());
    ASSERT_EQ(AllFeeds(*cluster, n), before) << "after hop to " << to;
  }
  EXPECT_EQ(cluster->shard_map().ShardOf(0), at);

  // New shares from the relocated hub still reach every follower.
  ASSERT_TRUE(cluster->Share(0).ok());
  for (NodeId u = 1; u < n; ++u) {
    EXPECT_EQ(cluster->QueryStream(u).ValueOrDie().size(),
              before[u].size() + 1);
  }
  EXPECT_EQ(cluster->GetMetrics().migrated_users, 3u);
}

TEST_F(RebalanceTest, BackToBackMovesABA) {
  const size_t n = 150;
  Graph g = MakeFlickrLike(n, 11).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
  auto oracle = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
  auto storm = MakeStorm(n, 400, 13);
  for (const auto& op : storm) {
    ASSERT_TRUE(ApplyOp(*cluster, op).ok());
    ASSERT_TRUE(ApplyOp(*oracle, op).ok());
  }

  // A -> B -> A for a user batch, with traffic between the hops: local-id
  // translation, seeded histories and replica repair must all survive the
  // round trip (the final placement is the original one).
  std::vector<NodeId> batch = {cluster->shard_map().Members(1)[0],
                               cluster->shard_map().Members(1)[1],
                               cluster->shard_map().Members(1)[2]};
  const auto original = cluster->shard_map().assignment();
  std::vector<UserMove> there, back;
  for (NodeId u : batch) {
    there.push_back({u, 3});
    back.push_back({u, 1});
  }
  ASSERT_TRUE(cluster->MigrateUsers(there).ok());
  ASSERT_TRUE(cluster->Validate().ok());
  auto mid = MakeStorm(n, 150, 14);
  for (const auto& op : mid) {
    ASSERT_TRUE(ApplyOp(*cluster, op).ok());
    ASSERT_TRUE(ApplyOp(*oracle, op).ok());
  }
  ASSERT_TRUE(cluster->MigrateUsers(back).ok());
  ASSERT_TRUE(cluster->Validate().ok());

  EXPECT_EQ(cluster->shard_map().assignment(), original);
  EXPECT_EQ(AllFeeds(*cluster, n), AllFeeds(*oracle, n));
  EXPECT_EQ(cluster->GetMetrics().migrations, 2u);
  EXPECT_EQ(cluster->GetMetrics().migrated_users, 6u);
}

TEST_F(RebalanceTest, MigrateUsersValidation) {
  const size_t n = 100;
  Graph g = MakeFlickrLike(n, 17).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();

  EXPECT_TRUE(cluster->MigrateUsers({}).ok());  // vacuous
  EXPECT_TRUE(cluster->MigrateUsers({{static_cast<NodeId>(n), 1}})
                  .IsInvalidArgument());
  EXPECT_TRUE(cluster->MigrateUsers({{0, 9}}).IsInvalidArgument());
  EXPECT_TRUE(cluster->MigrateUsers({{0, 1}, {0, 2}}).IsInvalidArgument());
  // Moving a user to its current shard is a no-op, not an error.
  EXPECT_TRUE(
      cluster->MigrateUsers({{0, cluster->shard_map().ShardOf(0)}}).ok());
  EXPECT_EQ(cluster->GetMetrics().migrations, 0u);
}

TEST_F(RebalanceTest, MigrationUnderOpStream) {
  // Interleave migrations with a mixed op stream; a never-migrating twin
  // cluster is the oracle. Queries must never bounce for a migrating user
  // (MigrateUsers excludes concurrent ops rather than rejecting them).
  const size_t n = 200;
  Graph g = MakeFlickrLike(n, 19).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
  auto oracle = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();

  std::mt19937_64 rng(23);
  auto storm = MakeStorm(n, 1200, 29);
  for (size_t i = 0; i < storm.size(); ++i) {
    ASSERT_TRUE(ApplyOp(*cluster, storm[i]).ok()) << "op " << i;
    ASSERT_TRUE(ApplyOp(*oracle, storm[i]).ok());
    if (i % 150 == 149) {
      std::vector<UserMove> moves;
      std::vector<bool> picked(n, false);
      for (int m = 0; m < 5; ++m) {
        const NodeId u = static_cast<NodeId>(rng() % n);
        if (picked[u]) continue;
        picked[u] = true;
        moves.push_back({u, static_cast<uint32_t>(rng() % 4)});
      }
      ASSERT_TRUE(cluster->MigrateUsers(moves).ok()) << "batch at op " << i;
      ASSERT_TRUE(cluster->Validate().ok());
      for (const UserMove& mv : moves) {
        ASSERT_TRUE(cluster->QueryStream(mv.user).ok());
      }
    }
  }
  EXPECT_EQ(AllFeeds(*cluster, n), AllFeeds(*oracle, n));
}

TEST_F(RebalanceTest, DurableMigrateRecoverRoundTrip) {
  const size_t n = 160;
  Graph g = MakeFlickrLike(n, 31).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  ClusterOptions opts = DurableOpts(Dir("cluster"));
  auto storm = MakeStorm(n, 500, 37);
  auto more = MakeStorm(n, 200, 38);

  std::vector<std::vector<EventTuple>> before;
  std::vector<uint32_t> assignment;
  {
    auto cluster = ClusterService::Create(g, w, opts).MoveValueOrDie();
    for (const auto& op : storm) ASSERT_TRUE(ApplyOp(*cluster, op).ok());
    std::vector<UserMove> moves = {{cluster->shard_map().Members(0)[0], 2},
                                   {cluster->shard_map().Members(2)[0], 1},
                                   {cluster->shard_map().Members(3)[1], 0}};
    ASSERT_TRUE(cluster->MigrateUsers(moves).ok());
    // Ops *after* the migration land in the destination shards' logs.
    for (const auto& op : more) ASSERT_TRUE(ApplyOp(*cluster, op).ok());
    before = AllFeeds(*cluster, n);
    assignment = cluster->shard_map().assignment();
  }  // orderly shutdown

  RecoveryStats stats;
  auto back = ClusterService::Recover(opts, &stats).MoveValueOrDie();
  EXPECT_TRUE(back->Validate().ok());
  // The migration-commit markers were replayed (both sides of each pair).
  EXPECT_GT(stats.replayed_migration_commits, 0u);
  EXPECT_EQ(back->shard_map().assignment(), assignment);
  EXPECT_EQ(AllFeeds(*back, n), before);

  // Still serving and migrating after recovery.
  ASSERT_TRUE(
      back->MigrateUsers({{back->shard_map().Members(1)[0], 3}}).ok());
  EXPECT_TRUE(back->Validate().ok());
  EXPECT_EQ(AllFeeds(*back, n), before);
}

TEST_F(RebalanceTest, AbortedMigrationKeepsServingAndRetries) {
  // An error at the commit point aborts the batch: the cluster keeps serving
  // the old placement, the half-built generations are gone, and the same
  // batch succeeds once the fault clears.
  const size_t n = 160;
  Graph g = MakeFlickrLike(n, 41).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  ClusterOptions opts = DurableOpts(Dir("cluster"));

  std::vector<std::vector<EventTuple>> before;
  std::vector<uint32_t> assignment;
  {
    auto cluster = ClusterService::Create(g, w, opts).MoveValueOrDie();
    for (const auto& op : MakeStorm(n, 400, 43)) {
      ASSERT_TRUE(ApplyOp(*cluster, op).ok());
    }
    before = AllFeeds(*cluster, n);
    const std::vector<uint32_t> old_assignment = cluster->shard_map().assignment();
    const size_t migrations = cluster->GetMetrics().migrations;
    const std::vector<UserMove> moves = {{cluster->shard_map().Members(0)[0], 2},
                                         {cluster->shard_map().Members(1)[0], 3}};

    FailPointRegistry::Instance().Arm("migration.commit", FailPointAction::kError);
    const Status aborted = cluster->MigrateUsers(moves);
    EXPECT_TRUE(aborted.IsIOError()) << aborted.ToString();
    EXPECT_EQ(cluster->shard_map().assignment(), old_assignment);
    EXPECT_EQ(AllFeeds(*cluster, n), before);
    EXPECT_TRUE(cluster->Validate().ok());
    EXPECT_EQ(cluster->GetMetrics().migrations, migrations);
    for (const auto& entry : std::filesystem::directory_iterator(Dir("cluster"))) {
      const std::string name = entry.path().filename().string();
      EXPECT_FALSE(name.rfind("shard-", 0) == 0 && name.find(".g") != std::string::npos)
          << "aborted generation left behind: " << name;
    }

    FailPointRegistry::Instance().ClearAll();
    ASSERT_TRUE(cluster->MigrateUsers(moves).ok());
    EXPECT_EQ(cluster->GetMetrics().migrations, migrations + 1);
    EXPECT_EQ(cluster->shard_map().ShardOf(moves[0].user), 2u);
    EXPECT_EQ(cluster->shard_map().ShardOf(moves[1].user), 3u);
    EXPECT_EQ(AllFeeds(*cluster, n), before);  // feeds are placement-free
    assignment = cluster->shard_map().assignment();
  }  // orderly shutdown

  auto back = ClusterService::Recover(opts).MoveValueOrDie();
  EXPECT_TRUE(back->Validate().ok());
  EXPECT_EQ(back->shard_map().assignment(), assignment);
  EXPECT_EQ(AllFeeds(*back, n), before);
}

TEST_F(RebalanceTest, KillDuringMigrationRecoverStorm) {
  // Acceptance: randomized crashes at the migration-commit boundaries (plus
  // WAL sites for contrast). The recovered cluster must serve feeds
  // bit-identical to the acked-prefix oracle, land on exactly the old or the
  // new placement (never a mix), and keep every moved user on one shard.
  const size_t n = 140;
  Graph g = MakeFlickrLike(n, 41).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();

  struct CrashSite {
    const char* point;
    FailPointAction action;
    uint64_t skip;
  };
  std::mt19937_64 rng(43);
  std::vector<CrashSite> sites = {
      {"migration.commit", FailPointAction::kCrashHard, 1},
      {"migration.cutover", FailPointAction::kCrashHard, 1},
      {"migration.commit", FailPointAction::kCrashHard, 2},
      {"migration.cutover", FailPointAction::kCrashHard, 2},
      {"wal.append", FailPointAction::kCrashHard, 100 + rng() % 300},
      {"wal.append", FailPointAction::kCrashTornWrite, 100 + rng() % 300},
      {"wal.sync", FailPointAction::kCrashHard, 100 + rng() % 200},
  };

  for (size_t trial = 0; trial < sites.size(); ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 sites[trial].point);
    auto& fp = FailPointRegistry::Instance();
    fp.ClearAll();
    std::string trial_dir = "t";
    trial_dir += std::to_string(trial);
    ClusterOptions opts = DurableOpts(Dir(trial_dir));
    auto cluster = ClusterService::Create(g, w, opts).MoveValueOrDie();
    auto oracle = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
    const auto old_assignment = cluster->shard_map().assignment();

    auto storm = MakeStorm(n, 350, 47 + trial);
    std::vector<UserMove> moves;
    {
      std::vector<bool> picked(n, false);
      for (int m = 0; m < 6; ++m) {
        const NodeId u = static_cast<NodeId>(rng() % n);
        if (picked[u]) continue;
        picked[u] = true;
        moves.push_back({u, static_cast<uint32_t>(rng() % 4)});
      }
    }

    fp.Arm(sites[trial].point, sites[trial].action, sites[trial].skip);
    size_t applied = 0;
    bool migrated = false;
    bool crashed = false;
    for (; applied < storm.size(); ++applied) {
      Status st = ApplyOp(*cluster, storm[applied]);
      if (!st.ok()) {
        crashed = true;  // fail-stop: the process dies mid-storm
        break;
      }
      ASSERT_TRUE(ApplyOp(*oracle, storm[applied]).ok());
      if (applied == storm.size() / 2) {
        Status mig = cluster->MigrateUsers(moves);
        migrated = mig.ok();
        if (!mig.ok()) {
          crashed = true;  // crashed inside the migration protocol
          ++applied;       // the storm op itself was acked
          break;
        }
      }
    }
    cluster.reset();  // the dead process's memory is gone
    fp.ClearAll();

    RecoveryStats stats;
    auto back = ClusterService::Recover(opts, &stats).MoveValueOrDie();
    ASSERT_TRUE(back->Validate().ok());

    // Placement is all-or-nothing: the pre-migration assignment, or the
    // post-migration one — never a mix of the two.
    std::vector<uint32_t> new_assignment = old_assignment;
    for (const UserMove& mv : moves) new_assignment[mv.user] = mv.to;
    const auto& recovered = back->shard_map().assignment();
    const bool on_old = recovered == old_assignment;
    const bool on_new = recovered == new_assignment;
    EXPECT_TRUE(on_old || on_new) << "recovered placement is a mix";
    if (migrated && !crashed) {
      EXPECT_TRUE(on_new);
    }

    // Feeds are placement-independent: whatever side of the commit the crash
    // landed on, the recovered feeds must equal the acked prefix (or prefix
    // plus the one in-doubt op — durable but unacked).
    auto feeds = AllFeeds(*back, n);
    if (feeds != AllFeeds(*oracle, n)) {
      ASSERT_TRUE(crashed) << "feeds diverge with no crash";
      ASSERT_LT(applied, storm.size());
      ASSERT_TRUE(ApplyOp(*oracle, storm[applied]).ok());
      EXPECT_EQ(feeds, AllFeeds(*oracle, n))
          << "recovered feeds match neither acked prefix nor prefix+1";
    }

    // Every moved user is served from exactly one shard: its assignment's
    // shard owns it, and a share lands in exactly one feed copy.
    for (const UserMove& mv : moves) {
      const size_t len = back->QueryStream(mv.user).ValueOrDie().size();
      ASSERT_TRUE(back->Share(mv.user).ok());
      EXPECT_EQ(back->QueryStream(mv.user).ValueOrDie().size(),
                std::min(len + 1, static_cast<size_t>(10)));
    }
  }
}

TEST_F(RebalanceTest, WindowedImbalanceTracksRecentLoad) {
  const size_t n = 120;
  Graph g = MakeFlickrLike(n, 53).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
  RebalanceTrigger trigger(RebalanceTriggerOptions{});
  trigger.Observe(cluster->GetMetrics());  // baseline the window

  // All traffic on shard 0's users. Queries, not shares: a share's replica
  // writes fan work out to the follower shards, but a query's work stays on
  // the consumer's shard (push replicas are read locally) — so the windowed
  // *work* view spikes with the hammered shard.
  for (int round = 0; round < 3; ++round) {
    for (NodeId u : cluster->shard_map().Members(0)) {
      ASSERT_TRUE(cluster->QueryStream(u).ok());
    }
  }
  trigger.Observe(cluster->GetMetrics());
  const double hot = trigger.windowed_imbalance();
  EXPECT_GT(hot, 1.5);

  // Perfectly even traffic: the EMA decays back toward 1.
  for (int round = 0; round < 6; ++round) {
    for (NodeId u = 0; u < n; ++u) ASSERT_TRUE(cluster->QueryStream(u).ok());
    trigger.Observe(cluster->GetMetrics());
  }
  const double cooled = trigger.windowed_imbalance();
  EXPECT_LT(cooled, hot);
  EXPECT_LT(cooled, 1.3);

  // Idle observations do not decay the windows (cadence-robust).
  const double rate = trigger.windowed_cross_rate();
  trigger.Observe(cluster->GetMetrics());
  EXPECT_DOUBLE_EQ(trigger.windowed_imbalance(), cooled);
  EXPECT_DOUBLE_EQ(trigger.windowed_cross_rate(), rate);
}

// Reads have no side effects: GetMetrics polls between control-loop steps
// (a dashboard, a replay probe) must not change what the coordinator decides
// or how many users it moves.
TEST_F(RebalanceTest, MetricsPollsDoNotChangeTriggerVerdicts) {
  struct Outcome {
    std::vector<bool> verdicts;
    size_t users_moved = 0;
  };
  auto run = [](bool extra_polls) {
    const size_t n = 200;
    Graph g = MakeFlickrLike(n, 59).ValueOrDie();
    Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
    auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();
    RebalanceOptions opts;
    opts.trigger.imbalance_threshold = 1.3;
    opts.trigger.consecutive_windows = 2;
    opts.plan.move_budget = 16;
    opts.batch_size = 8;
    MigrationCoordinator coordinator(*cluster, opts);
    Outcome out;
    for (int step = 0; step < 12; ++step) {
      // Shard 0 runs hot in steps 5-8; every user queries otherwise.
      const bool hot = step >= 5 && step <= 8;
      for (int third = 0; third < 3; ++third) {
        for (NodeId u = 0; u < n; ++u) {
          if (hot && cluster->shard_map().ShardOf(u) != 0) continue;
          EXPECT_TRUE(cluster->QueryStream(u).ok());
        }
        if (extra_polls) (void)cluster->GetMetrics();
      }
      out.verdicts.push_back(coordinator.Step().ValueOrDie());
    }
    out.users_moved = coordinator.report().users_moved;
    return out;
  };
  const Outcome quiet = run(false);
  const Outcome polled = run(true);
  EXPECT_EQ(polled.verdicts, quiet.verdicts);
  EXPECT_EQ(polled.users_moved, quiet.users_moved);
  EXPECT_GT(quiet.users_moved, 0u);
}

TEST_F(RebalanceTest, CoordinatorMovesLoadOffHotShard) {
  const size_t n = 200;
  Graph g = MakeFlickrLike(n, 59).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  auto cluster = ClusterService::Create(g, w, MemoryOpts()).MoveValueOrDie();

  RebalanceOptions opts;
  opts.trigger.imbalance_threshold = 1.3;
  opts.trigger.consecutive_windows = 2;
  opts.plan.move_budget = 16;
  opts.batch_size = 8;
  MigrationCoordinator coordinator(*cluster, opts);

  // Hammer shard 0's users with queries (work that stays on their shard);
  // step the control loop once per "window".
  const std::vector<NodeId> hot = cluster->shard_map().Members(0);
  bool moved = false;
  for (int window = 0; window < 6 && !moved; ++window) {
    for (int r = 0; r < 3; ++r) {
      for (NodeId u : hot) ASSERT_TRUE(cluster->QueryStream(u).ok());
    }
    moved = coordinator.Step().ValueOrDie();
  }
  ASSERT_TRUE(moved);
  EXPECT_GT(coordinator.report().users_moved, 0u);
  EXPECT_LE(coordinator.report().users_moved, 16u);
  EXPECT_LT(coordinator.report().last_imbalance_after,
            coordinator.report().last_imbalance_before);
  EXPECT_TRUE(cluster->Validate().ok());
  // The moved users came off the hot shard.
  size_t still_on_0 = cluster->shard_map().Members(0).size();
  EXPECT_LT(still_on_0, hot.size());
}

}  // namespace
}  // namespace piggy
