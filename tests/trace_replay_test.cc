// Trace regression: a replay with tracing enabled must produce the expected
// control-plane event sequence for a scripted scenario — one policy replan,
// one shard failure + restart, one rebalance migration — with every typed
// event in causal order, and the per-track event sequence must match the
// checked-in reference trace (testdata/reference_trace.json).
//
// The reference compares (kind, shard) sequences per track, not timestamps:
// shard creation and migration rebuilds run on a thread pool, so cross-track
// interleaving in the ring is scheduling-dependent, but each track's own
// order is deterministic. kPlanPhase events are excluded — their count
// follows the planner's progress cadence, not the control flow under test.
//
// Regenerate the reference after an intentional event-schema change:
//   PIGGY_UPDATE_TRACE_REFERENCE=1 ./trace_replay_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_service.h"
#include "gen/presets.h"
#include "graph/graph.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "workload/workload.h"

namespace piggy {
namespace {

#ifndef PIGGY_TESTDATA_DIR
#define PIGGY_TESTDATA_DIR "testdata"
#endif

struct ScriptedRun {
  std::vector<obs::TraceEvent> events;
  uint64_t dropped = 0;
  ReplayReport report;
  ClusterMetrics metrics;
  uint64_t shard_kills = 0;
  uint64_t shard_restarts = 0;
  std::string trace_json;
};

// Drives the scripted scenario: 4 equal-rate epochs over a 2-shard durable
// cluster; epoch 1 carries enough same-shard follows to trip the every-N
// replan policy, epoch 2 scripts a kill/restart of shard 1, and the epoch-2
// close hook migrates two users from shard 0 to shard 1. Every seed is
// pinned, so the per-track control-plane event sequence is deterministic.
ScriptedRun RunScriptedReplay(const std::string& data_dir) {
  Graph g = MakeFlickrLike(240, 11).ValueOrDie();
  Workload base = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();

  obs::TraceLog trace(4096);

  ClusterOptions copts;
  copts.num_shards = 2;
  copts.shard.planner = "nosy";
  copts.shard.prototype.num_servers = 8;
  copts.shard.replan = ReplanPolicy::EveryN(4);
  copts.durability.data_dir = data_dir;
  copts.trace = &trace;
  auto cluster = ClusterService::Create(g, base, copts).MoveValueOrDie();

  // Five same-shard follow edges absent from the graph: enough churn on one
  // shard FeedService to cross the every-4 threshold exactly once.
  const ShardMap& map = cluster->shard_map();
  const NodeId follower = map.Members(0).front();
  std::vector<NodeId> producers;
  for (NodeId p : map.Members(0)) {
    if (p == follower || g.HasEdge(p, follower)) continue;
    producers.push_back(p);
    if (producers.size() == 5) break;
  }
  EXPECT_EQ(producers.size(), 5u) << "graph too dense for scripted follows";

  auto rates = std::make_shared<const Workload>(base);
  std::vector<CustomEpoch> epochs(4);
  for (CustomEpoch& e : epochs) e.workload = rates;
  for (size_t i = 0; i < producers.size(); ++i) {
    ScenarioOp op;
    op.kind = ScenarioOpKind::kFollow;
    op.user = follower;
    op.producer = producers[i];
    op.epoch = 1;
    op.time = 1.05 + 0.1 * static_cast<double>(i);
    epochs[1].churn.push_back(op);
  }
  {
    ScenarioOp fail;
    fail.kind = ScenarioOpKind::kShardFail;
    fail.user = 1;  // slot -> shard 1
    fail.epoch = 2;
    fail.time = 2.2;
    epochs[2].churn.push_back(fail);
    ScenarioOp restart;
    restart.kind = ScenarioOpKind::kShardRestart;
    restart.user = 1;
    restart.epoch = 2;
    restart.time = 2.7;
    epochs[2].churn.push_back(restart);
  }

  ScenarioOptions sopts;
  sopts.num_requests = 800;
  sopts.seed = 5;
  sopts.duration = 4.0;
  auto scenario = MakeCustomScenario(
                      {"scripted-trace", "replan + shard failure + migration"},
                      g, base, sopts, std::move(epochs))
                      .MoveValueOrDie();

  std::vector<UserMove> moves;
  for (size_t i = 1; i <= 2; ++i) {
    moves.push_back({map.Members(0)[i], /*to=*/1});
  }
  ReplayOptions ropts;
  ropts.trace = &trace;
  ropts.on_epoch_close = [&](const ReplayEpochRow& row) -> Status {
    if (row.epoch == 2) return cluster->MigrateUsers(moves);
    return Status::OK();
  };

  ScriptedRun run;
  run.report = ReplayScenario(*scenario, *cluster, ropts).MoveValueOrDie();
  EXPECT_TRUE(cluster->Validate().ok());
  run.metrics = cluster->GetMetrics();
  const obs::Counter* kills =
      cluster->registry().FindCounter("cluster.shard_kills");
  const obs::Counter* restarts =
      cluster->registry().FindCounter("cluster.shard_restarts");
  run.shard_kills = kills != nullptr ? kills->Value() : 0;
  run.shard_restarts = restarts != nullptr ? restarts->Value() : 0;
  run.events = trace.Events();
  run.dropped = trace.dropped();
  run.trace_json = trace.ToJson();
  return run;
}

// First ring index of `kind`, or -1.
int IndexOf(const std::vector<obs::TraceEvent>& events,
            obs::TraceEventKind kind) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == kind) return static_cast<int>(i);
  }
  return -1;
}

size_t CountOf(const std::vector<obs::TraceEvent>& events,
               obs::TraceEventKind kind) {
  size_t n = 0;
  for (const obs::TraceEvent& ev : events) n += ev.kind == kind ? 1 : 0;
  return n;
}

// Per-track (shard id) kind-name sequences, kPlanPhase excluded (see file
// comment).
std::map<int, std::vector<std::string>> TrackSequences(
    const std::vector<obs::TraceEvent>& events) {
  std::map<int, std::vector<std::string>> tracks;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind == obs::TraceEventKind::kPlanPhase) continue;
    tracks[ev.shard].push_back(obs::TraceEventKindName(ev.kind));
  }
  return tracks;
}

// Extracts the typed-event (kind, shard) pairs from a serialized trace. Only
// the "events" array entries carry a "kind" key, one JSON object per line.
std::map<int, std::vector<std::string>> TrackSequencesFromFile(
    const std::string& path) {
  std::map<int, std::vector<std::string>> tracks;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t kind_at = line.find("\"kind\":\"");
    if (kind_at == std::string::npos) continue;
    const size_t kind_from = kind_at + 8;
    const size_t kind_to = line.find('"', kind_from);
    const size_t shard_at = line.find("\"shard\":");
    if (kind_to == std::string::npos || shard_at == std::string::npos) continue;
    const std::string kind = line.substr(kind_from, kind_to - kind_from);
    if (kind == "plan_phase") continue;
    const int shard = std::atoi(line.c_str() + shard_at + 8);
    tracks[shard].push_back(kind);
  }
  return tracks;
}

class TraceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("piggy_trace_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(TraceReplayTest, ScriptedScenarioEventSequence) {
  ScriptedRun run = RunScriptedReplay((dir_ / "cluster").string());
  const auto& events = run.events;
  EXPECT_EQ(run.dropped, 0u);

  // The story happened: one scripted kill/restart pair, one migration of two
  // users, one policy replan on top of the two initial plans and the two
  // migration rebuilds.
  EXPECT_EQ(run.report.shard_fails, 1u);
  EXPECT_EQ(run.report.shard_restarts, 1u);
  EXPECT_EQ(run.metrics.migrations, 1u);
  EXPECT_EQ(run.metrics.migrated_users, 2u);
  EXPECT_EQ(run.shard_kills, 1u);
  EXPECT_EQ(run.shard_restarts, 1u);

  // Typed events, exact where the script pins the count.
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kEpoch), 4u);
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kShardKill), 1u);
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kShardRestart), 1u);
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kMigrationBegin), 1u);
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kMigrationEnd), 1u);
  // 2 initial plans + 1 policy replan + 2 migration rebuilds.
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kReplanStart), 5u);
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kReplanCommit), 5u);
  EXPECT_EQ(CountOf(events, obs::TraceEventKind::kScheduleSwap), 5u);
  // The restarted shard recovered from its WAL + snapshot pair.
  EXPECT_GE(CountOf(events, obs::TraceEventKind::kRecovery), 1u);
  EXPECT_GT(run.metrics.recovery.wal_records +
                run.metrics.recovery.snapshot_events,
            0u);
  // Durability rotated on the policy replan (every replan commit snapshots).
  EXPECT_GE(CountOf(events, obs::TraceEventKind::kSnapshotPublish), 1u);

  // Causal order in the ring (Events() is oldest-first): the kill precedes
  // the restart, the restart wraps a recovery, the migration begins before
  // it ends, and every replan on a track runs start -> commit -> swap.
  const int kill = IndexOf(events, obs::TraceEventKind::kShardKill);
  const int restart = IndexOf(events, obs::TraceEventKind::kShardRestart);
  const int mig_begin = IndexOf(events, obs::TraceEventKind::kMigrationBegin);
  const int mig_end = IndexOf(events, obs::TraceEventKind::kMigrationEnd);
  ASSERT_GE(kill, 0);
  ASSERT_GE(restart, 0);
  ASSERT_GE(mig_begin, 0);
  ASSERT_GE(mig_end, 0);
  EXPECT_LT(kill, restart);
  EXPECT_LT(mig_begin, mig_end);
  EXPECT_EQ(events[kill].shard, 1);
  EXPECT_EQ(events[restart].shard, 1);
  bool recovery_in_window = false;
  for (int i = kill; i <= restart; ++i) {
    recovery_in_window |= events[i].kind == obs::TraceEventKind::kRecovery;
  }
  EXPECT_TRUE(recovery_in_window);

  for (const auto& [shard, kinds] : TrackSequences(events)) {
    int open_replans = 0;
    for (const std::string& kind : kinds) {
      if (kind == "replan_start") {
        EXPECT_EQ(open_replans, 0) << "nested replan on shard " << shard;
        ++open_replans;
      } else if (kind == "replan_commit") {
        EXPECT_EQ(open_replans, 1) << "commit without start on shard " << shard;
      } else if (kind == "schedule_swap") {
        EXPECT_EQ(open_replans, 1) << "swap without start on shard " << shard;
        --open_replans;
      }
    }
    EXPECT_EQ(open_replans, 0) << "unswapped replan on shard " << shard;
  }

  // Epoch spans are recorded in epoch order on the cluster track.
  uint32_t next_epoch = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind != obs::TraceEventKind::kEpoch) continue;
    ASSERT_FALSE(ev.args.empty());
    EXPECT_EQ(ev.args[0].first, "epoch");
    EXPECT_EQ(ev.args[0].second, std::to_string(next_epoch));
    ++next_epoch;
  }
  EXPECT_EQ(next_epoch, 4u);
}

TEST_F(TraceReplayTest, MatchesCheckedInReferenceTrace) {
  const std::string reference =
      std::string(PIGGY_TESTDATA_DIR) + "/reference_trace.json";
  ScriptedRun run = RunScriptedReplay((dir_ / "cluster").string());

  if (std::getenv("PIGGY_UPDATE_TRACE_REFERENCE") != nullptr) {
    std::ofstream out(reference, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << reference;
    out << run.trace_json;
    return;
  }

  ASSERT_TRUE(std::filesystem::exists(reference))
      << reference
      << " missing; regenerate with PIGGY_UPDATE_TRACE_REFERENCE=1";
  const auto expected = TrackSequencesFromFile(reference);
  const auto actual = TrackSequences(run.events);
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [shard, kinds] : expected) {
    ASSERT_TRUE(actual.count(shard) != 0) << "track " << shard << " missing";
    EXPECT_EQ(actual.at(shard), kinds)
        << "event sequence drifted on track " << shard;
  }
}

TEST_F(TraceReplayTest, RunReportRendersTheStory) {
  ScriptedRun run = RunScriptedReplay((dir_ / "cluster").string());
  const std::string report = obs::RenderRunReport(run.events, run.dropped);
  for (const char* needle :
       {"replan_commit", "shard_kill", "shard_restart", "migration_begin",
        "migration_end", "epoch"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace piggy
