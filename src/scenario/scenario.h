// Scenario engine: time-varying workloads and topology churn over a
// simulated clock.
//
// The paper plans a static schedule from a fixed rate profile, but its own
// Sec. 3.3 motivates maintenance under change: real deployments see diurnal
// cycles, flash crowds around hot producers, celebrity accounts accreting
// followers in hours, and follow-back storms. A Scenario turns one of those
// stories into a deterministic, time-ordered op stream — shares, feed
// queries, follows/unfollows, and rate-shift markers — that the replay driver
// (scenario/replay.h) feeds through FeedService or ClusterService, so
// replanning policies can be measured under traffic that actually moves.
//
//   auto scenario = MakeScenario("flash-crowd", graph, options).MoveValueOrDie();
//   ScenarioOp op;
//   while (scenario->Next(&op)) { ... }           // time-ordered stream
//
// Simulated time runs over [0, options.duration), split into options.epochs
// equal epochs; each epoch has ground-truth per-user rates (EpochWorkload)
// and the request mix inside it is sampled as the paper's cost model
// assumes — a request is a share with probability R_p / (R_p + R_c) under
// the epoch's rates, actors drawn from per-user alias tables. The request
// count per epoch is proportional to the epoch's total rate, so bursts emit
// denser traffic. Streams are bit-deterministic given (graph, base workload,
// options): Reset() + re-emission reproduces the stream, and a "stationary"
// request sequence does not depend on the epoch count.
//
// Registered names (see RegisteredScenarios() for one-line descriptions):
//   "stationary"     fixed rates, no churn (the paper's evaluation regime)
//   "diurnal"        three phase-shifted regional cohorts on a sinusoid
//   "flash-crowd"    hub producers + their followers spike, then decay
//   "celebrity-join" one account gains followers fast while its rate ramps
//   "follow-storm"   follow-back wave + engagement shift, partial regret
//   "regional-event" one region's rates spike; outsiders follow into it
//   "shard-failure"  stationary traffic with scripted shard fail/restart
//                    windows (cluster replays only; see replay.h)

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/logging.h"
#include "util/status.h"
#include "workload/workload.h"

namespace piggy {

/// \brief Simulated time axis: monotone, in abstract seconds.
class SimClock {
 public:
  double now() const { return now_; }

  /// Advances to `t`; time never runs backwards.
  void AdvanceTo(double t) {
    PIGGY_CHECK_GE(t, now_);
    now_ = t;
  }

  void Reset() { now_ = 0; }

 private:
  double now_ = 0;
};

/// \brief One event of a scenario stream.
enum class ScenarioOpKind : uint8_t {
  kShare,         ///< `user` shares an event
  kQuery,         ///< `user` reads their feed
  kFollow,        ///< `user` starts following `producer`
  kUnfollow,      ///< `user` stops following `producer`
  kRateShift,     ///< ground-truth rates changed (epoch `epoch` opens)
  kShardFail,     ///< serving shard `user` (a slot, not a node) goes down
  kShardRestart,  ///< serving shard `user` recovers from durable state
};

const char* ToString(ScenarioOpKind kind);

struct ScenarioOp {
  double time = 0;     ///< simulated seconds since scenario start
  ScenarioOpKind kind = ScenarioOpKind::kShare;
  /// Acting user (share/query), follower (follow ops), or the shard slot for
  /// shard events (the replay driver maps slots onto live shards modulo the
  /// cluster's shard count, so scenarios stay topology-agnostic).
  NodeId user = 0;
  NodeId producer = 0; ///< followed producer (follow/unfollow only)
  uint32_t epoch = 0;  ///< epoch this op belongs to

  std::string ToString() const;
};

/// \brief Scenario synthesis knobs. Factories interpret `intensity` and
/// `churn_level` per scenario; defaults give each story a pronounced but
/// plausible shape at bench scale.
struct ScenarioOptions {
  /// Share + query ops emitted across the whole run (churn ops are extra).
  size_t num_requests = 100000;
  /// Seeds both the request sampler (Rng(seed)) and the independent
  /// churn-placement generator.
  uint64_t seed = 7;
  /// Simulated length of the run, in abstract seconds.
  double duration = 86400.0;
  /// Rate-evolution granularity: the run is split into this many equal
  /// epochs, each with its own ground-truth workload.
  size_t epochs = 16;
  /// Magnitude of the scenario's rate excursion (x the base rate at peak).
  double intensity = 8.0;
  /// Scales the number of follow/unfollow ops (1 = the scenario's default).
  double churn_level = 1.0;
};

/// \brief Registry metadata for one scenario family.
struct ScenarioInfo {
  std::string name;         ///< registry key
  std::string description;  ///< one line, shown by `piggy_tool scenarios`
};

/// \brief A deterministic, time-ordered op stream over an evolving workload.
///
/// Instances are single-threaded stateful emitters; Reset() rewinds to the
/// first op and reproduces the stream bit-for-bit.
class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual const ScenarioInfo& info() const = 0;
  const std::string& name() const { return info().name; }

  /// The topology the scenario starts from (churn evolves a copy; the serving
  /// system under test owns the live graph).
  virtual const Graph& graph() const = 0;

  /// Rates in effect at epoch 0.
  virtual const Workload& base_workload() const = 0;

  virtual size_t num_epochs() const = 0;
  virtual double duration() const = 0;
  double EpochStart(size_t epoch) const {
    PIGGY_CHECK_LT(epoch, num_epochs());
    return duration() * static_cast<double>(epoch) /
           static_cast<double>(num_epochs());
  }

  /// Ground-truth per-user rates during `epoch` (what an omniscient planner
  /// would plan for; the system under test only sees the op stream).
  virtual const Workload& EpochWorkload(size_t epoch) const = 0;

  /// Emits the next op in time order. Returns false when the stream is
  /// exhausted.
  virtual bool Next(ScenarioOp* op) = 0;

  /// Rewinds the stream to the beginning (bit-identical re-emission).
  virtual void Reset() = 0;
};

/// Instantiates a registered scenario by name over `graph` with explicit base
/// rates (must cover every node). Unknown names return InvalidArgument
/// listing the valid options, mirroring MakePlanner / MakePartitioner.
Result<std::unique_ptr<Scenario>> MakeScenario(std::string_view name,
                                               const Graph& graph,
                                               Workload base_workload,
                                               const ScenarioOptions& options = {});

/// Same, synthesizing the base workload from graph structure
/// (GenerateWorkload with the paper's reference knobs + a small rate floor).
Result<std::unique_ptr<Scenario>> MakeScenario(std::string_view name,
                                               const Graph& graph,
                                               const ScenarioOptions& options = {});

/// \brief One epoch of a custom scenario: ground-truth rates plus scripted
/// churn ops. Share the same workload pointer across consecutive epochs to
/// suppress the rate-shift marker between them.
struct CustomEpoch {
  /// Rates in effect (must cover every graph node). An all-zero workload is
  /// legal: the epoch emits no requests.
  std::shared_ptr<const Workload> workload;
  /// Follow/unfollow/shard-fail/shard-restart ops, sorted ascending by time,
  /// with `time` inside the epoch's interval and `epoch` set to the epoch's
  /// index.
  std::vector<ScenarioOp> churn;
};

/// Builds a scenario from explicit per-epoch specs (epochs.size() overrides
/// options.epochs). This is the engine behind every registered family;
/// exposed so tests can script exact rate trajectories — e.g. a mid-run rate
/// shift to zero — while keeping the uniform request-sampling and emission
/// semantics.
Result<std::unique_ptr<Scenario>> MakeCustomScenario(
    ScenarioInfo info, const Graph& graph, Workload base_workload,
    const ScenarioOptions& options, std::vector<CustomEpoch> epochs);

/// All registered scenarios (a constant table), sorted by name.
std::vector<ScenarioInfo> RegisteredScenarios();

}  // namespace piggy
