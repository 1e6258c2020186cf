// FeedService: the production-style facade over the whole piggybacking
// pipeline.
//
// Owns everything a serving deployment needs — the evolving social graph, the
// request schedule produced by a registry planner, the Prototype serving
// plane (partitioned view fleet + Algorithm-3 client + audit oracle), and the
// IncrementalMaintainer that keeps the schedule Theorem-1 valid under churn —
// behind an online API:
//
//   auto service = FeedService::Create(graph, options).MoveValueOrDie();
//   service->Share(user);                   // write path
//   auto feed = service->QueryStream(user); // read path (optionally audited)
//   service->Follow(alice, bob);            // churn; schedule repaired locally
//   service->Replan();                      // full re-optimization, any time
//   auto m = service->GetMetrics();         // cost + serving counters
//
// Lifecycle under churn: Follow/Unfollow apply the paper's Sec.-3.3 local
// rules immediately (the schedule never goes invalid), and the serving plane
// (whose per-user view lists are materialized from the schedule) is rebuilt
// lazily before the next Share/Query — stored events survive rebuilds via
// Prototype::RestoreEvents. Accumulated churn degrades schedule *quality*,
// never validity; FeedServiceOptions::replan picks the re-optimization
// policy: never (explicit Replan() only), every N churn ops (the blind
// counter), or drift-triggered — a rate-drift estimator watches served
// traffic and replans with re-estimated rates once the schedule's cost
// advantage erodes (see scenario/drift.h). Scenario code never reaches into
// Prototype internals.
//
// ## Threading model
//
// Share / QueryStream / GetMetrics / Validate take a reader (shared) lock and
// run concurrently from any number of client threads — the plane underneath
// (fleet, client, audit log) is internally synchronized. Follow / Unfollow /
// Replan take the writer (exclusive) lock; churn is a brief local repair, so
// writers never stall readers for long.
//
// With `background_replan` set (or via StartBackgroundReplan), policy-
// triggered planner runs move to a dedicated thread: it snapshots the graph +
// workload under the lock, plans against the frozen snapshot *outside* any
// lock (anytime-safe: PlanContext cancellation cuts it short on shutdown),
// pre-builds the replacement serving plane off-thread, and publishes
// schedule + plane in one brief exclusive section. Follow/Unfollow that
// raced the plan are journaled and re-applied to the fresh schedule through
// the Sec-3.3 local repair at publish time; shares that raced are replayed
// into the pre-built plane by a log diff. Serving threads only ever block
// for the swap, never for the planner.
//
// Durable snapshots follow the same split. The request that crosses
// `snapshot_every` takes the exclusive lock only for the cut (WAL rotation
// plus a capture that shares the event log's sealed segments and a cached
// schedule text); a per-service writer thread encodes and writes the file
// with no lock held, one publish in flight at a time. Control-plane
// snapshots (create, replan, migration) publish before their call returns.
// Lock order: mu_ -> prototype log -> durability; the writer never takes
// mu_.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "durability/durable_state.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/drift.h"
#include "store/prototype.h"
#include "store/view_store.h"
#include "util/status.h"
#include "util/timer.h"
#include "workload/workload.h"

namespace piggy {

/// \brief FeedService configuration.
struct FeedServiceOptions {
  /// Registry name of the planner computing (and re-computing) the schedule.
  std::string planner = "nosy";
  /// Thread budget / deadline / cancellation / progress for every plan run.
  PlanContext plan_context;
  /// Serving-plane sizing (fleet, feed size, view capacity, calibration).
  PrototypeOptions prototype;
  /// Workload synthesis knobs, used by the Create overload without an
  /// explicit workload.
  WorkloadOptions workload;
  /// When to re-run the planner: never (default), every N churn ops, or
  /// drift-triggered with rates re-estimated from observed traffic (see
  /// scenario/drift.h).
  ReplanPolicy replan;
  /// Run policy-triggered replans (every-N / drift) on a background thread
  /// that plans against a frozen snapshot and atomically swaps the result
  /// in, instead of planning inline on the serving thread.
  bool background_replan = false;
  /// Audit every Nth query against the event-log oracle (0 = no audits).
  size_t audit_every = 0;
  /// WAL + snapshot persistence (disabled unless data_dir is set). Every
  /// acked Share/Follow/Unfollow/rate-shift is WAL-framed before the ack;
  /// snapshots rotate per `snapshot_every` and at every replan commit.
  DurabilityOptions durability;
  /// Control-plane event sink (replan/swap/rotation/recovery events). Not
  /// owned; may be null. Shard-scoped events carry `trace_shard` so one ring
  /// shared by a cluster keeps every shard's events on its own track.
  obs::TraceLog* trace = nullptr;
  int32_t trace_shard = -1;
};

/// \brief A running feed-serving deployment.
class FeedService {
 public:
  /// Plans an initial schedule for `graph` with the configured planner and
  /// builds the serving plane. The graph is copied into an internal dynamic
  /// graph; the caller's instance is not referenced afterwards.
  static Result<std::unique_ptr<FeedService>> Create(
      const Graph& graph, const FeedServiceOptions& options);

  /// Same, with explicit per-user rates (must cover every node).
  static Result<std::unique_ptr<FeedService>> Create(
      const Graph& graph, Workload workload, const FeedServiceOptions& options);

  /// Rebuilds a service from `options.durability.data_dir`: loads the newest
  /// valid snapshot (graph delta + rates + schedule + event log), then
  /// replays the WAL tail through the normal Share/Follow/Unfollow paths —
  /// no planner run unless the WAL says one committed. A torn final record
  /// (crash mid-append) is dropped; everything acked before it survives.
  /// On success the service is live and appending to the recovered WAL.
  static Result<std::unique_ptr<FeedService>> Recover(
      const FeedServiceOptions& options, RecoveryStats* stats = nullptr);

  ~FeedService();

  /// User u shares an event. Thread-safe.
  Status Share(NodeId u);

  /// Shares with an externally assigned global sequence number (used as both
  /// event id and timestamp) — the cluster's cross-shard ordering. Thread-
  /// safe.
  Status Share(NodeId u, uint64_t seq);

  /// Assembles u's event stream; audited against the oracle every
  /// options.audit_every queries. Thread-safe.
  Result<std::vector<EventTuple>> QueryStream(NodeId u);

  /// `follower` starts following `producer` (graph edge producer ->
  /// follower). The new edge is served directly at the cheaper side
  /// immediately; OK if already following. Thread-safe (exclusive).
  Status Follow(NodeId follower, NodeId producer);

  /// `follower` stops following `producer`. Hub covers that piggybacked on
  /// the removed edge are re-served directly; OK if not following. Thread-
  /// safe (exclusive).
  Status Unfollow(NodeId follower, NodeId producer);

  /// Updates u's workload rates (durably logged as a rate-shift record).
  /// Thread-safe (exclusive).
  Status SetUserRates(NodeId u, double production, double consumption);

  /// Appends a migration-commit marker to this shard's WAL (no-op without
  /// durability). ClusterService::MigrateUsers writes it to both sides of a
  /// user migration right before the assignment cutover; on recovery the
  /// marker replays as a no-op. Thread-safe.
  Status LogMigrationCommit();

  /// Re-runs the configured planner on the current graph and swaps the fresh
  /// schedule in (stored events are preserved). Synchronous: plans inline
  /// holding the exclusive lock (stop-the-world; the explicit API).
  Status Replan();

  /// Posts one planner run to the background replanner (spawning it on first
  /// use) and returns immediately; serving proceeds while it plans. The
  /// result is swapped in atomically, with raced churn repaired. No-op if a
  /// background run is already queued or in flight.
  Status StartBackgroundReplan();

  /// Blocks until no background replan is queued or running; returns the
  /// status of the last completed background run (OK if none ever ran).
  Status WaitForBackgroundReplan();

  /// \brief Cost + serving counters, aggregated across serving-plane
  /// rebuilds.
  struct Metrics {
    std::string planner;          ///< registry name of the planning policy
    double schedule_cost = 0;     ///< current schedule cost on current graph
    double hybrid_cost = 0;       ///< FF baseline cost on current graph
    size_t replans = 0;           ///< full planner runs (incl. the initial)
    size_t background_replans = 0;  ///< replans run on the background thread
    size_t drift_replans = 0;     ///< replans triggered by the drift policy
    double drift_score = 0;       ///< last drift evaluation (0 = no drift)
    size_t repairs = 0;           ///< hub covers re-served due to unfollows
    size_t churn_ops = 0;         ///< Follow/Unfollow ops applied
    size_t serving_rebuilds = 0;  ///< lazy serving-plane reconstructions
    uint64_t shares = 0;
    uint64_t queries = 0;
    uint64_t audited_queries = 0;
    double messages_per_request = 0;
    size_t interest_bytes = 0;     ///< resident keep-set bytes (AppClient)
    double interest_bytes_per_edge = 0;  ///< interest_bytes / graph edges

    std::string ToString() const;
  };
  Metrics GetMetrics() const;

  /// Re-checks the Theorem-1 validity of the current schedule against the
  /// current graph (the maintainer guarantees it; tests assert it).
  Status Validate() const;

  /// Per-service metrics: request-latency histograms (feed.share_us /
  /// feed.query_us / feed.follow_us / feed.unfollow_us), replan wall timings,
  /// durability timings, and recovery counters. The reference is stable for
  /// the service's lifetime and safe to read from any thread.
  obs::MetricsRegistry& registry() const { return registry_; }

  /// (schedule cost, hybrid-baseline cost) of the current schedule/topology
  /// under externally supplied rates, computed under the service lock — the
  /// thread-safe spelling of ScheduleCost(graph(), truth, schedule()), which
  /// would race a concurrent schedule swap. Thread-safe.
  std::pair<double, double> CostsUnder(const Workload& truth) const;

  const DynamicGraph& graph() const { return graph_; }
  const Workload& workload() const { return workload_; }

  /// Copy of the current workload taken under the lock — the reference above
  /// is unsafe while a drift replan may re-estimate rates concurrently.
  Workload WorkloadSnapshot() const;
  const Schedule& schedule() const { return schedule_; }
  const FeedServiceOptions& options() const { return options_; }

  /// The serving plane, rebuilt first if churn left it stale. Exposed for
  /// measurement code (benches) that inspects per-server load. NOT safe
  /// against concurrent churn/replans — the pointer is invalidated by the
  /// next rebuild; single-threaded measurement use only.
  Result<Prototype*> ServingPlane();

  /// Events trimmed from serving views since the last plane rebuild (caps
  /// provable audit completeness, see Prototype::AuditStream). Thread-safe.
  Result<uint64_t> TrimmedEvents();

  /// Blocks until no background snapshot publish is in flight; returns the
  /// status of the last one to finish (OK if none ran). Thread-safe.
  Status WaitForSnapshotPublish();

 private:
  FeedService(const Graph& graph, Workload workload, FeedServiceOptions options);

  /// One journaled Follow/Unfollow that raced an in-flight background plan.
  struct ChurnRecord {
    bool added = false;
    NodeId producer = 0;
    NodeId consumer = 0;
  };

  /// Upgrades to the exclusive lock and rebuilds the serving plane if churn
  /// or a replan left it stale. On return the shared lock is held again and
  /// prototype_ is fresh; on error the shared lock is released.
  Status EnsureServing(std::shared_lock<std::shared_mutex>& lock);

  /// Rebuilds the Prototype around the current graph + schedule, replaying
  /// the stored event log — or `seed` when there is no plane yet to take a
  /// log from (Recover's snapshot events). No-op when the plane is fresh.
  /// Requires mu_ held exclusively.
  Status RefreshServingLocked(const std::vector<EventTuple>& seed = {});

  /// Plans inline against the current graph and commits the result.
  /// Requires mu_ held exclusively.
  Status ReplanLocked();

  /// "background", or "inline" / "replay" for a plan on the calling thread:
  /// the mode the replan trace events carry.
  const char* PlanMode(bool background) const;

  /// One run of the configured planner over a frozen graph, with the
  /// replan_start event and its plan:* phase spans traced. A background run
  /// is cancelled by shutdown.
  Result<PlanResult> RunPlanner(const Graph& graph, const Workload& workload,
                                bool background) const;

  /// Swaps `plan` in as the live schedule and commits it: support indexes,
  /// drift baseline, counters, the replan_commit/schedule_swap trace pair,
  /// and (outside WAL replay) the durable commit record plus a snapshot. A
  /// background commit first re-applies the churn journaled while it
  /// planned; an inline one drops the journal of the background plan it
  /// supersedes. Leaves the plane marked stale. Requires mu_ held
  /// exclusively.
  Status CommitPlanLocked(PlanResult plan, bool background, double trace_start,
                          const WallTimer& replan_timer);

  /// The background replanner body: snapshot under the lock, plan + pre-
  /// build the plane outside it, publish + repair raced churn under it.
  Status BackgroundReplanOnce(bool refresh_workload);
  void ReplanThreadMain();
  /// Queues a background run; spawns the thread on first use. `refresh`
  /// re-estimates the workload from the drift estimator before planning.
  Status RequestBackgroundReplan(bool refresh);

  /// Both Share overloads: `assigned` is the caller's sequence number, or
  /// empty to draw the plane's next one.
  Status ShareWithSeq(NodeId u, std::optional<uint64_t> assigned);

  /// Folds the live client counters into the accumulated totals (called
  /// before the serving plane is torn down). Requires mu_ held exclusively.
  void AccumulateClientMetrics();

  /// Churn bookkeeping + replan policy. Requires mu_ held exclusively.
  Status ApplyChurnLocked(Status churn_result, bool added, NodeId producer,
                          NodeId consumer);

  /// The live state a snapshot holds (rates, schedule text, event log),
  /// sharing the event log's segments and the cached schedule text.
  /// Requires mu_ held exclusively.
  SnapshotData CaptureSnapshotLocked();

  /// Cuts and publishes a snapshot before returning (control-plane
  /// snapshots); an in-flight background publish lands first. Requires mu_
  /// held exclusively. No-op without durability.
  Status WriteSnapshotLocked();

  /// Snapshot-by-record-count trigger, called after acked writes with no
  /// lock held: one atomic load unless the threshold is crossed, then the
  /// cut under the exclusive lock and the publish on the writer thread. A
  /// crossing while a publish is in flight is left to the first request
  /// after it lands.
  Status MaybeSnapshot();

  /// Drift-mode bookkeeping for one served request, and — when an
  /// observation window completes — the drift evaluation: if the schedule
  /// lost more than the configured fraction of its cost advantage under the
  /// estimated rates and current topology, the workload is re-estimated from
  /// observations and the planner re-run (inline or in the background per
  /// options). Called WITHOUT mu_ held. No-op outside ReplanMode::kDrift.
  Status ObserveRequest(bool is_share, NodeId u);

  FeedServiceOptions options_;

  // Observability. The registry is owned here; the latency histograms are
  // registered once in the constructor and recorded through cached pointers
  // on the serving path (one striped relaxed atomic per op). Mutable:
  // recording from const read paths is not logical state mutation.
  mutable obs::MetricsRegistry registry_;
  obs::Histogram* share_us_ = nullptr;
  obs::Histogram* query_us_ = nullptr;
  obs::Histogram* follow_us_ = nullptr;
  obs::Histogram* unfollow_us_ = nullptr;
  obs::Histogram* replan_us_ = nullptr;
  obs::Counter* replans_ = nullptr;             // "feed.replans"
  obs::Counter* background_replans_ = nullptr;  // "feed.background_replans"

  // WAL + snapshot pair (null when durability is disabled). Appends are
  // internally serialized; rotation happens under mu_ exclusive only.
  std::unique_ptr<ShardDurability> durability_;
  // True while Recover() replays the WAL through the public API: durable
  // logging is suppressed (the records are already on disk), replan policies
  // are inert (replans come from kReplanCommit records, at their logged
  // positions), and snapshot triggers don't fire. Plain bool: recovery is
  // single-threaded by construction.
  bool replaying_ = false;

  // Background snapshot writer: at most one publish in flight. publisher_
  // is started and joined under mu_ exclusive; publish_mu_ guards
  // publish_status_ and pairs with publish_cv_ for WaitForSnapshotPublish.
  std::atomic<bool> publish_in_flight_{false};
  std::mutex publish_mu_;
  std::condition_variable publish_cv_;
  Status publish_status_;
  std::thread publisher_;

  // Serving state, guarded by mu_: readers (Share/QueryStream/metrics) take
  // it shared, churn/replans/rebuilds take it exclusive.
  mutable std::shared_mutex mu_;
  DynamicGraph graph_;
  Workload workload_;
  Schedule schedule_;
  // SerializeSchedule(schedule_), built at the first cut after the schedule
  // last changed (replan swap or churn repair reset it to null).
  std::shared_ptr<const std::string> schedule_text_;
  std::unique_ptr<IncrementalMaintainer> maintainer_;

  // Serving plane: a CSR snapshot of graph_ plus the prototype bound to it.
  // serving_dirty_ means graph_/schedule_ moved on and both must be rebuilt
  // before the next request. Heap-held so a pre-built replacement can be
  // swapped in (prototype_ borrows *snapshot_).
  std::unique_ptr<Graph> snapshot_;
  std::unique_ptr<Prototype> prototype_;
  bool serving_dirty_ = false;

  // Follow/Unfollow that raced an in-flight background plan (guarded by mu_;
  // journal_active_ is set while a plan is in flight).
  std::vector<ChurnRecord> churn_journal_;
  bool journal_active_ = false;
  // Bumped on every schedule swap; an in-flight background plan that lost a
  // publish race (e.g. to an explicit Replan) is discarded.
  size_t plan_epoch_ = 0;

  // Drift-triggered replanning (ReplanMode::kDrift only).
  std::unique_ptr<RateDriftEstimator> estimator_;
  double plan_advantage_ = 1.0;  ///< hybrid/schedule cost ratio at plan time
  size_t edges_at_plan_ = 0;     ///< structural-drift denominator
  std::atomic<size_t> drift_replans_{0};
  std::atomic<double> last_drift_score_{0};

  // Counters that survive serving-plane rebuilds. Guarded by mu_ unless
  // atomic (the atomics are bumped on the shared-lock serving path).
  ClientMetrics accumulated_;
  size_t churn_ops_ = 0;
  size_t churn_since_plan_ = 0;
  size_t serving_rebuilds_ = 0;
  std::atomic<uint64_t> audited_queries_{0};
  std::atomic<uint64_t> queries_since_audit_{0};

  // Background replanner: one thread, spawned lazily, condition-triggered.
  std::mutex replan_mu_;
  std::condition_variable replan_cv_;
  bool replan_requested_ = false;
  bool replan_refresh_workload_ = false;
  bool replan_running_ = false;
  bool replan_shutdown_ = false;
  Status background_status_;
  std::atomic<bool> replan_cancel_{false};
  std::thread replan_thread_;
};

}  // namespace piggy
