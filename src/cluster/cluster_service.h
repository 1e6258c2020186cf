// ClusterService: a sharded serving cluster behind the FeedService surface.
//
// The paper's prototype serves feeds from a fleet of data-store servers where
// placement shapes throughput (Sec. 4.3, Figs. 7-8). ClusterService takes the
// next step: the social graph itself is partitioned across N shards by a
// pluggable Partitioner ("hash" or the graph-aware "edge-cut"), every shard
// runs a full shard-local FeedService — planned by the registry planner on
// the shard-induced subgraph, all shards planned in parallel — and a router
// presents the single-deployment API:
//
//   auto cluster = ClusterService::Create(graph, options).MoveValueOrDie();
//   cluster->Share(user);                   // routed to the user's shard
//   auto feed = cluster->QueryStream(user); // merged local + cross-shard
//   cluster->Follow(a, b);                  // intra- or cross-shard churn
//   cluster->Replan();                      // all shards replan in parallel
//   auto m = cluster->GetMetrics();         // per-shard load + cross traffic
//
// Cross-shard edges are served by the router (see cluster/cross_shard.h):
// pushes materialize the producer's events into the consumer's shard (one
// replica per shard, one batched update message per touched shard), pulls fan
// out one batched query message per touched shard — the paper's
// one-message-per-server batching rule lifted to shard granularity. A 1-shard
// cluster degenerates to exactly one FeedService with no router overhead:
// schedules and query results are bit-identical to the single-process
// deployment (cluster_test proves it).
//
// Feeds stay audit-exact under churn: the router merges by global share
// order, and QueryStream can audit the merged stream against a cluster-wide
// oracle over the full dynamic graph, every audit_every-th query.
//
// ## Threading model
//
// The router mirrors FeedService's reader/writer split. Share / QueryStream /
// GetMetrics / Validate take the cluster lock shared and run concurrently
// from any number of client threads; Follow / Unfollow / Replan take it
// exclusive. Per-producer mutable state — the global share history and the
// push replicas, both slots of one seqlocked SeqSlots store — is written
// under a small array of stripe mutexes hashed by producer id, so concurrent
// shares only contend when they touch the same producer, and queries read
// it with no lock at all. Global share order comes from an atomic sequence
// counter; a thread that drew an earlier number but reached its stripe later
// is re-ordered by sorted-from-tail inserts (histories, replicas, and the
// shard planes all tolerate out-of-order arrival). Cluster-level audits
// capture a quiescence token before the query — completeness is checked only
// when no share overlapped the merged read, soundness always — and each
// shard-local FeedService is itself fully thread-safe, including its
// background replanner (options.shard.background_replan + the cluster's
// StartBackgroundReplan / WaitForBackgroundReplan fan the per-shard
// replanners out so drift replans never block serving).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cross_shard.h"
#include "cluster/seq_slots.h"
#include "cluster/shard_map.h"
#include "durability/durable_state.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/feed_service.h"
#include "store/partitioner.h"
#include "store/view_store.h"
#include "util/status.h"
#include "workload/workload.h"

namespace piggy {

/// \brief ClusterService configuration.
struct ClusterOptions {
  /// Number of serving shards.
  size_t num_shards = 1;
  /// Registry name of the placement policy (see RegisteredPartitioners()).
  std::string partitioner = "hash";
  /// Salt for the hash policy (ignored by graph-aware partitioners).
  uint64_t partition_salt = kDefaultPartitionSalt;
  /// Per-shard FeedService configuration: planner, PlanContext, serving-plane
  /// sizing, shard-local audits and the replan policy — shard.replan set to
  /// ReplanPolicy::Drift gives every shard its own traffic-drift estimator,
  /// so replan decisions are per shard (a shard hit by a flash crowd replans;
  /// quiet shards keep their schedules). When shards are planned in
  /// parallel and plan_context.num_threads is 0 (auto), each shard planner
  /// runs single-threaded — the cluster already parallelizes across shards.
  FeedServiceOptions shard;
  /// Audit every Nth merged stream against the cluster-wide oracle (0 = no
  /// cluster-level audits; shard-local audits are configured in shard).
  size_t audit_every = 0;
  /// Cluster-wide persistence root (empty = memory-only, the default). When
  /// set, every shard keeps its own WAL + snapshot pair under
  /// <data_dir>/shard-NNNN and the router keeps a cluster-level pair under
  /// <data_dir>/cluster — churn + rate shifts over the full graph, plus the
  /// frozen node -> shard assignment — so a crashed cluster rebuilds
  /// bit-identically via Recover(). Flush/snapshot knobs apply to the shard
  /// pairs and the cluster pair alike; any durability configured inside
  /// `shard` is overridden (shards must not share a directory).
  DurabilityOptions durability;
  /// Structured trace sink (not owned; null disables tracing). The cluster
  /// emits shard kill/restart, migration batch, and recovery events here and
  /// hands the same log to every shard FeedService (stamped with its shard
  /// id), so one ring holds the causally ordered cluster-wide story.
  obs::TraceLog* trace = nullptr;
};

/// \brief Cluster-wide cost + traffic counters.
struct ClusterMetrics {
  size_t shards = 0;
  std::string partitioner;  ///< placement policy name
  std::string planner;      ///< registry planner name (canonicalized)
  double intra_cost = 0;    ///< sum of shard schedule costs
  double cross_cost = 0;    ///< predicted batched cross-shard cost
  double total_cost = 0;    ///< intra + cross
  size_t cross_edges = 0;   ///< edges currently crossing shards
  size_t replicas = 0;      ///< (producer, shard) replicas materialized
  size_t replans = 0;       ///< planner runs summed over shards
  size_t drift_replans = 0; ///< shard-local drift-triggered replans (summed)
  double max_drift_score = 0;  ///< worst current shard drift estimate
  size_t repairs = 0;       ///< Sec.-3.3 repairs summed over shards
  size_t churn_ops = 0;     ///< cluster Follow/Unfollow ops applied
  uint64_t shares = 0;
  uint64_t queries = 0;
  uint64_t audited_queries = 0;         ///< cluster-level merged-stream audits
  uint64_t cross_update_messages = 0;   ///< remote-push fan-out + backfills
  uint64_t cross_query_messages = 0;    ///< remote-pull fan-out
  size_t interest_bytes = 0;    ///< resident keep-set bytes (shard sum)
  double interest_bytes_per_edge = 0;  ///< interest_bytes / cluster edges
  std::vector<uint64_t> per_shard_requests;  ///< requests routed per shard
  double imbalance = 0;  ///< max/mean of per_shard_requests (1 = even)
  /// Work actually landing on each shard: routed requests, plus the batched
  /// cross-shard messages it received (replica updates written into it, pull
  /// batches it served), plus the fan-out batches its own producers sent. A
  /// producer whose followers pull from across the cluster loads its *own*
  /// shard with every remote query — per-shard requests alone would miss
  /// that.
  std::vector<uint64_t> per_shard_work;
  /// Batched fan-out messages sent by each shard's producers (lifetime): where
  /// the cross-shard update traffic originates.
  std::vector<uint64_t> per_shard_sends;
  std::vector<size_t> per_shard_replicas;  ///< replicas hosted per shard
  std::vector<uint64_t> per_shard_cross_updates;  ///< cross msgs into shard
  std::vector<uint64_t> per_shard_cross_queries;  ///< cross pulls from shard
  size_t migrations = 0;      ///< completed MigrateUsers batches
  size_t migrated_users = 0;  ///< users moved across shards (lifetime)
  double messages_per_request = 0;  ///< shard-local + cross messages
  /// Accumulated recovery work: the initial Recover() plus every
  /// RestartShard() since (zeroed for a Create()'d cluster).
  RecoveryStats recovery;

  std::string ToString() const;
};

/// \brief One user relocation inside a MigrateUsers batch.
struct UserMove {
  NodeId user = 0;
  uint32_t to = 0;  ///< destination shard
};

/// \brief A running sharded deployment.
class ClusterService {
 public:
  /// Partitions `graph`, plans every shard in parallel with the configured
  /// registry planner, and builds the shard-local serving planes. The
  /// workload is synthesized once from the full graph (options.shard.workload
  /// knobs) and projected per shard, so rates — and the cross-edge push/pull
  /// decisions — are placement-independent.
  static Result<std::unique_ptr<ClusterService>> Create(
      const Graph& graph, const ClusterOptions& options);

  /// Same, with explicit per-user rates (must cover every node).
  static Result<std::unique_ptr<ClusterService>> Create(
      const Graph& graph, Workload workload, const ClusterOptions& options);

  /// Rebuilds a cluster from `options.durability.data_dir`: reloads the
  /// persisted node -> shard assignment, recovers every shard-local
  /// FeedService in parallel from its own WAL + snapshot pair, reconstructs
  /// the router (share histories and the global sequence counter from the
  /// recovered shard event logs, the cross-shard index from the recovered
  /// graph), then replays the cluster WAL tail — churn and rate shifts —
  /// through the normal routing paths. On success the cluster is live and
  /// appending again.
  static Result<std::unique_ptr<ClusterService>> Recover(
      const ClusterOptions& options, RecoveryStats* stats = nullptr);

  /// User u shares an event: served by u's shard (under the global sequence
  /// number, so merged feeds order by cluster-wide share order), then fanned
  /// out to every shard replicating u (one batched update message per touched
  /// shard). Thread-safe.
  Status Share(NodeId u);

  /// Assembles u's merged event stream: the shard-local feed, plus replicas
  /// of remote push producers (free, they live in u's shard), plus one
  /// batched pull message per remote shard. Audited against the cluster-wide
  /// oracle every options.audit_every queries. Thread-safe.
  Result<std::vector<EventTuple>> QueryStream(NodeId u);

  /// `follower` starts following `producer`. Same-shard edges go through the
  /// shard FeedService (local Sec.-3.3 repair); cross-shard edges are taken
  /// over by the router at the cheaper side (hybrid rule), materializing a
  /// replica on push. OK if already following.
  Status Follow(NodeId follower, NodeId producer);

  /// `follower` stops following `producer`; drops the replica when the last
  /// push edge into its shard disappears. OK if not following.
  Status Unfollow(NodeId follower, NodeId producer);

  /// Updates u's cluster-wide rates (durably logged at the cluster level,
  /// then forwarded to u's shard). Unavailable while u's shard is down.
  /// Thread-safe (exclusive).
  Status SetUserRates(NodeId u, double production, double consumption);

  /// Takes shard `s` out of service: its FeedService is destroyed after an
  /// orderly WAL flush, so a later RestartShard loses nothing (durability
  /// must be enabled — without it the shard state would be gone for good;
  /// crash semantics are exercised through the FailPoint registry instead).
  /// While down, requests owned by the shard — shares and queries of its
  /// users, same-shard churn, rate updates — fail with Unavailable; serving
  /// through the router (push replicas, pulls into live shards) continues.
  /// Thread-safe (exclusive).
  Status KillShard(uint32_t s);

  /// Brings a killed shard back by recovering its FeedService from its
  /// durable directory. No-op if the shard is up. Thread-safe (exclusive).
  Status RestartShard(uint32_t s);

  /// True while shard `s` is killed. Thread-safe.
  bool IsShardDown(uint32_t s) const;

  /// Moves a batch of users to new shards with no serving gap. Three phases:
  ///
  ///   freeze    (exclusive) validate the batch, snapshot the graph, rates and
  ///             share histories of every affected shard under the *new* map,
  ///             and start journaling churn/rate mutations.
  ///   build     (no lock — Shares and QueryStreams keep flowing against the
  ///             old placement) rebuild every affected shard's FeedService on
  ///             its new induced subgraph, seeding the frozen histories; with
  ///             durability, each rebuilt shard writes a fresh
  ///             generation-suffixed directory.
  ///   publish   (exclusive) replay the share/churn/rate delta that arrived
  ///             during build, write a migration-commit marker into the WALs
  ///             on both sides, atomically re-point the persisted assignment
  ///             (the durable commit point), then swap the ShardMap, the
  ///             rebuilt services and the cross-shard index in memory.
  ///
  /// Queries for a migrating user are served from its source shard until the
  /// swap, never Unavailable. A crash before the assignment rename recovers
  /// the old placement, after it the new one — feeds are placement-independent
  /// so either side is exact. No-op moves are filtered; an empty batch is OK.
  /// Fails with Unavailable if a source or destination shard is down, and
  /// FailedPrecondition if another migration is in flight.
  Status MigrateUsers(const std::vector<UserMove>& moves);

  /// Lifetime work attributed per user: routed requests, plus the remote
  /// pull batches served *for* the user's events, plus the fan-out batches
  /// sent for its shares — the work that lands on the user's own shard and
  /// follows the user when it moves. (Push replica *writes* land on consumer
  /// shards and deliberately do not count here.) This is the load signal the
  /// rebalance planner should weigh moves by. Thread-safe.
  std::vector<uint64_t> PerUserLoad() const;

  /// Immutable snapshot of the current cluster graph (base + churn so far).
  /// Thread-safe.
  Result<Graph> GraphSnapshot() const;

  /// Re-runs the configured planner on every shard's current subgraph, in
  /// parallel (stored events are preserved per shard). Synchronous:
  /// holds the cluster lock exclusively while every shard plans.
  Status Replan();

  /// Posts one background planner run to every shard's replanner (spawned on
  /// first use) and returns immediately; serving proceeds while the shards
  /// plan against frozen snapshots and atomically swap results in.
  Status StartBackgroundReplan();

  /// Blocks until no shard has a background replan queued or running; returns
  /// the first shard error, if any.
  Status WaitForBackgroundReplan();

  /// A pure read of the lifetime counters and current costs: polling it
  /// changes nothing (windowed views live in RebalanceTrigger).
  ClusterMetrics GetMetrics() const;

  /// Re-checks every shard schedule (Theorem 1) and the router's cross-edge
  /// index against the cluster graph: every edge must be served by exactly
  /// one owner (its shard's schedule, or the router).
  Status Validate() const;

  /// (total cluster cost, unsharded hybrid-baseline cost) under externally
  /// supplied rates: shard-projected schedule costs plus the router's
  /// predicted cross-shard cost, computed under the cluster + shard locks so
  /// it is safe against concurrent background replans. Thread-safe.
  std::pair<double, double> CostsUnder(const Workload& truth) const;

  size_t num_shards() const { return shards_.size(); }
  const ShardMap& shard_map() const { return map_; }
  const CrossShardIndex& cross_index() const { return cross_; }
  const DynamicGraph& graph() const { return graph_; }
  const Workload& workload() const { return workload_; }
  const ClusterOptions& options() const { return options_; }

  /// Shard-local FeedService (measurement code; shard < num_shards()).
  const FeedService& shard(size_t i) const { return *shards_[i].service; }
  FeedService& shard(size_t i) { return *shards_[i].service; }

  /// Cluster-level metrics registry: router counters ("cluster.shares",
  /// "cluster.shard00.requests", ...) and recovery counters live here; the
  /// per-shard serving registries are reachable via shard(i).registry().
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  struct Shard {
    std::unique_ptr<FeedService> service;
  };

  /// One mutation applied while a migration build was running lock-free.
  /// Publish replays the journal into the rebuilt shards so they catch up to
  /// the live graph/rates before the swap.
  struct MigrationJournalEntry {
    enum class Kind : uint8_t { kFollow, kUnfollow, kRate };
    Kind kind;
    NodeId producer = 0;  ///< the rated user for kRate
    NodeId follower = 0;
    double rp = 0;
    double rc = 0;
  };

  /// Quiescence witness for one merged-stream audit, captured before the
  /// query (the cluster analogue of Prototype::AuditToken): completeness is
  /// provable only if no share was in flight at capture or check time and the
  /// sequence counter did not move in between.
  struct AuditToken {
    uint64_t next_seq = 0;
    bool quiescent = false;
  };

  ClusterService(ClusterOptions options, ShardMap map, Workload workload,
                 size_t feed_size);

  /// Checks the merged stream of `u` against the cluster-wide event oracle:
  /// soundness always, completeness only when `token` proves the read was
  /// quiescent. Requires the cluster lock held (shared suffices).
  Status AuditMerged(NodeId u, const std::vector<EventTuple>& stream,
                     const AuditToken& token);

  /// Serializes the writers of a producer's history and replica slots.
  std::mutex& StripeFor(NodeId producer) const {
    return stripe_mu_[producer % kStripes];
  }

  /// Counts one churn op, then rotates the snapshot if it is due.
  Status ApplyChurnLocked();

  /// Rotates the cluster-level durability pair once snapshot_every records
  /// have accumulated since the last one. No-op without durability and
  /// during WAL replay. Requires mu_ held exclusively.
  Status MaybeSnapshotLocked();

  /// Per-shard FeedService configuration: the shared shard options plus this
  /// shard's durability directory (and a single planner thread when the
  /// cluster itself is the parallel dimension).
  FeedServiceOptions ShardOptions(uint32_t s) const;

  /// Same, pinned to an explicit directory generation (migration builds write
  /// the *next* generation while the current one keeps serving).
  FeedServiceOptions ShardOptionsForGen(uint32_t s, uint64_t gen) const;

  /// Hands every cross-shard edge of graph_ to the router at the side the
  /// current rates prefer, in canonical edge order. Used while the cluster
  /// is not serving yet (Create, Recover).
  void IndexCrossEdges();

  /// Re-derives the router's cross-edge state for every edge incident to a
  /// moved user after the ShardMap swap. Requires mu_ held exclusively.
  void RepairCrossEdges(const std::vector<NodeId>& moved_users);

  /// Rotates the cluster-level durability pair (rates + churn delta +
  /// next_seq; no schedule or events — the shards own those). Requires mu_
  /// held exclusively. No-op without durability.
  Status WriteSnapshotLocked();

  ClusterOptions options_;
  ShardMap map_;
  Workload workload_;
  std::vector<Shard> shards_;
  size_t feed_size_;

  // Cluster-level WAL + snapshot pair (router state; null when durability is
  // disabled). The shard-local pairs live inside the shard FeedServices.
  std::unique_ptr<ShardDurability> durability_;
  // True while Recover() replays the cluster WAL through the public API:
  // durable logging, replan triggers and snapshot rotation are suppressed.
  // Plain bool — recovery is single-threaded by construction.
  bool replaying_ = false;
  // down_[s] is set while shard s is killed (shards_[s].service is null
  // then). Written under the exclusive lock, read under shared.
  std::vector<uint8_t> down_;
  // Durability-directory generation per shard: shard s serves out of
  // shard-NNNN (gen 0) or shard-NNNN.gGGGGGG. A migration rebuilds affected
  // shards into the next generation and bumps this at the swap; persisted in
  // the assignment file so Recover opens the right directories and removes
  // orphaned generations. Written under the exclusive lock.
  std::vector<uint64_t> shard_gen_;
  // True from a migration's freeze to its publish/abort: Follow/Unfollow/
  // SetUserRates journal their mutations so the lock-free build can catch up
  // at publish. All three written under the exclusive lock.
  bool migration_active_ = false;
  std::vector<MigrationJournalEntry> migration_journal_;

  // Cluster-level metrics. Declared before the cached Counter pointers below
  // so the registry outlives every handle registered from it. Router traffic
  // counters moved off ad-hoc atomics onto the registry: this is the single
  // source GetMetrics reads.
  obs::MetricsRegistry registry_;
  obs::Counter* migrations_ = nullptr;       // completed MigrateUsers batches
  obs::Counter* migrated_users_ = nullptr;   // users moved (lifetime)
  // Recovery work accumulated across Recover() + RestartShard(); written
  // under the exclusive lock (or before serving starts), read under shared.
  RecoveryStats recovery_stats_;

  // Cluster lock: Share/QueryStream/GetMetrics/Validate shared,
  // Follow/Unfollow/Replan exclusive. graph_, the cross_ structure and the
  // seqs_ slot layout are mutated only under the exclusive side.
  mutable std::shared_mutex mu_;
  DynamicGraph graph_;  // the full cluster graph (churn applies here too)
  // Per-producer newest share seqs (ascending, trimmed to feed_size), one
  // seqlocked slot each: slot u is u's history (the pull/backfill source and
  // the cluster audit oracle), slots past num_nodes are the push replicas
  // cross_ allocates. A feed can never surface more than feed_size events
  // of one producer, so trimming is lossless for serving and auditing.
  // Slot contents of producer u are written under StripeFor(u) and read
  // lock-free.
  SeqSlots seqs_;
  CrossShardIndex cross_;

  // Per-producer serialization of history + replica writes on the
  // shared-lock serving path. 64 stripes keep the false-sharing odds low at
  // any realistic client thread count.
  static constexpr size_t kStripes = 64;
  mutable std::array<std::mutex, kStripes> stripe_mu_;

  // Global share order: seq is 1-based so a 1-shard cluster's (event_id,
  // timestamp) pairs coincide with the shard prototype's own numbering.
  std::atomic<uint64_t> next_seq_{1};
  // Shares between seq assignment and history publication; with next_seq_ it
  // witnesses audit quiescence (see AuditToken).
  std::atomic<int64_t> shares_in_flight_{0};

  // Router counters, bumped on the shared-lock serving path. Registry-backed
  // (thread-striped) counters cached by pointer at construction.
  std::vector<obs::Counter*> per_shard_requests_;
  // Batched fan-out messages sent by each shard's producers (the sending
  // half of cross-shard update work; the receiving half lives in cross_).
  std::vector<obs::Counter*> per_shard_fanout_;
  // Observed per-user load (see PerUserLoad), the rebalance planner's move
  // weights: routed requests plus the fan-out and pull batches served for
  // the user's events.
  std::vector<std::atomic<uint64_t>> per_user_load_;
  obs::Counter* shares_ = nullptr;
  obs::Counter* queries_ = nullptr;
  obs::Counter* audited_queries_ = nullptr;
  // Router wall latency per Share / query ("cluster.share_us",
  // "cluster.query_us"), not recorded while Recover() replays the WAL.
  obs::Histogram* share_us_ = nullptr;
  obs::Histogram* query_us_ = nullptr;
  std::atomic<uint64_t> queries_since_audit_{0};
  // Churn counters: written under the exclusive lock, read under shared.
  size_t churn_ops_ = 0;
};

}  // namespace piggy
