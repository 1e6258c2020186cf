// CrossShardIndex: the router's state for edges whose endpoints live on
// different shards.
//
// Intra-shard edges are served by the shard-local FeedService (hub
// piggybacking included). A cross-shard edge producer -> consumer cannot ride
// a shard-local schedule, so the router serves it directly on the cheaper
// side — the hybrid rule min(rp(producer), rc(consumer)) — with the paper's
// batching rule applied at shard granularity (one message per touched shard,
// Sec. 4.3):
//
//   push  The producer's events are *materialized into the consumer's shard*:
//         one replica per (producer, shard) no matter how many followers the
//         shard holds. A share costs one batched update message per shard
//         replicating the producer; queries then read the replica locally for
//         free. Creating the first push edge into a shard backfills the
//         replica from the producer's history (one state-transfer message).
//   pull  The consumer fans out on query: one batched query message per
//         distinct producer shard, covering every pulled producer there.
//
// The index stores, per producer, the shards replicating it (update fan-out
// list) and, per consumer, the local replicas to read and the remote shards
// to pull — everything the router needs in O(touched shards) per request.
// Replica contents live in the router's SeqSlots store (cluster/seq_slots.h)
// next to the producer histories: the index allocates one slot per
// (producer, shard) replica and hands consumers its slot id, so a query reads
// a replica with no map probe and no lock.
//
// ## Threading contract (enforced by ClusterService, not internally)
//
// Structure mutations (AddEdge / RemoveEdge) require the caller's exclusive
// lock; structure reads (PushSources, PullShards, PullProducers, ModeOf,
// counts, PredictedCost) require at least its shared lock. Replica *writes*
// are additionally serialized per producer: Publish(p, .) must run under the
// caller's stripe lock for p (ClusterService hashes producers onto a small
// array of stripe mutexes), so shares for different producers never contend;
// replica reads go through SeqSlots::Read and take no lock. Traffic counters
// are thread-striped obs::Counters; traffic() and PerShardTraffic() merge
// them into a point-in-time snapshot.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/seq_slots.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "util/u64_containers.h"
#include "workload/workload.h"

namespace piggy {

/// \brief How a cross-shard edge is served.
enum class CrossEdgeMode : uint8_t { kPush, kPull };

/// \brief Router-side message counters (batched messages, the throughput
/// currency — same units as ClientMetrics).
struct CrossTraffic {
  uint64_t update_messages = 0;    ///< remote-push fan-out incl. backfills
  uint64_t query_messages = 0;     ///< remote-pull fan-out
  uint64_t replica_backfills = 0;  ///< replicas materialized by Follow
};

/// \brief A push replica a consumer reads: the remote producer and the
/// SeqSlots slot holding its events in the consumer's shard.
struct PushSource {
  NodeId producer = 0;
  SeqSlots::SlotId slot = 0;

  bool operator==(const PushSource&) const = default;
};

/// \brief Cross-shard edge table + per-shard producer replicas.
class CrossShardIndex {
 public:
  /// Replicas are allocated in `slots` (not owned; must outlive the index),
  /// whose slot p is producer p's history, the backfill source.
  CrossShardIndex(size_t num_shards, SeqSlots* slots);

  size_t num_shards() const { return num_shards_; }
  /// Cross-shard edges currently tracked.
  size_t num_edges() const { return edges_.size(); }
  /// (producer, shard) replicas currently materialized.
  size_t num_replicas() const { return replica_count_; }
  /// Replicas materialized into each shard (index = shard id). Requires the
  /// caller's shared lock (mutated with the structure, under exclusive).
  const std::vector<size_t>& replicas_per_shard() const {
    return replicas_per_shard_;
  }

  bool HasEdge(NodeId producer, NodeId consumer) const {
    return edges_.Contains(EdgeKey(producer, consumer));
  }
  /// Serving mode of the edge, if tracked.
  std::optional<CrossEdgeMode> ModeOf(NodeId producer, NodeId consumer) const;

  /// Tracks a new cross edge. For the first push edge from `producer` into
  /// `consumer_shard` the replica is materialized as a copy of the
  /// producer's history slot and one backfill update message is counted.
  /// Returns false if already tracked.
  bool AddEdge(NodeId producer, uint32_t producer_shard, NodeId consumer,
               uint32_t consumer_shard, CrossEdgeMode mode);

  /// Untracks an edge; frees the (producer, shard) replica slot when the last
  /// push edge into that shard disappears. Returns false if not tracked.
  bool RemoveEdge(NodeId producer, NodeId consumer);

  /// Share fan-out: inserts `seq` into every shard replicating `producer`
  /// (sorted from the tail, so sequence numbers assigned before a slower
  /// thread's insert land in order), one batched update message per touched
  /// shard. Returns the number of shards touched (messages the producer's
  /// shard sent). Requires the caller's stripe lock for `producer`.
  size_t Publish(NodeId producer, uint64_t seq);

  /// Remote producers whose replicas live in the consumer's own shard
  /// (push-mode edges), with their replica slots: read locally, zero
  /// messages.
  std::span<const PushSource> PushSources(NodeId consumer) const;

  /// Distinct remote shards the consumer pulls from (sorted ascending).
  std::span<const uint32_t> PullShards(NodeId consumer) const;

  /// Producers the consumer pulls from `shard` (one batched message covers
  /// them all).
  std::span<const NodeId> PullProducers(NodeId consumer, uint32_t shard) const;

  /// Counts the batched messages of one query's pull fan-out (one per shard
  /// in `shards_pulled`). Thread-safe.
  void CountQueryFanout(std::span<const uint32_t> shards_pulled) {
    query_messages_.Add(shards_pulled.size());
    for (uint32_t s : shards_pulled) per_shard_query_messages_[s].Add();
  }

  /// Point-in-time traffic snapshot. Thread-safe.
  CrossTraffic traffic() const {
    CrossTraffic t;
    t.update_messages = update_messages_.Value();
    t.query_messages = query_messages_.Value();
    t.replica_backfills = replica_backfills_.Value();
    return t;
  }

  /// Per-shard traffic snapshot: batched cross-shard messages attributed to
  /// the shard they touch (updates land in the replicating shard, query pulls
  /// in the pulled shard). Thread-safe.
  void PerShardTraffic(std::vector<uint64_t>* updates,
                       std::vector<uint64_t>* queries) const {
    updates->resize(num_shards_);
    queries->resize(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      (*updates)[s] = per_shard_update_messages_[s].Value();
      (*queries)[s] = per_shard_query_messages_[s].Value();
    }
  }

  /// Predicted steady-state cross-shard cost under the batching rule:
  ///   sum_u rp(u) * |shards replicating u|
  /// + sum_v rc(v) * |shards v pulls from|.
  /// The cluster analogue of PlacementAwareCost's cross-server terms.
  double PredictedCost(const Workload& w) const;

 private:
  struct EdgeRec {
    CrossEdgeMode mode;
    uint32_t producer_shard;
    uint32_t consumer_shard;
  };
  /// One (producer, shard) replica: its slot and the push edges reading it.
  struct ReplicaRec {
    uint32_t shard = 0;
    SeqSlots::SlotId slot = 0;
    uint32_t followers = 0;

    bool operator==(const ReplicaRec&) const = default;
  };

  /// The producer's replica in `shard`, or null.
  ReplicaRec* FindReplica(NodeId producer, uint32_t shard);

  size_t num_shards_;
  SeqSlots* slots_;

  U64Map<EdgeRec> edges_;                          // EdgeKey(producer, consumer)
  U64Map<std::vector<ReplicaRec>> replicas_;       // producer -> by shard
  U64Map<std::vector<PushSource>> push_sources_;   // consumer -> replicas
  U64Map<uint32_t> pull_source_count_;             // EdgeKey(consumer, shard)
  U64Map<std::vector<uint32_t>> pull_shards_;      // consumer -> sorted shards
  U64Map<std::vector<NodeId>> pull_producers_;     // EdgeKey(consumer, shard)
  size_t replica_count_ = 0;
  std::vector<size_t> replicas_per_shard_;         // index = shard
  // Bumped on the shared-lock serving path (Publish / CountQueryFanout);
  // thread-striped so concurrent client threads never write one line.
  obs::Counter update_messages_;
  obs::Counter query_messages_;
  obs::Counter replica_backfills_;
  std::vector<obs::Counter> per_shard_update_messages_;
  std::vector<obs::Counter> per_shard_query_messages_;
};

}  // namespace piggy
