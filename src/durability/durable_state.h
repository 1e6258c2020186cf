// Per-shard durable state: one WAL + snapshot pair manager.
//
// A ShardDurability owns the on-disk directory for one shard (or for the
// cluster-level router state):
//
//   <data_dir>/meta.txt          "piggy-durability v1"
//   <data_dir>/base.graph        the pre-churn graph (binary graph_io format)
//   <data_dir>/snapshot-NNNNNN   snapshots, monotone ids (snapshot.h format)
//   <data_dir>/wal-NNNNNN.log    ops after cut NNNNNN (wal.h framing)
//
// Invariant: snapshot-K is the state as of the moment wal-K was opened, and
// wal-K holds exactly the operations acked after that moment and before
// wal-(K+1) was opened. A rotation runs in two phases:
//
//   cut      (under the caller's exclusive lock, and the append mutex)
//            flush and close wal-K, open a truncated wal-(K+1), and capture
//            the state snapshot-(K+1) will hold. The capture shares the
//            large parts (event log segments, cached schedule text), so the
//            cut costs the same at any history length.
//   publish  (no lock held) encode, CRC, write and rename snapshot-(K+1);
//            only then prune every snapshot and WAL older than the previous
//            published snapshot.
//
// Between the two phases, and forever after a publish that fails, the files
// are snapshot-J (the newest published, J <= K) plus wal-J .. wal-(K+1), so
// at any crash point the newest *valid* snapshot plus the WALs at or after
// its id reconstruct every acked operation. A cut that cannot open wal-(K+1)
// leaves wal-K open and appendable; a publish that fails prunes nothing, and
// records_since_snapshot() keeps counting from the last published cut, so
// the next threshold check retries. Retention keeps the last two published
// snapshots and the WALs from the older one on.
//
// Recovery picks the newest snapshot that passes its CRC, folds its churn
// delta, then replays the surviving WALs in id order. A torn tail on the
// final WAL is expected (crash mid-append) and merely marks where acked
// history ends; a torn tail on a *non*-final WAL would leave a gap, so replay
// stops there rather than apply later records out of order.
//
// Logging methods are thread-safe: one internal mutex serializes appends,
// which doubles as the group-commit point for WalFlushPolicy::kGroup.
// Publishes take a second mutex of their own and never the append mutex,
// so appends to wal-(K+1) flow while snapshot-(K+1) is being written.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "durability/snapshot.h"
#include "durability/wal.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace piggy {

struct DurabilityOptions {
  /// Root directory for this shard's durable state; empty disables
  /// durability entirely (the default — serving stays memory-only).
  std::string data_dir;
  WalFlushPolicy flush = WalFlushPolicy::kGroup;
  uint32_t group_records = 64;
  bool use_fsync = false;
  /// Write a snapshot after this many WAL records (0 = never by count). A
  /// FeedService cuts on the request that crosses the threshold and
  /// publishes the file on a background writer.
  uint64_t snapshot_every = 0;
  /// Observability sinks (not owned; both may be null). `metrics` receives
  /// the wal.append_us / wal.flush_us / snapshot.cut_us / snapshot.write_us
  /// histograms and the wal.rotations / snapshot.publish_failures counters;
  /// `trace` receives wal_rotate (the cut) and snapshot_publish (the file
  /// landed) events stamped with `trace_shard`. FeedService wires its own
  /// registry and the configured TraceLog in before constructing the
  /// ShardDurability.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
  int32_t trace_shard = -1;

  bool enabled() const { return !data_dir.empty(); }
};

/// What recovery did, for operators (piggy_tool recover) and the fig12 bench.
struct RecoveryStats {
  uint64_t snapshot_id = 0;
  uint64_t snapshot_events = 0;
  uint64_t wal_records = 0;
  uint64_t replayed_shares = 0;
  uint64_t replayed_follows = 0;
  uint64_t replayed_unfollows = 0;
  uint64_t replayed_rate_shifts = 0;
  uint64_t replayed_replans = 0;
  uint64_t replayed_migration_commits = 0;
  bool torn_tail = false;
  /// Recovery had to fall back past a corrupt newest snapshot to an older
  /// valid one (CRC or parse failure on the newest id).
  bool fallback = false;
  uint64_t wal_valid_bytes = 0;
  uint64_t wal_total_bytes = 0;
  double wall_seconds = 0.0;

  void Accumulate(const RecoveryStats& other);
  std::string ToString() const;
  /// One flat JSON object (piggy_tool recover --json).
  std::string ToJson() const;
  /// The recovery trace span's arguments (snapshot id, snapshot events, WAL
  /// records, torn tail, fallback), booleans spelled as in ToJson.
  std::vector<std::pair<std::string, std::string>> TraceArgs() const;
};

class ShardDurability {
 public:
  /// Initializes a fresh data dir (meta + base graph). Refuses a directory
  /// that already holds snapshot/WAL files from a previous run — recover
  /// those with Open(), or point at an empty directory. The caller must
  /// write the initial snapshot (WriteSnapshot) before logging anything,
  /// which creates snapshot-000000 and opens wal-000000.log.
  static Result<std::unique_ptr<ShardDurability>> Create(
      const DurabilityOptions& options, const Graph& base_graph);

  /// Attaches to an existing data dir for recovery. Call Recover(), replay,
  /// then ResumeAppending() before logging.
  static Result<std::unique_ptr<ShardDurability>> Open(
      const DurabilityOptions& options);

  /// Thread-safe WAL appends. Once a simulated crash (FailPoint) has fired,
  /// all of these fail-stop with IOError.
  Status LogShare(NodeId producer, uint64_t seq);
  Status LogChurn(bool added, NodeId src, NodeId dst);
  Status LogRateShift(NodeId user, double rp, double rc);
  Status LogReplanCommit();
  Status LogMigrationCommit();

  /// WAL records appended since the cut of the newest published snapshot.
  /// Lock-free (one relaxed atomic load): the serving path polls it after
  /// every acked write.
  uint64_t records_since_snapshot() const {
    return records_since_snapshot_.load(std::memory_order_relaxed);
  }

  using Clock = std::chrono::steady_clock;

  /// A rotation that has been cut but not yet published.
  struct Cut {
    SnapshotData data;          // id and churn delta filled in by the cut
    uint64_t records = 0;       // records_since_snapshot() at the cut
    double trace_start_us = 0;  // trace clock at `started`
    double cut_us = 0;          // wall time of the exclusive section
  };

  /// Phase 1 (see file comment), under the caller's exclusive lock: rotates
  /// the WAL and stamps `data` with the next id and the cumulative churn
  /// delta; the caller provides rates, schedule text, events and next_seq.
  /// `started` is when the caller began capturing `data`, so snapshot.cut_us
  /// and the wal_rotate span cover the whole exclusive section.
  Result<Cut> CutSnapshot(SnapshotData data, Clock::time_point started = Clock::now());

  /// Phase 2, with no lock held: writes the cut's snapshot, then prunes.
  /// Publishes are serialized; a cut older than the newest published
  /// snapshot is dropped as superseded.
  Status PublishSnapshot(Cut cut);

  /// Cut and publish back to back, for snapshots that must be on disk before
  /// the caller returns (create, replan, the cluster pair).
  Status WriteSnapshot(SnapshotData data, Clock::time_point started = Clock::now());

  struct RecoveredState {
    Graph base_graph;
    SnapshotData snapshot;
    std::vector<WalRecord> wal_records;
    bool torn_tail = false;
    bool fallback = false;  // newest snapshot invalid, used an older one
    uint64_t wal_valid_bytes = 0;
    uint64_t wal_total_bytes = 0;

    /// What was loaded, as the first half of a RecoveryStats (the replay
    /// counters and wall time are the caller's).
    RecoveryStats Stats() const;
  };

  /// Loads the newest valid snapshot and the WAL tail (see file comment).
  /// Only valid on an Open()'d instance before any logging.
  Result<RecoveredState> Recover();

  /// After Recover(): drops the torn tail of the newest WAL (if any) and
  /// reopens it for appending.
  Status ResumeAppending();

  const DurabilityOptions& options() const { return options_; }
  const Graph& base_graph() const { return base_graph_; }

  /// (Re)wires the metric/trace sinks after construction. FeedService::
  /// Recover uses this to adopt a pair that was Open()'d before the service
  /// — and therefore its registry — existed. Call before serving traffic;
  /// not synchronized against concurrent logging.
  void BindObservability(obs::MetricsRegistry* metrics, obs::TraceLog* trace,
                         int32_t trace_shard);

 private:
  explicit ShardDurability(DurabilityOptions options)
      : options_(std::move(options)) {
    BindObservability(options_.metrics, options_.trace, options_.trace_shard);
  }

  std::string SnapshotPath(uint64_t id) const;
  std::string WalPath(uint64_t id) const;
  Status AppendLocked(const WalRecord& record);
  /// The cut, with mu_ held.
  Result<Cut> CutLocked(SnapshotData data, Clock::time_point started);
  /// Emits the wal_rotate span of cut `id`.
  void TraceRotate(uint64_t id, double start_us, double dur_us) const;

  DurabilityOptions options_;
  Graph base_graph_;

  // Cached observability handles (null when options_.metrics is null; the
  // registry outlives this object).
  obs::Histogram* append_us_ = nullptr;
  obs::Histogram* flush_us_ = nullptr;
  obs::Histogram* snapshot_us_ = nullptr;
  obs::Histogram* cut_us_ = nullptr;
  obs::Counter* rotations_ = nullptr;
  obs::Counter* publish_failures_ = nullptr;

  // Appends and cuts.
  mutable std::mutex mu_;
  WalWriter wal_;
  uint64_t current_id_ = 0;       // id of the open WAL / newest cut
  bool has_snapshot_ = false;     // false until the first cut
  std::atomic<uint64_t> records_since_snapshot_{0};
  // Publishes (never held together with mu_ by the publisher).
  std::mutex publish_mu_;
  bool has_published_ = false;
  uint64_t published_id_ = 0;     // newest snapshot on disk
  // Resume point established by Recover(), consumed by ResumeAppending().
  bool recovered_ = false;
  uint64_t resume_wal_id_ = 0;
  uint64_t resume_valid_bytes_ = 0;
  bool resume_truncate_ = false;
  // Latest state of every edge churned since the base graph (EdgeKey ->
  // present). Applied idempotently at recovery, so entries that happen to
  // match the base graph are harmless.
  std::unordered_map<uint64_t, bool> churn_delta_;
};

}  // namespace piggy
