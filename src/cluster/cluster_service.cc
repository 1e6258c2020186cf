#include "cluster/cluster_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <unordered_set>
#include <utility>

#include "core/cost_model.h"
#include "obs/percentile.h"
#include "store/newest_k_merge.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace piggy {

namespace {

// Push/pull decision for a cross-shard edge: the hybrid (FF) rule, same
// tie-break as HybridSchedule — push iff rp(producer) <= rc(consumer).
CrossEdgeMode DecideMode(const Workload& w, NodeId producer, NodeId consumer) {
  return w.rp(producer) <= w.rc(consumer) ? CrossEdgeMode::kPush
                                          : CrossEdgeMode::kPull;
}

// Runs fn(i) -> Status for every i < n on a pool of up to n threads and
// returns the first failure in index order, its message prefixed with
// "<what> <shard>: ", where shard is ids[i] (or i when ids is null).
template <typename Fn>
Status ShardFanOut(size_t n, Fn fn, const char* what = "shard",
                   const uint32_t* ids = nullptr) {
  std::vector<Status> status(n);
  {
    ThreadPool pool(std::min(n, ThreadPool::DefaultThreads()));
    ParallelFor(pool, n, [&](size_t i) { status[i] = fn(i); });
  }
  for (size_t i = 0; i < n; ++i) {
    if (!status[i].ok()) {
      const uint32_t shard = ids != nullptr ? ids[i] : static_cast<uint32_t>(i);
      return Status(status[i].code(), StrFormat("%s %u: %s", what, shard,
                                                status[i].message().c_str()));
    }
  }
  return Status::OK();
}

// The node -> shard assignment, persisted at Create so Recover rebuilds the
// exact placement (the partitioner may be randomized), and atomically
// re-pointed by MigrateUsers (the rename IS the migration's durable commit):
//   "PIGGYAS2": u64 magic, u64 num_shards, u64 num_nodes, num_nodes x u32,
//               then num_shards x u64 per-shard directory generations, so
//               recovery opens the directories the last committed migration
//               produced.
constexpr uint64_t kAssignmentMagic = 0x3253415947474950ULL;  // "PIGGYAS2"

std::string AssignmentPath(const std::string& data_dir) {
  return data_dir + "/assignment.bin";
}

// Basename of shard s's durability directory at generation `gen`; generation
// 0 has the plain shard-NNNN name.
std::string ShardDirBasename(uint32_t s, uint64_t gen) {
  if (gen == 0) return StrFormat("shard-%04u", s);
  return StrFormat("shard-%04u.g%06llu", s,
                   static_cast<unsigned long long>(gen));
}

// Writes the assignment to `path` via a same-directory temp file + rename, so a torn
// write can never clobber the committed assignment.
Status WriteAssignment(const ShardMap& map,
                       const std::vector<uint64_t>& generations,
                       const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError(StrFormat("cannot write %s", tmp.c_str()));
    }
    auto put = [&out](const void* p, size_t n) {
      out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    };
    const uint64_t magic = kAssignmentMagic;
    const uint64_t shards = map.num_shards();
    const uint64_t nodes = map.num_nodes();
    put(&magic, sizeof magic);
    put(&shards, sizeof shards);
    put(&nodes, sizeof nodes);
    put(map.assignment().data(), map.assignment().size() * sizeof(uint32_t));
    put(generations.data(), generations.size() * sizeof(uint64_t));
    out.flush();
    if (!out) {
      return Status::IOError(StrFormat("short write to %s", tmp.c_str()));
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot rename %s over %s: %s",
                                     tmp.c_str(), path.c_str(),
                                     ec.message().c_str()));
  }
  return Status::OK();
}

struct AssignmentFile {
  uint64_t num_shards = 0;
  std::vector<uint32_t> shard_of;
  std::vector<uint64_t> generations;
};

Result<AssignmentFile> ReadAssignment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  auto get = [&in](void* p, size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    return static_cast<bool>(in);
  };
  uint64_t magic = 0;
  if (!get(&magic, sizeof magic) || magic != kAssignmentMagic) {
    return Status::IOError(
        StrFormat("%s is not an assignment file", path.c_str()));
  }
  AssignmentFile file;
  uint64_t nodes = 0;
  if (!get(&file.num_shards, sizeof file.num_shards) ||
      !get(&nodes, sizeof nodes)) {
    return Status::IOError(StrFormat("%s: truncated header", path.c_str()));
  }
  if (file.num_shards == 0 || nodes > (1ull << 32)) {
    return Status::IOError(StrFormat("%s: implausible header", path.c_str()));
  }
  file.shard_of.resize(nodes);
  if (nodes > 0 && !get(file.shard_of.data(), nodes * sizeof(uint32_t))) {
    return Status::IOError(
        StrFormat("%s: truncated assignment", path.c_str()));
  }
  file.generations.resize(file.num_shards);
  if (!get(file.generations.data(), file.num_shards * sizeof(uint64_t))) {
    return Status::IOError(
        StrFormat("%s: truncated generation table", path.c_str()));
  }
  return file;
}

}  // namespace

std::string ClusterMetrics::ToString() const {
  return StrFormat(
      "shards=%zu partitioner=%s planner=%s cost=%.1f (intra=%.1f cross=%.1f) "
      "cross_edges=%zu replicas=%zu replans=%zu (drift=%zu score=%.3f) "
      "repairs=%zu churn=%zu "
      "shares=%lu queries=%lu audited=%lu cross_msgs=%lu+%lu mpr=%.2f "
      "imbalance=%.2f migrations=%zu (moved=%zu)",
      shards, partitioner.c_str(), planner.c_str(), total_cost, intra_cost,
      cross_cost, cross_edges, replicas, replans, drift_replans,
      max_drift_score, repairs, churn_ops,
      static_cast<unsigned long>(shares), static_cast<unsigned long>(queries),
      static_cast<unsigned long>(audited_queries),
      static_cast<unsigned long>(cross_update_messages),
      static_cast<unsigned long>(cross_query_messages), messages_per_request,
      imbalance, migrations, migrated_users);
}

ClusterService::ClusterService(ClusterOptions options, ShardMap map,
                               Workload workload, size_t feed_size)
    : options_(std::move(options)),
      map_(std::move(map)),
      workload_(std::move(workload)),
      feed_size_(feed_size),
      seqs_(map_.num_nodes(), feed_size),
      cross_(map_.num_shards(), &seqs_),
      per_user_load_(map_.num_nodes()) {
  shard_gen_.assign(map_.num_shards(), 0);
  // Register the router counters once; the hot path records through the
  // cached pointers. The per-user vector stays raw atomics — a striped
  // Counter is 16 cache lines, far too heavy at num_nodes granularity.
  shares_ = &registry_.GetCounter("cluster.shares");
  queries_ = &registry_.GetCounter("cluster.queries");
  audited_queries_ = &registry_.GetCounter("cluster.audited_queries");
  share_us_ = &registry_.GetHistogram("cluster.share_us");
  query_us_ = &registry_.GetHistogram("cluster.query_us");
  migrations_ = &registry_.GetCounter("cluster.migrations");
  migrated_users_ = &registry_.GetCounter("cluster.migrated_users");
  per_shard_requests_.reserve(map_.num_shards());
  per_shard_fanout_.reserve(map_.num_shards());
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    per_shard_requests_.push_back(
        &registry_.GetCounter(StrFormat("cluster.shard%02u.requests", s)));
    per_shard_fanout_.push_back(
        &registry_.GetCounter(StrFormat("cluster.shard%02u.fanout_sends", s)));
  }
}

FeedServiceOptions ClusterService::ShardOptions(uint32_t s, uint64_t gen) const {
  FeedServiceOptions opts = options_.shard;
  // With an auto thread budget each shard planner stays single-threaded —
  // the cluster is the parallel dimension, and oversubscribing k shards x p
  // planner threads helps nobody.
  if (map_.num_shards() > 1 && opts.plan_context.num_threads == 0) {
    opts.plan_context.num_threads = 1;
  }
  opts.durability = options_.durability;
  if (options_.durability.enabled()) {
    opts.durability.data_dir =
        StrFormat("%s/%s", options_.durability.data_dir.c_str(),
                  ShardDirBasename(s, gen).c_str());
  }
  // All shards share the cluster's trace ring, each stamping its own id.
  opts.trace = options_.trace;
  opts.trace_shard = static_cast<int32_t>(s);
  return opts;
}

Result<std::unique_ptr<ClusterService>> ClusterService::Create(
    const Graph& graph, const ClusterOptions& options) {
  PIGGY_ASSIGN_OR_RETURN(Workload workload,
                         GenerateWorkload(graph, options.shard.workload));
  return Create(graph, std::move(workload), options);
}

Result<std::unique_ptr<ClusterService>> ClusterService::Create(
    const Graph& graph, Workload workload, const ClusterOptions& options) {
  if (workload.num_users() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("workload covers %zu users but graph has %zu nodes",
                  workload.num_users(), graph.num_nodes()));
  }
  if (options.shard.prototype.feed_size == 0) {
    return Status::InvalidArgument("feed_size must be positive");
  }
  PIGGY_ASSIGN_OR_RETURN(
      std::unique_ptr<Partitioner> partitioner,
      MakePartitioner(options.partitioner, graph, workload, options.num_shards));
  PIGGY_ASSIGN_OR_RETURN(ShardMap map, ShardMap::Build(graph, *partitioner));

  auto cluster = std::unique_ptr<ClusterService>(
      new ClusterService(options, std::move(map), std::move(workload),
                         options.shard.prototype.feed_size));
  cluster->graph_ = DynamicGraph(graph);

  const size_t shards = cluster->map_.num_shards();
  std::vector<Graph> subgraphs(shards);
  std::vector<Workload> locals(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    PIGGY_ASSIGN_OR_RETURN(subgraphs[s],
                           cluster->map_.InducedSubgraph(graph, s));
    locals[s] = cluster->map_.ProjectWorkload(cluster->workload_, s);
  }

  // Durable cluster: persist the placement and open the cluster-level pair
  // before the shards spawn (each shard creates its own directory inside).
  if (options.durability.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(options.durability.data_dir, ec);
    if (ec) {
      return Status::IOError(StrFormat("cannot create %s: %s",
                                       options.durability.data_dir.c_str(),
                                       ec.message().c_str()));
    }
    PIGGY_RETURN_NOT_OK(
        WriteAssignment(cluster->map_, cluster->shard_gen_,
                        AssignmentPath(options.durability.data_dir)));
    DurabilityOptions cluster_dur = options.durability;
    cluster_dur.data_dir += "/cluster";
    cluster_dur.metrics = &cluster->registry_;
    cluster_dur.trace = options.trace;
    cluster_dur.trace_shard = -1;  // the router pair is cluster-level
    PIGGY_ASSIGN_OR_RETURN(cluster->durability_,
                           ShardDurability::Create(cluster_dur, graph));
  }

  // Every shard plans concurrently on its induced subgraph.
  cluster->shards_.resize(shards);
  PIGGY_RETURN_NOT_OK(ShardFanOut(shards, [&](size_t s) -> Status {
    PIGGY_ASSIGN_OR_RETURN(
        cluster->shards_[s],
        FeedService::Create(subgraphs[s], std::move(locals[s]),
                            cluster->ShardOptions(static_cast<uint32_t>(s), 0)));
    return Status::OK();
  }));

  // No events exist yet, so replica backfills are empty (and the backfill
  // messages are the one-off materialization cost, not steady-state traffic).
  cluster->IndexCrossEdges();

  // Snapshot 0 of the cluster pair: the initial rates + sequence counter
  // (the churn delta is empty, the shards own schedules and events). Opens
  // the cluster WAL for the churn to come.
  if (cluster->durability_ != nullptr) {
    std::unique_lock<std::shared_mutex> lock(cluster->mu_);
    PIGGY_RETURN_NOT_OK(cluster->WriteSnapshotLocked());
  }
  return cluster;
}

Result<std::unique_ptr<ClusterService>> ClusterService::Recover(
    const ClusterOptions& options, RecoveryStats* stats_out) {
  if (!options.durability.enabled()) {
    return Status::InvalidArgument(
        "ClusterService::Recover needs options.durability.data_dir");
  }
  if (options.shard.prototype.feed_size == 0) {
    return Status::InvalidArgument("feed_size must be positive");
  }
  const auto start = std::chrono::steady_clock::now();
  const double trace_start =
      options.trace != nullptr ? options.trace->NowUs() : 0;

  // Cluster-level pair first: the base graph, the newest valid snapshot
  // (rates + churn delta + sequence counter) and the WAL tail.
  DurabilityOptions cluster_dur = options.durability;
  cluster_dur.data_dir += "/cluster";
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ShardDurability> durability,
                         ShardDurability::Open(cluster_dur));
  PIGGY_ASSIGN_OR_RETURN(ShardDurability::RecoveredState rec,
                         durability->Recover());
  RecoveryStats stats = rec.Stats();

  const size_t n = rec.base_graph.num_nodes();
  if (rec.snapshot.production.size() != n) {
    return Status::IOError(
        StrFormat("cluster snapshot has %zu rates for %zu nodes",
                  rec.snapshot.production.size(), n));
  }

  // The frozen node -> shard placement.
  PIGGY_ASSIGN_OR_RETURN(
      AssignmentFile assignment,
      ReadAssignment(AssignmentPath(options.durability.data_dir)));
  if (assignment.shard_of.size() != n) {
    return Status::IOError(
        StrFormat("assignment covers %zu nodes, base graph has %zu",
                  assignment.shard_of.size(), n));
  }
  PIGGY_ASSIGN_OR_RETURN(
      ShardMap map, ShardMap::FromAssignment(std::move(assignment.shard_of),
                                             assignment.num_shards));

  Workload workload;
  workload.production = std::move(rec.snapshot.production);
  workload.consumption = std::move(rec.snapshot.consumption);
  auto cluster = std::unique_ptr<ClusterService>(
      new ClusterService(options, std::move(map), std::move(workload),
                         options.shard.prototype.feed_size));

  // Cluster graph at snapshot time: base + delta. The WAL tail is replayed
  // through Follow/Unfollow below, after the router is rebuilt.
  cluster->graph_ = DynamicGraph(rec.base_graph);
  for (const auto& [added, edge] : rec.snapshot.churn) {
    if (edge.src >= n || edge.dst >= n) {
      return Status::IOError(StrFormat(
          "cluster snapshot churn names edge %u->%u beyond %zu nodes",
          edge.src, edge.dst, n));
    }
    if (added) {
      cluster->graph_.AddEdge(edge.src, edge.dst);
    } else {
      cluster->graph_.RemoveEdge(edge.src, edge.dst);
    }
  }

  // Every shard recovers from its own pair, in parallel (recovery is
  // single-threaded per shard; the cluster is the parallel dimension).
  const size_t shards = cluster->map_.num_shards();
  cluster->shard_gen_ = std::move(assignment.generations);

  // Drop orphaned shard directories: generations a crashed migration built
  // but never committed (crash before the assignment rename), or superseded
  // ones a crash kept the migration from removing (crash right after it).
  {
    std::unordered_set<std::string> expected;
    for (uint32_t s = 0; s < shards; ++s) {
      expected.insert(ShardDirBasename(s, cluster->shard_gen_[s]));
    }
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(
             options.durability.data_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) != 0 || expected.count(name) > 0) continue;
      std::error_code rm_ec;
      std::filesystem::remove_all(entry.path(), rm_ec);
    }
  }
  cluster->shards_.resize(shards);
  std::vector<RecoveryStats> shard_stats(shards);
  PIGGY_RETURN_NOT_OK(ShardFanOut(shards, [&](size_t s) -> Status {
    const auto id = static_cast<uint32_t>(s);
    PIGGY_ASSIGN_OR_RETURN(
        cluster->shards_[s],
        FeedService::Recover(cluster->ShardOptions(id, cluster->shard_gen_[id]),
                             &shard_stats[s]));
    return Status::OK();
  }));
  for (const RecoveryStats& shard : shard_stats) stats.Accumulate(shard);

  // Share histories + the global sequence counter, rebuilt from the
  // recovered shard event logs (shares were routed with explicit seqs, so
  // shard event ids ARE the global sequence numbers; the slot insert keeps
  // the newest feed_size in any arrival order). No locks needed: the
  // cluster is not serving yet.
  uint64_t max_seq = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    PIGGY_ASSIGN_OR_RETURN(Prototype * plane,
                           cluster->shards_[s]->ServingPlane());
    for (const EventTuple& e : plane->EventLog()) {
      cluster->seqs_.Insert(cluster->map_.GlobalId(s, e.producer), e.event_id);
      max_seq = std::max(max_seq, e.event_id);
    }
  }
  cluster->next_seq_.store(std::max<uint64_t>(max_seq + 1, 1),
                           std::memory_order_seq_cst);

  // Push replicas backfill from the rebuilt histories. (Push/pull placement
  // only shapes message accounting — merged feed contents are
  // mode-independent, so a rate shift flipping a mode across the crash
  // cannot change any feed.)
  cluster->IndexCrossEdges();

  // Replay the cluster WAL tail through the public API. Records whose shard
  // forward survived the crash heal as no-ops; records the crash cut off
  // mid-route re-apply (the shard re-logs genuinely missing churn).
  cluster->durability_ = std::move(durability);
  cluster->durability_->BindObservability(&cluster->registry_, options.trace,
                                         /*trace_shard=*/-1);
  cluster->replaying_ = true;
  for (const WalRecord& r : rec.wal_records) {
    Status st;
    switch (r.type) {
      case WalRecordType::kFollow:
        st = cluster->Follow(r.user, r.producer);
        ++stats.replayed_follows;
        break;
      case WalRecordType::kUnfollow:
        st = cluster->Unfollow(r.user, r.producer);
        ++stats.replayed_unfollows;
        break;
      case WalRecordType::kRateShift:
        st = cluster->SetUserRates(r.user, r.rp, r.rc);
        ++stats.replayed_rate_shifts;
        break;
      default:
        st = Status::IOError(
            StrFormat("cluster WAL holds record type %u (only churn and rate "
                      "shifts are cluster-level)",
                      static_cast<unsigned>(r.type)));
        break;
    }
    PIGGY_RETURN_NOT_OK(st);
  }
  cluster->replaying_ = false;
  PIGGY_RETURN_NOT_OK(cluster->durability_->ResumeAppending());

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cluster->recovery_stats_ = stats;
  if (options.trace != nullptr) {
    auto args = stats.TraceArgs();
    args.insert(args.begin(), {"shards", std::to_string(shards)});
    options.trace->Span(obs::TraceEventKind::kRecovery, trace_start,
                        /*shard=*/-1, std::move(args), "cluster_recover");
  }
  if (stats_out != nullptr) *stats_out = stats;
  return cluster;
}

Status ClusterService::Share(NodeId u) {
  obs::ScopedLatency latency(replaying_ ? nullptr : share_us_);
  if (u >= map_.num_nodes()) {
    return Status::InvalidArgument(StrFormat("unknown user %u", u));
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  const uint32_t s = map_.ShardOf(u);
  if (shards_[s] == nullptr) {
    return Status::Unavailable(
        StrFormat("shard %u hosting user %u is down", s, u));
  }
  // In-flight up BEFORE the seq draw, down after publication: together with
  // next_seq_ this lets audits prove a read window was share-free (any
  // overlapping share is caught in flight at one end of the window or moved
  // the counter in between).
  shares_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_seq_cst);
  // The shard serves the event under the global sequence number, so local
  // feeds order by cluster-wide share order and merged queries read
  // event_id directly. (On a shard error the seq is burned — gaps are
  // harmless, the oracle only ever sees published numbers.)
  Status st = shards_[s]->Share(map_.LocalId(u), seq);
  if (st.ok()) {
    // The stripe serializes the writers of u's history and replica slots;
    // the slot insert is sorted from the tail, so a thread that drew an
    // earlier seq but reached the stripe later still lands in order.
    std::lock_guard<std::mutex> stripe(StripeFor(u));
    seqs_.Insert(u, seq);
    const size_t fanout = cross_.Publish(u, seq);
    per_shard_requests_[s]->Add();
    // Sending the batched fan-out is work on the producer's shard (the
    // receiving shards are charged inside Publish) — and it follows the
    // producer when it migrates, so it counts toward the user's load too.
    per_user_load_[u].fetch_add(1 + fanout, std::memory_order_relaxed);
    if (fanout > 0) per_shard_fanout_[s]->Add(fanout);
    shares_->Add();
  }
  shares_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
  return st;
}

Result<std::vector<EventTuple>> ClusterService::QueryStream(NodeId u) {
  const bool audit =
      options_.audit_every > 0 &&
      (queries_since_audit_.fetch_add(1, std::memory_order_relaxed) + 1) %
              options_.audit_every ==
          0;
  obs::ScopedLatency latency(replaying_ ? nullptr : query_us_);
  if (u >= map_.num_nodes()) {
    return Status::InvalidArgument(StrFormat("unknown user %u", u));
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  const uint32_t s = map_.ShardOf(u);
  if (shards_[s] == nullptr) {
    return Status::Unavailable(
        StrFormat("shard %u hosting user %u is down", s, u));
  }
  AuditToken token;
  if (audit) {
    token.quiescent =
        shares_in_flight_.load(std::memory_order_seq_cst) == 0;
    token.next_seq = next_seq_.load(std::memory_order_seq_cst);
  }
  PIGGY_ASSIGN_OR_RETURN(std::vector<EventTuple> local,
                         shards_[s]->QueryStream(map_.LocalId(u)));
  per_shard_requests_[s]->Add();
  per_user_load_[u].fetch_add(1, std::memory_order_relaxed);
  queries_->Add();

  // Bounded newest-k merge over sources that are each already sorted (see
  // store/newest_k_merge.h), started from the shard feed: newest-first,
  // duplicate-free and at most feed_size long. Its events carry global
  // sequence numbers (shares are routed with explicit seqs, so event_id ==
  // timestamp == seq, as Offer(seq, producer) builds them); only the
  // producer ids need the global rewrite.
  for (EventTuple& e : local) e.producer = map_.GlobalId(s, e.producer);
  NewestKMerge merge(feed_size_, std::move(local));

  // Remote sources, read lock-free from their seqlocked slots: push
  // replicas materialized in u's own shard (free), and the histories of
  // pulled producers (one batched message per touched shard). Every slot is
  // prefetched first so the cache misses overlap instead of queueing.
  std::span<const PushSource> pushes = cross_.PushSources(u);
  std::span<const uint32_t> pull_shards = cross_.PullShards(u);
  if (!pushes.empty() || !pull_shards.empty()) {
    for (const PushSource& p : pushes) seqs_.Prefetch(p.slot);
    for (uint32_t remote : pull_shards) {
      for (NodeId producer : cross_.PullProducers(u, remote)) {
        seqs_.Prefetch(producer);
      }
    }
    std::vector<uint64_t> seqs(feed_size_);
    auto offer = [&](SeqSlots::SlotId slot, NodeId producer) {
      merge.OfferAscending({seqs.data(), seqs_.Read(slot, seqs.data())},
                           producer);
    };
    for (const PushSource& p : pushes) offer(p.slot, p.producer);
    for (uint32_t remote : pull_shards) {
      for (NodeId producer : cross_.PullProducers(u, remote)) {
        // Serving this pull is work on the *producer's* shard — attribute
        // it to the producer so PerUserLoad follows the work when it moves.
        per_user_load_[producer].fetch_add(1, std::memory_order_relaxed);
        offer(producer, producer);
      }
    }
    cross_.CountQueryFanout(pull_shards);
  }
  std::vector<EventTuple> stream = std::move(merge).Take();

  if (audit) {
    PIGGY_RETURN_NOT_OK(AuditMerged(u, stream, token));
    audited_queries_->Add();
  }
  return stream;
}

Status ClusterService::AuditMerged(NodeId u,
                                   const std::vector<EventTuple>& stream,
                                   const AuditToken& token) {
  auto followees = graph_.InNeighbors(u);
  auto allowed = [&](NodeId producer) {
    return producer == u ||
           std::binary_search(followees.begin(), followees.end(), producer);
  };
  // Soundness: only events of followed producers, newest-first, no repeats.
  // Always checkable — racing shares can only add events, never forge one.
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!allowed(stream[i].producer)) {
      return Status::Internal(StrFormat("merged stream of %u leaks producer %u",
                                        u, stream[i].producer));
    }
    if (i > 0 && stream[i].event_id >= stream[i - 1].event_id) {
      return Status::Internal(
          StrFormat("merged stream of %u not newest-first at %zu", u, i));
    }
  }

  // Completeness needs a share-free read window (the token's quiescence
  // protocol, mirroring Prototype::AuditToken) and untrimmed shard views
  // (same guard as Prototype::AuditStream).
  if (!token.quiescent ||
      shares_in_flight_.load(std::memory_order_seq_cst) != 0 ||
      next_seq_.load(std::memory_order_seq_cst) != token.next_seq) {
    return Status::OK();
  }
  const uint32_t s = map_.ShardOf(u);
  PIGGY_ASSIGN_OR_RETURN(const uint64_t trimmed,
                         shards_[s]->TrimmedEvents());
  if (trimmed > 0) return Status::OK();

  std::vector<std::pair<uint64_t, NodeId>> oracle;
  auto add_producer = [&](NodeId p) {
    for (uint64_t seq : seqs_.Snapshot(p)) oracle.emplace_back(seq, p);
  };
  add_producer(u);
  for (NodeId p : followees) add_producer(p);
  // The history snapshots above sit outside the window the recheck proved
  // share-free: a share landing between the recheck and a snapshot would put
  // an event in the oracle the stream never saw. Re-verify before comparing
  // (a share starting after this line cannot have touched the reads above).
  if (shares_in_flight_.load(std::memory_order_seq_cst) != 0 ||
      next_seq_.load(std::memory_order_seq_cst) != token.next_seq) {
    return Status::OK();
  }
  std::sort(oracle.begin(), oracle.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (oracle.size() > feed_size_) oracle.resize(feed_size_);
  if (oracle.size() != stream.size()) {
    return Status::Internal(StrFormat("merged stream of %u has %zu events, oracle %zu",
                                      u, stream.size(), oracle.size()));
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (stream[i].event_id != oracle[i].first ||
        stream[i].producer != oracle[i].second) {
      return Status::Internal(
          StrFormat("merged stream of %u diverges from oracle at %zu", u, i));
    }
  }
  return Status::OK();
}

Status ClusterService::ApplyChurnLocked() {
  ++churn_ops_;
  return MaybeSnapshotLocked();
}

Status ClusterService::MaybeSnapshotLocked() {
  // During WAL replay snapshots don't rotate mid-recovery.
  if (replaying_ || durability_ == nullptr ||
      options_.durability.snapshot_every == 0 ||
      durability_->records_since_snapshot() <
          options_.durability.snapshot_every) {
    return Status::OK();
  }
  return WriteSnapshotLocked();
}

Status ClusterService::Follow(NodeId follower, NodeId producer) {
  if (follower >= map_.num_nodes() || producer >= map_.num_nodes()) {
    return Status::InvalidArgument("unknown user in Follow");
  }
  if (follower == producer) {
    return Status::InvalidArgument("users may not follow themselves");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (graph_.HasEdge(producer, follower)) return Status::OK();
  const uint32_t sp = map_.ShardOf(producer);
  const uint32_t sc = map_.ShardOf(follower);
  if (sp == sc && shards_[sp] == nullptr) {
    return Status::Unavailable(StrFormat("shard %u is down", sp));
  }
  // Cluster WAL first, shard second: a crash in between leaves the record
  // without the shard edge, and replay heals it (routing the record through
  // this same path is idempotent on the already-applied side).
  if (durability_ != nullptr && !replaying_) {
    PIGGY_RETURN_NOT_OK(durability_->LogChurn(true, producer, follower));
  }
  if (sp == sc) {
    PIGGY_RETURN_NOT_OK(
        shards_[sp]->Follow(map_.LocalId(follower), map_.LocalId(producer)));
  } else {
    // Exclusive cluster lock: no share is mid-publication, so the history
    // the replica backfills from is stable without its stripe.
    cross_.AddEdge(producer, sp, follower, sc,
                   DecideMode(workload_, producer, follower));
  }
  graph_.AddEdge(producer, follower);
  if (migration_active_) {
    migration_journal_.push_back(MigrationJournalEntry{
        MigrationJournalEntry::Kind::kFollow, producer, follower, 0, 0});
  }
  return ApplyChurnLocked();
}

Status ClusterService::Unfollow(NodeId follower, NodeId producer) {
  if (follower >= map_.num_nodes() || producer >= map_.num_nodes()) {
    return Status::InvalidArgument("unknown user in Unfollow");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!graph_.HasEdge(producer, follower)) return Status::OK();
  const uint32_t sp = map_.ShardOf(producer);
  const uint32_t sc = map_.ShardOf(follower);
  if (sp == sc && shards_[sp] == nullptr) {
    return Status::Unavailable(StrFormat("shard %u is down", sp));
  }
  if (durability_ != nullptr && !replaying_) {
    PIGGY_RETURN_NOT_OK(durability_->LogChurn(false, producer, follower));
  }
  if (sp == sc) {
    PIGGY_RETURN_NOT_OK(
        shards_[sp]->Unfollow(map_.LocalId(follower), map_.LocalId(producer)));
  } else {
    cross_.RemoveEdge(producer, follower);
  }
  graph_.RemoveEdge(producer, follower);
  if (migration_active_) {
    migration_journal_.push_back(MigrationJournalEntry{
        MigrationJournalEntry::Kind::kUnfollow, producer, follower, 0, 0});
  }
  return ApplyChurnLocked();
}

Status ClusterService::SetUserRates(NodeId u, double production,
                                    double consumption) {
  if (u >= map_.num_nodes()) {
    return Status::InvalidArgument(StrFormat("unknown user %u", u));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  const uint32_t s = map_.ShardOf(u);
  if (shards_[s] == nullptr) {
    return Status::Unavailable(
        StrFormat("shard %u hosting user %u is down", s, u));
  }
  if (durability_ != nullptr && !replaying_) {
    PIGGY_RETURN_NOT_OK(durability_->LogRateShift(u, production, consumption));
  }
  workload_.production[u] = production;
  workload_.consumption[u] = consumption;
  PIGGY_RETURN_NOT_OK(
      shards_[s]->SetUserRates(map_.LocalId(u), production, consumption));
  if (migration_active_) {
    migration_journal_.push_back(MigrationJournalEntry{
        MigrationJournalEntry::Kind::kRate, u, 0, production, consumption});
  }
  return MaybeSnapshotLocked();
}

Status ClusterService::KillShard(uint32_t s) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (s >= shards_.size()) {
    return Status::InvalidArgument(StrFormat("unknown shard %u", s));
  }
  if (durability_ == nullptr) {
    return Status::FailedPrecondition(
        "KillShard requires durability (the shard state would be lost)");
  }
  if (shards_[s] == nullptr) return Status::OK();
  // Orderly drop: the FeedService destructor flushes the shard WAL. Crash
  // semantics — lost buffered appends, torn tails — are exercised through
  // the FailPoint registry instead.
  shards_[s].reset();
  registry_.GetCounter("cluster.shard_kills").Add();
  if (options_.trace != nullptr) {
    options_.trace->Instant(obs::TraceEventKind::kShardKill,
                            static_cast<int32_t>(s));
  }
  return Status::OK();
}

Status ClusterService::RestartShard(uint32_t s) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (s >= shards_.size()) {
    return Status::InvalidArgument(StrFormat("unknown shard %u", s));
  }
  if (durability_ == nullptr) {
    return Status::FailedPrecondition("RestartShard requires durability");
  }
  if (shards_[s] != nullptr) return Status::OK();
  const double trace_start =
      options_.trace != nullptr ? options_.trace->NowUs() : 0;
  RecoveryStats rs;
  PIGGY_ASSIGN_OR_RETURN(shards_[s],
                         FeedService::Recover(ShardOptions(s, shard_gen_[s]), &rs));
  recovery_stats_.Accumulate(rs);
  registry_.GetCounter("cluster.shard_restarts").Add();
  if (options_.trace != nullptr) {
    options_.trace->Span(obs::TraceEventKind::kShardRestart, trace_start,
                         static_cast<int32_t>(s), rs.TraceArgs());
  }
  return Status::OK();
}

bool ClusterService::IsShardDown(uint32_t s) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PIGGY_CHECK_LT(s, shards_.size());
  return shards_[s] == nullptr;
}

void ClusterService::IndexCrossEdges() {
  graph_.ForEachEdge([&](const Edge& e) {
    const uint32_t sp = map_.ShardOf(e.src);
    const uint32_t sc = map_.ShardOf(e.dst);
    if (sp == sc) return;
    cross_.AddEdge(e.src, sp, e.dst, sc, DecideMode(workload_, e.src, e.dst));
  });
}

void ClusterService::RepairCrossEdges(const std::vector<NodeId>& moved_users) {
  // Every edge whose cross-ness or endpoint shards changed has at least one
  // moved endpoint (a shard map swap cannot re-place anyone else), so walking
  // the moved users' incident edges covers the whole repair. Edges between
  // two moved users show up twice; dedupe.
  U64Set seen(moved_users.size() * 4);
  auto repair = [&](NodeId p, NodeId c) {
    if (!seen.Insert(EdgeKey(p, c))) return;
    if (cross_.HasEdge(p, c)) cross_.RemoveEdge(p, c);
    const uint32_t sp = map_.ShardOf(p);
    const uint32_t sc = map_.ShardOf(c);
    if (sp != sc) {
      // Exclusive cluster lock: no share is mid-publication, so the history
      // is stable without its stripe (same argument as Follow).
      cross_.AddEdge(p, sp, c, sc, DecideMode(workload_, p, c));
    }
  };
  for (NodeId u : moved_users) {
    for (NodeId follower : graph_.OutNeighbors(u)) repair(u, follower);
    for (NodeId producer : graph_.InNeighbors(u)) repair(producer, u);
  }
}

Status ClusterService::MigrateUsers(const std::vector<UserMove>& moves) {
  if (moves.empty()) return Status::OK();

  // --- Freeze (exclusive): validate the batch, snapshot everything the
  // rebuild needs, and start journaling concurrent churn/rate mutations. ----
  std::vector<UserMove> effective;
  std::vector<uint32_t> affected;   // sorted shard ids with membership churn
  std::vector<uint64_t> build_gen;  // per affected index: directory gen to build
  std::optional<ShardMap> new_map;
  Graph frozen_graph;
  Workload frozen_workload;
  uint64_t frozen_next_seq = 0;
  // seeds[i][local] = frozen share history of affected[i]'s local user under
  // the NEW map.
  std::vector<std::vector<std::vector<uint64_t>>> seeds;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (migration_active_) {
      return Status::FailedPrecondition(
          "another user migration is in flight");
    }
    std::vector<uint32_t> new_assignment = map_.assignment();
    std::vector<uint8_t> moving(map_.num_nodes(), 0);
    for (const UserMove& m : moves) {
      if (m.user >= map_.num_nodes()) {
        return Status::InvalidArgument(StrFormat("unknown user %u", m.user));
      }
      if (m.to >= map_.num_shards()) {
        return Status::InvalidArgument(
            StrFormat("unknown destination shard %u", m.to));
      }
      if (moving[m.user]) {
        return Status::InvalidArgument(
            StrFormat("user %u moved twice in one batch", m.user));
      }
      moving[m.user] = 1;
      if (map_.ShardOf(m.user) == m.to) continue;  // no-op move
      effective.push_back(m);
      new_assignment[m.user] = m.to;
    }
    if (effective.empty()) return Status::OK();

    std::vector<uint8_t> is_affected(map_.num_shards(), 0);
    for (const UserMove& m : effective) {
      is_affected[map_.ShardOf(m.user)] = 1;
      is_affected[m.to] = 1;
    }
    for (uint32_t s = 0; s < map_.num_shards(); ++s) {
      if (!is_affected[s]) continue;
      if (shards_[s] == nullptr) {
        return Status::Unavailable(
            StrFormat("shard %u involved in the migration is down", s));
      }
      affected.push_back(s);
      build_gen.push_back(shard_gen_[s] + 1);
    }

    auto map_or = ShardMap::FromAssignment(std::move(new_assignment),
                                           map_.num_shards());
    if (!map_or.ok()) return map_or.status();
    new_map.emplace(std::move(map_or).MoveValueOrDie());

    PIGGY_ASSIGN_OR_RETURN(frozen_graph, graph_.Snapshot());
    frozen_workload = workload_;
    frozen_next_seq = next_seq_.load(std::memory_order_seq_cst);
    // Exclusive lock: no share sits between its seq draw and its history
    // publication, so every published seq is < frozen_next_seq and the
    // histories are stable without their stripes.
    seeds.resize(affected.size());
    for (size_t i = 0; i < affected.size(); ++i) {
      const std::vector<NodeId>& members = new_map->Members(affected[i]);
      seeds[i].resize(members.size());
      for (size_t l = 0; l < members.size(); ++l) {
        seeds[i][l] = seqs_.Snapshot(members[l]);
      }
    }
    migration_active_ = true;
    migration_journal_.clear();
  }
  const double migrate_start =
      options_.trace != nullptr ? options_.trace->NowUs() : 0;
  if (options_.trace != nullptr) {
    options_.trace->Instant(
        obs::TraceEventKind::kMigrationBegin, /*shard=*/-1,
        {{"users", std::to_string(effective.size())},
         {"shards", std::to_string(affected.size())}});
  }

  // --- Build (no lock): every affected shard's FeedService is rebuilt on its
  // new induced subgraph and seeded with the frozen histories, while Shares
  // and QueryStreams keep flowing against the old placement. With durability
  // each rebuild writes the next generation directory — migrated users' WAL
  // records land in the destination shard's own log. ------------------------
  std::vector<std::unique_ptr<FeedService>> rebuilt(affected.size());
  const Status built = ShardFanOut(affected.size(), [&](size_t i) -> Status {
    const uint32_t s = affected[i];
    const FeedServiceOptions opts = ShardOptions(s, build_gen[i]);
    if (opts.durability.enabled()) {
      // A crashed earlier migration may have left this generation behind
      // (Create refuses a non-empty directory).
      std::error_code ec;
      std::filesystem::remove_all(opts.durability.data_dir, ec);
    }
    PIGGY_ASSIGN_OR_RETURN(Graph subgraph,
                           new_map->InducedSubgraph(frozen_graph, s));
    PIGGY_ASSIGN_OR_RETURN(
        rebuilt[i],
        FeedService::Create(subgraph,
                            new_map->ProjectWorkload(frozen_workload, s), opts));
    // Seed the frozen histories under their original global seqs — feeds
    // keep their cluster-wide order, and the events are WAL-logged into
    // the destination's own directory.
    const std::vector<NodeId>& members = new_map->Members(s);
    for (size_t l = 0; l < members.size(); ++l) {
      for (uint64_t seq : seeds[i][l]) {
        PIGGY_RETURN_NOT_OK(rebuilt[i]->Share(static_cast<NodeId>(l), seq));
      }
    }
    return Status::OK();
  }, "rebuilding shard", affected.data());

  // --- Publish (exclusive): catch the rebuilt shards up on everything that
  // happened during the build, then commit durably. -------------------------
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto catch_up_and_commit = [&]() -> Status {
    for (uint32_t s : affected) {
      if (shards_[s] == nullptr) {
        return Status::Unavailable(
            StrFormat("shard %u went down during the migration build", s));
      }
    }
    // Share delta: seqs that arrived while the build ran (exclusive lock
    // again, so histories are stable; frozen seqs are all < frozen_next_seq,
    // so there is no overlap with the seeded prefix).
    for (size_t i = 0; i < affected.size(); ++i) {
      const std::vector<NodeId>& members = new_map->Members(affected[i]);
      for (size_t l = 0; l < members.size(); ++l) {
        for (uint64_t seq : seqs_.Snapshot(members[l])) {
          if (seq < frozen_next_seq) continue;
          PIGGY_RETURN_NOT_OK(rebuilt[i]->Share(static_cast<NodeId>(l), seq));
        }
      }
    }
    // Journaled churn + rate shifts. Only same-shard edges of affected shards
    // matter here: cross edges live in the router (repaired at the swap), and
    // unaffected shards kept serving their own churn all along.
    std::vector<int64_t> rebuilt_index(map_.num_shards(), -1);
    for (size_t i = 0; i < affected.size(); ++i) {
      rebuilt_index[affected[i]] = static_cast<int64_t>(i);
    }
    for (const MigrationJournalEntry& e : migration_journal_) {
      if (e.kind == MigrationJournalEntry::Kind::kRate) {
        const uint32_t s = new_map->ShardOf(e.producer);
        if (rebuilt_index[s] < 0) continue;
        PIGGY_RETURN_NOT_OK(
            rebuilt[static_cast<size_t>(rebuilt_index[s])]->SetUserRates(
                new_map->LocalId(e.producer), e.rp, e.rc));
        continue;
      }
      const uint32_t sp = new_map->ShardOf(e.producer);
      const uint32_t sc = new_map->ShardOf(e.follower);
      if (sp != sc || rebuilt_index[sp] < 0) continue;
      FeedService& svc = *rebuilt[static_cast<size_t>(rebuilt_index[sp])];
      PIGGY_RETURN_NOT_OK(e.kind == MigrationJournalEntry::Kind::kFollow
                              ? svc.Follow(new_map->LocalId(e.follower),
                                           new_map->LocalId(e.producer))
                              : svc.Unfollow(new_map->LocalId(e.follower),
                                             new_map->LocalId(e.producer)));
    }
    if (durability_ == nullptr) return Status::OK();
    // Snapshots the seeding cut in the background land before the commit:
    // a migration returns with its generations' snapshots on disk.
    for (const std::unique_ptr<FeedService>& svc : rebuilt) {
      PIGGY_RETURN_NOT_OK(svc->WaitForSnapshotPublish());
    }
    // Migration-commit markers on both sides of every move, then the atomic
    // assignment re-point — THE durable commit. A crash before the rename
    // recovers the old placement (the new directories are orphans); after
    // it, the new one. Feeds are placement-independent, so either side
    // recovers the exact acked state.
    for (size_t i = 0; i < affected.size(); ++i) {
      PIGGY_RETURN_NOT_OK(shards_[affected[i]]->LogMigrationCommit());
      PIGGY_RETURN_NOT_OK(rebuilt[i]->LogMigrationCommit());
    }
    if (FailPointRegistry::Instance().Hit("migration.commit") !=
        FailPointAction::kOff) {
      return Status::IOError("failpoint migration.commit");
    }
    std::vector<uint64_t> new_gens = shard_gen_;
    for (size_t i = 0; i < affected.size(); ++i) {
      new_gens[affected[i]] = build_gen[i];
    }
    return WriteAssignment(*new_map, new_gens,
                           AssignmentPath(options_.durability.data_dir));
  };
  const Status committed = built.ok() ? catch_up_and_commit() : built;
  // The journal is consumed by the commit or abandoned with it.
  migration_active_ = false;
  migration_journal_.clear();
  if (!committed.ok()) {
    // Abort: drop the half-built generation directories (what Recover's
    // orphan scan would do after a crash at the same point).
    if (options_.durability.enabled()) {
      for (size_t i = 0; i < affected.size(); ++i) {
        std::error_code ec;
        std::filesystem::remove_all(
            ShardOptions(affected[i], build_gen[i]).durability.data_dir, ec);
      }
    }
    return committed;
  }
  if (durability_ != nullptr &&
      FailPointRegistry::Instance().Hit("migration.cutover") !=
          FailPointAction::kOff) {
    // Disk already committed the move, so the new directories must survive.
    // Fail-stop model: the caller recovers the cluster and lands on the new
    // placement.
    return Status::IOError("failpoint migration.cutover");
  }

  // --- In-memory commit (infallible): swap the map, the rebuilt services
  // and the router's cross-edge state. Queries were served from the source
  // shards up to this exclusive section; from here they hit the
  // destinations — no serving gap in between. -------------------------------
  std::vector<NodeId> moved_users;
  moved_users.reserve(effective.size());
  for (const UserMove& m : effective) moved_users.push_back(m.user);
  std::vector<std::string> old_dirs;
  if (options_.durability.enabled()) {
    for (size_t i = 0; i < affected.size(); ++i) {
      old_dirs.push_back(ShardOptions(affected[i], shard_gen_[affected[i]])
                             .durability.data_dir);
    }
  }
  map_ = std::move(*new_map);
  for (size_t i = 0; i < affected.size(); ++i) {
    const uint32_t s = affected[i];
    // The replaced service flushes its WAL in its destructor (orderly
    // handoff, like KillShard).
    shards_[s] = std::move(rebuilt[i]);
    shard_gen_[s] = build_gen[i];
  }
  RepairCrossEdges(moved_users);
  migrations_->Add();
  migrated_users_->Add(effective.size());
  if (options_.trace != nullptr) {
    options_.trace->Span(
        obs::TraceEventKind::kMigrationEnd, migrate_start, /*shard=*/-1,
        {{"users", std::to_string(effective.size())},
         {"shards", std::to_string(affected.size())}});
  }
  lock.unlock();

  // Superseded generations are garbage now; a crash that skips this cleanup
  // is healed by Recover's orphan scan.
  for (const std::string& dir : old_dirs) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return Status::OK();
}

std::vector<uint64_t> ClusterService::PerUserLoad() const {
  std::vector<uint64_t> out(per_user_load_.size());
  for (size_t u = 0; u < out.size(); ++u) {
    out[u] = per_user_load_[u].load(std::memory_order_relaxed);
  }
  return out;
}

Result<Graph> ClusterService::GraphSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return graph_.Snapshot();
}

Status ClusterService::WriteSnapshotLocked() {
  if (durability_ == nullptr) return Status::OK();
  SnapshotData data;
  data.next_seq = next_seq_.load(std::memory_order_seq_cst);
  data.production = workload_.production;
  data.consumption = workload_.consumption;
  // No schedule and no events at the cluster level: the shards own both.
  return durability_->WriteSnapshot(std::move(data));
}

Status ClusterService::Replan() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return ShardFanOut(shards_.size(), [&](size_t s) {
    if (shards_[s] == nullptr) return Status::OK();  // killed shard
    return shards_[s]->Replan();
  });
}

Status ClusterService::StartBackgroundReplan() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const std::unique_ptr<FeedService>& shard : shards_) {
    if (shard == nullptr) continue;  // killed shard
    PIGGY_RETURN_NOT_OK(shard->StartBackgroundReplan());
  }
  return Status::OK();
}

Status ClusterService::WaitForBackgroundReplan() {
  // Shared cluster lock: shard replanners publish under their own locks, so
  // serving proceeds throughout the wait, and a concurrent KillShard (an
  // exclusive acquirer) cannot destroy a service out from under the loop.
  std::shared_lock<std::shared_mutex> lock(mu_);
  Status first = Status::OK();
  for (const std::unique_ptr<FeedService>& shard : shards_) {
    if (shard == nullptr) continue;  // killed shard
    Status st = shard->WaitForBackgroundReplan();
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

std::pair<double, double> ClusterService::CostsUnder(const Workload& truth) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  double intra = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s] == nullptr) continue;  // killed shard
    const Workload local =
        map_.ProjectWorkload(truth, static_cast<uint32_t>(s));
    intra += shards_[s]->CostsUnder(local).first;
  }
  // The baseline ignores placement: one unsharded deployment's hybrid cost.
  return {intra + cross_.PredictedCost(truth), HybridCost(graph_, truth)};
}

ClusterMetrics ClusterService::GetMetrics() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ClusterMetrics m;
  m.shards = shards_.size();
  m.partitioner = options_.partitioner;
  m.cross_edges = cross_.num_edges();
  m.replicas = cross_.num_replicas();
  m.cross_cost = cross_.PredictedCost(workload_);
  m.churn_ops = churn_ops_;
  m.shares = shares_->Value();
  m.queries = queries_->Value();
  m.audited_queries = audited_queries_->Value();
  const CrossTraffic traffic = cross_.traffic();
  m.cross_update_messages = traffic.update_messages;
  m.cross_query_messages = traffic.query_messages;
  m.per_shard_requests.resize(per_shard_requests_.size());
  for (size_t s = 0; s < per_shard_requests_.size(); ++s) {
    m.per_shard_requests[s] = per_shard_requests_[s]->Value();
  }
  m.imbalance = obs::MaxOverMean(m.per_shard_requests);
  m.per_shard_replicas = cross_.replicas_per_shard();
  cross_.PerShardTraffic(&m.per_shard_cross_updates,
                         &m.per_shard_cross_queries);
  // Work landing on a shard = requests routed to it + replica updates written
  // into it + pull batches it served for remote consumers + fan-out batches
  // its own producers sent.
  m.per_shard_sends.resize(per_shard_fanout_.size());
  m.per_shard_work.resize(m.per_shard_requests.size());
  for (size_t s = 0; s < m.per_shard_requests.size(); ++s) {
    m.per_shard_sends[s] = per_shard_fanout_[s]->Value();
    m.per_shard_work[s] = m.per_shard_requests[s] +
                          m.per_shard_cross_updates[s] +
                          m.per_shard_cross_queries[s] + m.per_shard_sends[s];
  }
  m.migrations = migrations_->Value();
  m.migrated_users = migrated_users_->Value();
  m.recovery = recovery_stats_;

  // Messages issued by the shard-local clients; exact despite going through
  // the per-request ratio (a shard with zero requests sent zero messages).
  double shard_messages = 0;
  for (const std::unique_ptr<FeedService>& shard : shards_) {
    if (shard == nullptr) continue;  // killed shard
    const FeedService::Metrics sm = shard->GetMetrics();
    m.planner = sm.planner;
    m.intra_cost += sm.schedule_cost;
    m.replans += sm.replans;
    m.drift_replans += sm.drift_replans;
    m.max_drift_score = std::max(m.max_drift_score, sm.drift_score);
    m.repairs += sm.repairs;
    m.interest_bytes += sm.interest_bytes;
    shard_messages +=
        sm.messages_per_request * static_cast<double>(sm.shares + sm.queries);
  }
  if (graph_.num_edges() > 0) {
    m.interest_bytes_per_edge = static_cast<double>(m.interest_bytes) /
                                static_cast<double>(graph_.num_edges());
  }
  m.total_cost = m.intra_cost + m.cross_cost;
  const uint64_t requests = m.shares + m.queries;
  if (requests > 0) {
    // Lifetime average, so the one-off backfill messages of setup and
    // cross-shard Follows are included.
    m.messages_per_request =
        (shard_messages +
         static_cast<double>(m.cross_update_messages + m.cross_query_messages)) /
        static_cast<double>(requests);
  }
  return m;
}

Status ClusterService::Validate() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s] == nullptr) continue;  // killed shard
    Status st = shards_[s]->Validate();
    if (!st.ok()) {
      return Status(st.code(), StrFormat("shard %zu: %s", s, st.message().c_str()));
    }
  }
  // Every cluster edge must have exactly one serving owner: its shard's
  // schedule (same-shard) or the router (cross-shard).
  Status st = Status::OK();
  size_t cross_seen = 0;
  graph_.ForEachEdge([&](const Edge& e) {
    if (!st.ok()) return;
    const uint32_t sp = map_.ShardOf(e.src);
    const uint32_t sc = map_.ShardOf(e.dst);
    if (sp == sc) {
      if (shards_[sp] == nullptr) return;  // shard graph unreachable while killed
      if (!shards_[sp]->graph().HasEdge(map_.LocalId(e.src), map_.LocalId(e.dst))) {
        st = Status::Internal(StrFormat("edge %u->%u missing from shard %u",
                                        e.src, e.dst, sp));
      } else if (cross_.HasEdge(e.src, e.dst)) {
        st = Status::Internal(StrFormat("same-shard edge %u->%u tracked by router",
                                        e.src, e.dst));
      }
    } else {
      ++cross_seen;
      if (!cross_.HasEdge(e.src, e.dst)) {
        st = Status::Internal(StrFormat("cross edge %u->%u not tracked by router",
                                        e.src, e.dst));
      }
    }
  });
  PIGGY_RETURN_NOT_OK(st);
  if (cross_seen != cross_.num_edges()) {
    return Status::Internal(StrFormat("router tracks %zu cross edges, graph has %zu",
                                      cross_.num_edges(), cross_seen));
  }
  return Status::OK();
}

}  // namespace piggy
