// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload steady|cluster-wal --seed N --seconds S
//             --trace 0|1 --data-dir DIR [--commit ID]
//
// Runs one workload against the public FeedService / ClusterService API and
// prints, as its last stdout line, one JSON object with the run's
// correctness, op accounting and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits non-zero when a
// check fails.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "deployment.h"
#include "gen/presets.h"
#include "simd/dispatch.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using piggy::ClusterOptions;
using piggy::ClusterService;
using piggy::FeedService;
using piggy::FeedServiceOptions;
using piggy::Graph;
using piggy::Workload;

constexpr uint64_t kGraphSeed = 42;
constexpr size_t kAuditUsers = 32;
// Churn probe: chunks of timed Follow/Unfollow pairs, each after a few
// untimed ones.
constexpr size_t kProbeChunks = 16;
constexpr size_t kProbePairs = 512;
constexpr size_t kProbeWarmPairs = 64;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kRecoverRepeats = 3;
// WAL records per shard between snapshots: often enough that the requests
// caught behind snapshot writes are well over 1%, so share/query p99 on
// cluster-wal sit inside the snapshot stalls rather than at their edge.
constexpr uint64_t kSnapshotEvery = 20000;
// Share of the measured seconds spent in the open loop; the closed loop
// gets the rest (as an op count, see WorkloadConfig::closed_ops_per_s).
constexpr double kOpenShare = 0.6;
// The churn phase of traced single-service runs (MeasureChurnLayers): a
// fresh service warmed by kChurnWarmup requests, then kChurnRequests
// requests at kChurnRate per second with a follow or unfollow every
// kChurnEvery requests, and a background replan every kChurnReplanEvery
// churn ops.
constexpr size_t kChurnWarmup = 30000;
constexpr size_t kChurnRequests = 48000;
constexpr double kChurnRate = 12000;
constexpr size_t kChurnEvery = 4000;
constexpr size_t kChurnReplanEvery = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--data-dir") {
      args->data_dir = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds > 0;
}

/// One workload: graph, mix, deployment and offered load. The offered rates
/// sit well below what the seed sustains on a 4-core host (see README.md);
/// the closed loop runs a fixed op count per measured second so every commit
/// does the same work.
struct WorkloadConfig {
  std::string name;
  bool twitter = false;      ///< Twitter-like graph (else Flickr-like)
  size_t nodes = 20000;
  double read_write = 5;
  std::string planner = "nosy";
  size_t shards = 0;         ///< 0 = one FeedService
  double offered_rate = 0;   ///< open-loop requests per second
  double closed_ops_per_s = 0;
  /// Closed-loop requests before the window: views fill to capacity and
  /// the event log reaches a working size, so the window sees steady state.
  size_t warmup_requests = 0;
  bool durable = false;
  size_t rounds = 8;         ///< open + closed rounds of the window
};

bool ConfigFor(const std::string& name, WorkloadConfig* c) {
  c->name = name;
  if (name == "steady") {
    // About a seventh of capacity: nearer to it, the p99s queue behind
    // heavy shares and swing with the host far more than the service does.
    c->offered_rate = 70000;
    c->closed_ops_per_s = 250000;
    c->warmup_requests = 1000000;
    c->rounds = 16;
  } else if (name == "cluster-wal") {
    c->twitter = true;
    c->nodes = 30000;
    c->read_write = 1;
    c->planner = "chitchat";
    c->shards = 4;
    c->offered_rate = 115000;
    c->closed_ops_per_s = 125000;
    c->warmup_requests = 500000;
    c->durable = true;
  } else {
    return false;
  }
  return true;
}

piggy::DurabilityOptions Durability(const std::string& dir) {
  piggy::DurabilityOptions d;
  d.data_dir = dir;
  d.flush = piggy::WalFlushPolicy::kGroup;
  d.group_records = 64;
  d.use_fsync = false;
  d.snapshot_every = kSnapshotEvery;
  return d;
}

/// `replan_every` > 0 adds EveryN background replans.
FeedServiceOptions FeedOptions(const WorkloadConfig& c, size_t replan_every = 0) {
  FeedServiceOptions o;
  o.planner = c.planner;
  o.prototype.num_servers = c.shards > 0 ? 32 / c.shards : 32;
  if (replan_every > 0) {
    o.replan = piggy::ReplanPolicy::EveryN(replan_every);
    o.background_replan = true;
  }
  return o;
}

ClusterOptions MakeClusterOptions(const WorkloadConfig& c, const std::string& dir) {
  ClusterOptions o;
  o.num_shards = c.shards;
  o.partitioner = "edge-cut";
  o.shard = FeedOptions(c);
  o.durability = Durability(dir);
  return o;
}

Result<Deployment> Create(const WorkloadConfig& c, const Graph& g, const Workload& w,
                          const std::string& dir) {
  Deployment d;
  if (c.shards > 0) {
    PIGGY_ASSIGN_OR_RETURN(d.cluster, ClusterService::Create(g, w, MakeClusterOptions(c, dir)));
  } else {
    PIGGY_ASSIGN_OR_RETURN(d.feed, FeedService::Create(g, w, FeedOptions(c)));
  }
  return d;
}

/// Counters read around the measured window.
struct Counters {
  uint64_t requests = 0;    ///< requests served at the boundary
  double messages = 0;      ///< batched store messages, shard-local
  uint64_t cross_messages = 0;
  size_t rebuilds = 0;
  size_t repairs = 0;
  size_t churn_ops = 0;
  std::vector<uint64_t> shard_requests;
};

uint64_t CounterValue(const piggy::obs::MetricsRegistry& r, const std::string& name) {
  const piggy::obs::Counter* c = r.FindCounter(name);
  return c != nullptr ? c->Value() : 0;
}

Counters ReadCounters(Deployment& d) {
  Counters c;
  for (size_t s = 0; s < d.num_shards(); ++s) {
    const FeedService::Metrics m = d.shard(s).GetMetrics();
    const uint64_t requests = m.shares + m.queries;
    c.messages += m.messages_per_request * static_cast<double>(requests);
    c.rebuilds += m.serving_rebuilds;
    c.repairs += m.repairs;
    c.churn_ops += m.churn_ops;
    c.shard_requests.push_back(requests);
    c.requests += requests;
  }
  if (d.cluster) {
    const auto& reg = d.cluster->registry();
    c.requests = CounterValue(reg, "cluster.shares") + CounterValue(reg, "cluster.queries");
    for (size_t s = 0; s < d.num_shards(); ++s) {
      c.shard_requests[s] =
          CounterValue(reg, piggy::StrFormat("cluster.shard%02zu.requests", s));
    }
    const piggy::CrossTraffic t = d.cluster->cross_index().traffic();
    c.cross_messages = t.update_messages + t.query_messages;
  }
  return c;
}

/// Appends the latency (us) of each successful op of `kinds` in one phase,
/// counted from the due time (`from_due`) or from the call.
void AppendLatencies(const OpStream& s, const PhaseResult& r,
                     std::initializer_list<OpKind> kinds, bool from_due,
                     std::vector<double>* out) {
  for (size_t i = 0; i < s.ops.size(); ++i) {
    if (!r.ok[i] || std::find(kinds.begin(), kinds.end(), s.ops[i].kind) == kinds.end()) {
      continue;
    }
    const OpTiming& tm = r.timing[i];
    out->push_back((tm.end_ns - (from_due ? tm.due_ns : tm.start_ns)) * 1e-3);
  }
}

/// Percentile q of the latency of `kind` ops within each open-loop round;
/// the middle-half mean over the rounds.
double RoundPercentile(const std::vector<OpStream>& streams,
                       const std::vector<PhaseResult>& results, OpKind kind, double q) {
  std::vector<double> values;
  for (size_t r = 0; r < streams.size(); ++r) {
    std::vector<double> v;
    AppendLatencies(streams[r], results[r], {kind}, true, &v);
    if (!v.empty()) values.push_back(Percentile(v, q));
  }
  return MiddleMean(values);
}

/// Percentile q within each chunk of samples; the middle-half mean over the
/// chunks.
double ChunkedPercentile(std::vector<std::vector<double>> chunks, double q) {
  std::vector<double> values;
  for (std::vector<double>& c : chunks) {
    if (!c.empty()) values.push_back(Percentile(c, q));
  }
  return MiddleMean(values);
}

/// Call time of the first request issued after each churn op completed: the
/// request that finds the serving plane stale and pays its rebuild.
std::vector<double> PostChurnReads(const OpStream& s, const PhaseResult& r) {
  std::vector<std::pair<int64_t, int64_t>> reads;  // (start, end)
  std::vector<int64_t> churn_ends;
  for (size_t i = 0; i < s.ops.size(); ++i) {
    const OpTiming& tm = r.timing[i];
    const OpKind k = s.ops[i].kind;
    if (k == OpKind::kShare || k == OpKind::kQuery) {
      reads.emplace_back(tm.start_ns, tm.end_ns);
    } else if (r.ok[i]) {
      churn_ends.push_back(tm.end_ns);
    }
  }
  std::sort(reads.begin(), reads.end());
  std::vector<double> out;
  for (int64_t e : churn_ends) {
    auto it = std::lower_bound(reads.begin(), reads.end(), std::make_pair(e, int64_t{0}));
    if (it != reads.end()) out.push_back((it->second - it->first) * 1e-3);
  }
  return out;
}

/// Post-window audit rounds. For each sampled user u: a fresh run of shares
/// by k of u's followees (interleaved with shares by users u does not
/// follow) must come back as u's whole feed, newest first. With `churn`,
/// every fourth round first follows a new producer and unfollows a followee,
/// shares from both, and undoes the churn afterwards.
Status RunAudits(Deployment& d, const Endpoint& ep, Oracle& oracle, const Graph& g,
                 bool churn, uint64_t seed, size_t* attempted,
                 std::vector<NodeId>* audited) {
  piggy::Rng rng(piggy::Mix64(seed ^ 0xa0d17ULL));
  const size_t k = d.shard(0).options().prototype.feed_size;
  const size_t n = g.num_nodes();
  uint64_t floor_id = 0;
  auto share = [&](NodeId p) -> Status {
    ++*attempted;
    PIGGY_RETURN_NOT_OK(ep.share(p));
    oracle.Acked(p);
    return Status::OK();
  };
  auto random_non_followee = [&](NodeId u) {
    while (true) {
      const NodeId p = static_cast<NodeId>(rng.Uniform(n));
      if (p != u && !oracle.Follows(u, p)) return p;
    }
  };
  for (size_t round = 0; round < kAuditUsers; ++round) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    audited->push_back(u);
    const bool churned = churn && round % 4 == 0;
    NodeId added = u, dropped = u;
    if (churned) {
      added = random_non_followee(u);
      ++*attempted;
      PIGGY_RETURN_NOT_OK(ep.follow(u, added));
      oracle.Follow(u, added);
      std::vector<NodeId> followees;
      for (NodeId p : oracle.graph().InNeighbors(u)) {
        if (p != added) followees.push_back(p);
      }
      if (!followees.empty()) {
        dropped = followees[rng.Uniform(followees.size())];
        ++*attempted;
        PIGGY_RETURN_NOT_OK(ep.unfollow(u, dropped));
        oracle.Unfollow(u, dropped);
      }
    }
    std::vector<NodeId> interest(oracle.graph().InNeighbors(u).begin(),
                                 oracle.graph().InNeighbors(u).end());
    interest.push_back(u);
    std::vector<NodeId> expected;
    for (size_t i = 0; i < k; ++i) {
      const NodeId p = churned && i == 0 ? added : interest[rng.Uniform(interest.size())];
      PIGGY_RETURN_NOT_OK(share(p));
      expected.push_back(p);
      PIGGY_RETURN_NOT_OK(share(churned && dropped != u && i == 0 ? dropped
                                                                 : random_non_followee(u)));
    }
    ++*attempted;
    PIGGY_ASSIGN_OR_RETURN(std::vector<EventTuple> feed, ep.query(u));
    PIGGY_RETURN_NOT_OK(CheckAuditFeed(u, expected, feed, floor_id));
    for (const EventTuple& e : feed) floor_id = std::max(floor_id, e.event_id);
    if (churned) {
      *attempted += 2;
      PIGGY_RETURN_NOT_OK(ep.unfollow(u, added));
      oracle.Unfollow(u, added);
      if (dropped != u) {
        PIGGY_RETURN_NOT_OK(ep.follow(u, dropped));
        oracle.Follow(u, dropped);
      }
    }
  }
  return Status::OK();
}

/// Every event in the deployment's event logs, producers as global ids,
/// sorted by event id.
Result<std::vector<EventTuple>> GlobalLog(Deployment& d) {
  std::vector<EventTuple> all;
  for (size_t s = 0; s < d.num_shards(); ++s) {
    PIGGY_ASSIGN_OR_RETURN(piggy::Prototype * plane, d.shard(s).ServingPlane());
    for (EventTuple e : plane->EventLog()) {
      e.producer = d.GlobalId(static_cast<uint32_t>(s), e.producer);
      all.push_back(e);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const EventTuple& a, const EventTuple& b) { return a.event_id < b.event_id; });
  return all;
}

/// Runs `fn` on a thread pinned to the k-th CPU this process may use
/// (unpinned when affinity is unavailable) and waits for it.
template <typename Fn>
void RunOnCpu(size_t k, Fn fn) {
  std::thread worker([&] {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0 && CPU_COUNT(&allowed) > 0) {
      size_t seen = 0;
      const size_t target = k % static_cast<size_t>(CPU_COUNT(&allowed));
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &allowed) || seen++ != target) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        break;
      }
    }
    fn();
  });
  worker.join();
}

/// Follow/Unfollow pairs on edges absent from the graph, each call timed
/// (us); the graph ends as it started. The pairs run in kProbeChunks chunks,
/// chunk k on CPU k mod nproc, each opened by kProbeWarmPairs untimed pairs:
/// a single-threaded micro-op otherwise reads whichever core it landed on.
Result<std::vector<std::vector<double>>> ChurnProbe(const Endpoint& ep, const Oracle& oracle,
                                                    size_t n, uint64_t seed,
                                                    size_t* attempted) {
  piggy::Rng rng(piggy::Mix64(seed ^ 0xc4u));
  std::vector<std::vector<double>> chunks(kProbeChunks);
  Status status;
  for (size_t k = 0; k < kProbeChunks && status.ok(); ++k) {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    while (pairs.size() < kProbeWarmPairs + kProbePairs) {
      const NodeId f = static_cast<NodeId>(rng.Uniform(n));
      const NodeId p = static_cast<NodeId>(rng.Uniform(n));
      if (f != p && !oracle.Follows(f, p)) pairs.emplace_back(f, p);
    }
    RunOnCpu(k, [&] {
      for (size_t i = 0; i < pairs.size() && status.ok(); ++i) {
        for (bool follow : {true, false}) {
          const auto [f, p] = pairs[i];
          const Clock::time_point t0 = Clock::now();
          status = follow ? ep.follow(f, p) : ep.unfollow(f, p);
          const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
          ++*attempted;
          if (i >= kProbeWarmPairs) chunks[k].push_back(us);
          if (!status.ok()) break;
        }
      }
    });
  }
  if (!status.ok()) return status;
  return chunks;
}

/// core.plan_s / core.plan_cost_ratio: the planner alone on the run's input.
/// For the cluster, every shard's induced subgraph with one planner thread,
/// as the cluster plans them; the slowest shard's time.
Status MeasurePlan(const Deployment& d, const std::string& name, const Graph& g,
                   const Workload& w, MetricSet* m) {
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<piggy::Planner> planner, piggy::MakePlanner(name));
  double plan_s = 0, cost = 0, hybrid = 0;
  for (uint32_t s = 0; s < d.num_shards(); ++s) {
    Graph part;
    Workload pw = w;
    piggy::PlanContext ctx;
    if (d.cluster) {
      PIGGY_ASSIGN_OR_RETURN(part, d.cluster->shard_map().InducedSubgraph(g, s));
      pw = d.cluster->shard_map().ProjectWorkload(w, s);
      ctx.num_threads = 1;
    }
    const Clock::time_point t0 = Clock::now();
    PIGGY_ASSIGN_OR_RETURN(piggy::PlanResult plan,
                           planner->Plan(d.cluster ? part : g, pw, ctx));
    plan_s = std::max(plan_s, std::chrono::duration<double>(Clock::now() - t0).count());
    cost += plan.final_cost;
    hybrid += plan.hybrid_cost;
  }
  m->Set("core.plan_s", plan_s, "s");
  m->Set("core.plan_cost_ratio", hybrid > 0 ? cost / hybrid : 0, "ratio");
  return Status::OK();
}

/// Router metrics of the window, from registry counters and the cross-shard
/// index (0 for a single FeedService).
void RouterMetrics(Deployment& d, const Counters& before, const Counters& after,
                    MetricSet* m) {
  double cross_rate = 0, imbalance = 0, replicas = 0;
  if (d.cluster) {
    const uint64_t requests = std::max<uint64_t>(after.requests - before.requests, 1);
    cross_rate = static_cast<double>(after.cross_messages - before.cross_messages) /
                 static_cast<double>(requests);
    uint64_t max_r = 0, sum_r = 0;
    for (size_t s = 0; s < after.shard_requests.size(); ++s) {
      const uint64_t r = after.shard_requests[s] - before.shard_requests[s];
      max_r = std::max(max_r, r);
      sum_r += r;
    }
    imbalance = sum_r > 0 ? static_cast<double>(max_r) * static_cast<double>(d.num_shards()) /
                                static_cast<double>(sum_r)
                          : 0;
    replicas = static_cast<double>(d.cluster->cross_index().num_replicas()) /
               static_cast<double>(d.cluster->shard_map().num_nodes());
  }
  m->Set("cluster.cross_msgs_per_req", cross_rate, "count");
  m->Set("cluster.imbalance", imbalance, "ratio");
  m->Set("cluster.replicas_per_user", replicas, "count");
}

/// WAL append p99 and mean snapshot write time from the shard registries
/// (0 without durability).
void DurabilityMetrics(Deployment& d, MetricSet* m) {
  std::vector<uint64_t> append;
  const piggy::obs::Histogram* layout = nullptr;
  double snap_us = 0;
  uint64_t snaps = 0;
  if (d.cluster) {
    for (size_t s = 0; s < d.num_shards(); ++s) {
      piggy::obs::MetricsRegistry& reg = d.shard(s).registry();
      layout = &reg.GetHistogram("wal.append_us");
      const std::vector<uint64_t> slots = layout->MergedSlots();
      append.resize(slots.size(), 0);
      for (size_t i = 0; i < slots.size(); ++i) append[i] += slots[i];
      const piggy::obs::Histogram& snap = reg.GetHistogram("snapshot.write_us", 0.5, 1e8, 96);
      snap_us += snap.Sum();
      snaps += snap.Count();
    }
  }
  m->Set("durability.wal_append_us_p99",
         layout != nullptr ? SlotPercentile(*layout, append, 0.99) : 0, "us");
  m->Set("durability.snapshot_ms", snaps > 0 ? snap_us / static_cast<double>(snaps) / 1e3 : 0,
         "ms");
}

/// Orderly crash (the cluster is dropped; WALs flush on close), then
/// kRecoverRepeats timed Recover runs. The audited users' feeds and the
/// logged shares must come back identical. Sets the durability.recover_s,
/// wal_bytes_per_share and replayed_records metrics.
Status CrashAndRecover(Deployment& d, const std::vector<NodeId>& audited,
                       const std::vector<EventTuple>& log_before, size_t* attempted,
                       MetricSet* m) {
  std::vector<std::vector<EventTuple>> feeds;
  for (NodeId u : audited) {
    ++*attempted;
    PIGGY_ASSIGN_OR_RETURN(std::vector<EventTuple> feed, d.cluster->QueryStream(u));
    feeds.push_back(std::move(feed));
  }
  const ClusterOptions options = d.cluster->options();
  std::vector<double> times;
  piggy::RecoveryStats stats;
  for (size_t i = 0; i < kRecoverRepeats; ++i) {
    d.cluster.reset();
    const Clock::time_point t0 = Clock::now();
    PIGGY_ASSIGN_OR_RETURN(d.cluster,
                           ClusterService::Recover(options, i == 0 ? &stats : nullptr));
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  m->Set("durability.recover_s", Median(times), "s");
  m->Set("durability.wal_bytes_per_share",
         stats.replayed_shares > 0 ? static_cast<double>(stats.wal_valid_bytes) /
                                         static_cast<double>(stats.replayed_shares)
                                   : 0,
         "B");
  m->Set("durability.replayed_records", static_cast<double>(stats.wal_records), "count");
  for (size_t i = 0; i < audited.size(); ++i) {
    ++*attempted;
    PIGGY_ASSIGN_OR_RETURN(std::vector<EventTuple> feed, d.cluster->QueryStream(audited[i]));
    if (feed != feeds[i]) {
      return Status::Internal(piggy::StrFormat("feed of %u differs after Recover", audited[i]));
    }
  }
  PIGGY_ASSIGN_OR_RETURN(std::vector<EventTuple> log, GlobalLog(d));
  if (log != log_before) return Status::Internal("logged shares differ after Recover");
  return Status::OK();
}

/// The churn layers of a traced single-service run: Sec.-3.3 repair, the
/// lazy plane rebuild and background replans, on a second FeedService of the
/// same graph and mix with EveryN background replans. A fresh service keeps
/// the event log short: the window's service has logged a million shares by
/// now, and every churn op would rebuild its plane from all of them. Churn
/// audits then check the churned feeds against the oracle, every acked share
/// must be logged once, and the schedule must validate. Sets
/// store.rebuilds, store.rebuilds_per_churn, store.post_churn_read_us_p50,
/// core.repairs, core.repair_us_p50 and core.replan_s.
Status MeasureChurnLayers(const WorkloadConfig& c, const Graph& g, const Workload& w,
                          uint64_t seed, size_t threads, MetricSet* m, size_t* attempted) {
  Deployment d;
  PIGGY_ASSIGN_OR_RETURN(d.feed, FeedService::Create(g, w, FeedOptions(c, kChurnReplanEvery)));
  const Endpoint ep = d.MakeEndpoint();
  Oracle oracle(g);
  auto drive = [&](const OpStream& stream, const PhaseResult& r) -> Status {
    *attempted += r.attempted;
    if (r.failed > 0) return Status::Internal(r.first_error);
    oracle.Apply(stream, r);
    return Status::OK();
  };
  const OpStream warmup =
      MakeOpStream(g, w, kChurnWarmup, ChurnSpec{}, piggy::Mix64(seed ^ 0xc0ffeeULL));
  PIGGY_RETURN_NOT_OK(drive(warmup, RunClosedLoop(ep, warmup, threads, false)));
  const Counters before = ReadCounters(d);
  const OpStream churn = MakeOpStream(g, w, kChurnRequests, ChurnSpec{kChurnEvery},
                                      piggy::Mix64(seed ^ 0xc4a2ULL));
  const PhaseResult r = RunOpenLoop(ep, churn, threads, kChurnRate);
  PIGGY_RETURN_NOT_OK(drive(churn, r));
  PIGGY_RETURN_NOT_OK(d.feed->WaitForBackgroundReplan());
  const Counters after = ReadCounters(d);

  const size_t churn_ops = after.churn_ops - before.churn_ops;
  const size_t rebuilds = after.rebuilds - before.rebuilds;
  m->Set("store.rebuilds", static_cast<double>(rebuilds), "count");
  m->Set("core.repairs", static_cast<double>(after.repairs - before.repairs), "count");
  m->Set("store.rebuilds_per_churn",
         churn_ops > 0 ? static_cast<double>(rebuilds) / static_cast<double>(churn_ops) : 0,
         "ratio");
  std::vector<double> post = PostChurnReads(churn, r);
  m->Set("store.post_churn_read_us_p50", Percentile(post, 0.5), "us");
  // Repair cost as the caller sees it under load: the Follow/Unfollow call.
  std::vector<double> repair;
  AppendLatencies(churn, r, {OpKind::kFollow, OpKind::kUnfollow}, false, &repair);
  m->Set("core.repair_us_p50", Percentile(repair, 0.5), "us");
  const Clock::time_point t0 = Clock::now();
  PIGGY_RETURN_NOT_OK(d.feed->StartBackgroundReplan());
  PIGGY_RETURN_NOT_OK(d.feed->WaitForBackgroundReplan());
  m->Set("core.replan_s", std::chrono::duration<double>(Clock::now() - t0).count(), "s");

  std::vector<NodeId> audited;
  PIGGY_RETURN_NOT_OK(RunAudits(d, ep, oracle, g, true, seed, attempted, &audited));
  PIGGY_RETURN_NOT_OK(d.feed->WaitForBackgroundReplan());
  PIGGY_ASSIGN_OR_RETURN(std::vector<EventTuple> log, GlobalLog(d));
  PIGGY_RETURN_NOT_OK(CheckAckedShares(oracle.acked(), log));
  return d.Validate();
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int Run(const Args& args) {
  WorkloadConfig cfg;
  if (!ConfigFor(args.workload, &cfg)) {
    std::fprintf(stderr, "unknown workload %s (steady | cluster-wal)\n",
                 args.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // One core stays free for the background replanner / planner threads.
  const size_t threads = std::clamp<size_t>(nproc - 1, 1, 3);

  // ---- inputs ----
  // The graph is the workload's fixed dataset (as the paper's Flickr and
  // Twitter crawls were): generated from a constant seed, so run-to-run
  // spread is not dominated by which few hubs a seed happens to draw. The
  // run's seed drives everything the clients send: the request streams,
  // the churn pairs, the audits and probes.
  Result<Graph> graph = cfg.twitter ? piggy::MakeTwitterLike(cfg.nodes, kGraphSeed)
                                    : piggy::MakeFlickrLike(cfg.nodes, kGraphSeed);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const Graph& g = *graph;
  Result<Workload> wl =
      piggy::GenerateWorkload(g, {.read_write_ratio = cfg.read_write, .min_rate = 0.01});
  if (!wl.ok()) {
    std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
    return 1;
  }
  const Workload& w = *wl;
  // The window runs as cfg.rounds rounds, each an open-loop segment followed by
  // a closed-loop segment, and every metric is the mean of the middle half
  // of the rounds: slow stretches of a shared host fall into a few rounds
  // instead of one phase, and are dropped with the outer rounds.
  // Traced runs trace the closed segments of rounds 1, 2, 5, 6, ... (ABBA),
  // so drift over the run cancels out of the tracing-overhead estimate.
  const double open_s = args.seconds * kOpenShare;
  const size_t rounds = cfg.rounds;
  const size_t open_requests = static_cast<size_t>(cfg.offered_rate * open_s / rounds);
  const size_t closed_requests =
      static_cast<size_t>(cfg.closed_ops_per_s * (args.seconds - open_s) / rounds);
  std::vector<OpStream> open, closed;
  uint64_t stream_hash = 0;
  for (size_t r = 0; r < rounds; ++r) {
    open.push_back(MakeOpStream(g, w, open_requests, ChurnSpec{},
                                piggy::Mix64(args.seed * 2 * rounds + 2 * r)));
    closed.push_back(MakeOpStream(g, w, closed_requests, ChurnSpec{},
                                  piggy::Mix64(args.seed * 2 * rounds + 2 * r + 1)));
    stream_hash = piggy::Mix64(stream_hash ^ HashOpStream(open.back()) ^
                               (HashOpStream(closed.back()) << 1));
  }

  MetricSet m;
  size_t attempted = 0, failed = 0;
  std::string failure;
  auto fail = [&](const std::string& what, const Status& st) {
    if (failure.empty()) failure = what + ": " + st.ToString();
  };

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(args.data_dir, ec);

  // ---- set-up: Create, timed; the last instance serves the run ----
  Deployment d;
  std::vector<double> setup_s;
  const size_t setups = args.trace ? 1 : kSetupRepeats;
  std::string dir;
  for (size_t i = 0; i < setups && failure.empty(); ++i) {
    d = Deployment{};
    fs::remove_all(dir, ec);
    dir = args.data_dir + "/setup-" + std::to_string(i);
    const Clock::time_point t0 = Clock::now();
    Result<Deployment> created = Create(cfg, g, w, dir);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!created.ok()) {
      fail("create", created.status());
    } else {
      d = std::move(created).MoveValueOrDie();
    }
  }
  if (!failure.empty()) {
    std::fprintf(stderr, "%s\n", failure.c_str());
    std::printf("%s\n", ResultJson(false, 1, 1, MetricSet{}).c_str());
    return 1;
  }
  m.Set("setup_s", Median(setup_s), "s");
  const Endpoint ep = d.MakeEndpoint();
  Oracle oracle(g);

  if (args.trace && failure.empty()) {
    Status st = MeasurePlan(d, cfg.planner, g, w, &m);
    if (!st.ok()) fail("plan", st);
  }

  // ---- warm-up (untimed), then the measured window: open loop, then
  // closed loop ----
  // Every driven op counts as attempted; its acked effects enter the oracle.
  auto account = [&](const char* what, const OpStream& stream, const PhaseResult& result) {
    attempted += result.attempted;
    failed += result.failed;
    if (result.failed > 0) fail(what, Status::Internal(result.first_error));
    oracle.Apply(stream, result);
  };
  if (failure.empty() && cfg.warmup_requests > 0) {
    const OpStream warmup =
        MakeOpStream(g, w, cfg.warmup_requests, ChurnSpec{}, piggy::Mix64(~args.seed));
    account("warm-up", warmup, RunClosedLoop(ep, warmup, threads, false));
  }
  const Counters before = ReadCounters(d);
  std::vector<PhaseResult> open_r;
  std::vector<double> untraced_rates, traced_rates;
  for (size_t r = 0; r < rounds; ++r) {
    open_r.push_back(RunOpenLoop(ep, open[r], threads, cfg.offered_rate));
    const bool traced = args.trace && (r % 4 == 1 || r % 4 == 2);
    const PhaseResult c = RunClosedLoop(ep, closed[r], threads, traced);
    (traced ? traced_rates : untraced_rates).push_back(static_cast<double>(c.attempted) / c.wall_s);
    account("measured window", open[r], open_r.back());
    account("measured window", closed[r], c);
  }
  const Counters after = ReadCounters(d);
  const auto [cost, hybrid] = d.Costs(w);
  const uint64_t window_requests = after.requests - before.requests;
  const double window_messages = after.messages - before.messages +
                                 static_cast<double>(after.cross_messages - before.cross_messages);

  // ---- end-to-end metrics of the window ----
  {
    m.Set("ops_per_s", MiddleMean(untraced_rates), "1/s");
    m.Set("query_p50_us", RoundPercentile(open, open_r, OpKind::kQuery, 0.50), "us");
    m.Set("query_p99_us", RoundPercentile(open, open_r, OpKind::kQuery, 0.99), "us");
    m.Set("share_p50_us", RoundPercentile(open, open_r, OpKind::kShare, 0.50), "us");
    m.Set("share_p99_us", RoundPercentile(open, open_r, OpKind::kShare, 0.99), "us");
    m.Set("msgs_per_req",
          window_requests > 0 ? window_messages / static_cast<double>(window_requests) : 0,
          "count");
    m.Set("cost_ratio", hybrid > 0 ? cost / hybrid : 0, "ratio");
  }
  if (args.trace) {
    std::vector<double> late;
    for (const PhaseResult& r : open_r) {
      for (const OpTiming& tm : r.timing) late.push_back((tm.start_ns - tm.due_ns) * 1e-3);
    }
    m.Set("gen.late_p99_us", Percentile(late, 0.99), "us");
    const double untraced_rate = MiddleMean(untraced_rates);
    const double traced_rate = MiddleMean(traced_rates);
    m.Set("trace.untraced_ops_per_s", untraced_rate, "1/s");
    m.Set("trace.traced_ops_per_s", traced_rate, "1/s");
    m.Set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
    RouterMetrics(d, before, after, &m);
    if (d.cluster) {
      // The churn layers are measured on the single service only.
      for (const char* name : {"store.rebuilds", "core.repairs"}) m.Set(name, 0, "count");
      m.Set("store.rebuilds_per_churn", 0, "ratio");
      for (const char* name : {"store.post_churn_read_us_p50", "core.repair_us_p50"}) {
        m.Set(name, 0, "us");
      }
      m.Set("core.replan_s", 0, "s");
    } else if (failure.empty()) {
      Status st = MeasureChurnLayers(cfg, g, w, args.seed, threads, &m, &attempted);
      if (!st.ok()) {
        ++failed;
        fail("churn layers", st);
      }
    }
    if (failure.empty()) {
      Status st = PeelLayers(d, w, oracle, args.seed, &m, &attempted);
      if (!st.ok()) {
        ++failed;
        fail("layer peel", st);
      }
    }
    DurabilityMetrics(d, &m);
  }

  // ---- correctness: audits, acked shares, recovery, validation ----
  std::vector<NodeId> audited;
  if (failure.empty()) {
    Status st = RunAudits(d, ep, oracle, g, false, args.seed, &attempted, &audited);
    if (!st.ok()) {
      ++failed;
      fail("audit", st);
    }
  }
  std::vector<EventTuple> log_before;
  if (failure.empty()) {
    Result<std::vector<EventTuple>> log = GlobalLog(d);
    Status st = log.ok() ? CheckAckedShares(oracle.acked(), *log) : log.status();
    if (!st.ok()) {
      ++failed;
      fail("acked shares", st);
    } else {
      log_before = std::move(log).MoveValueOrDie();
    }
  }

  // Recovery figures are per-layer metrics: 0 on workloads without a WAL.
  m.Set("durability.recover_s", 0, "s");
  m.Set("durability.wal_bytes_per_share", 0, "B");
  m.Set("durability.replayed_records", 0, "count");
  if (d.cluster && failure.empty()) {
    Status st = CrashAndRecover(d, audited, log_before, &attempted, &m);
    if (!st.ok()) {
      ++failed;
      fail("recovery", st);
    }
  }

  // Follow/Unfollow latency: a probe of Follow/Unfollow pairs on the
  // quiescent deployment after the window, on every workload.
  std::vector<std::vector<double>> churn_us;
  if (failure.empty()) {
    Result<std::vector<std::vector<double>>> probe =
        ChurnProbe(d.MakeEndpoint(), oracle, g.num_nodes(), args.seed, &attempted);
    if (!probe.ok()) {
      ++failed;
      fail("churn probe", probe.status());
    } else {
      churn_us = std::move(probe).MoveValueOrDie();
    }
  }
  m.Set("churn_p50_us", ChunkedPercentile(churn_us, 0.5), "us");
  m.Set("churn_p90_us", ChunkedPercentile(churn_us, 0.9), "us");

  if (failure.empty()) {
    Status st = d.Validate();
    if (!st.ok()) {
      ++failed;
      fail("validate", st);
    }
  }
  m.Set("rss_mb", PeakRssMb(), "MB");

  // ---- run context, then the result line ----
  std::printf(
      "# context {\"workload\": \"%s\", \"seed\": %llu, \"graph_seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"simd\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"commit\": \"%s\", \"nodes\": %zu, \"edges\": %zu, \"client_threads\": %zu, "
      "\"offered_rate\": %g, \"open_requests\": %zu, \"closed_requests\": %zu, "
      "\"stream_hash\": \"%016llx\", \"planner\": \"%s\", \"shards\": %zu, "
      "\"wal\": \"%s\"}\n",
      cfg.name.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kGraphSeed), args.seconds,
      args.trace ? 1 : 0, nproc, piggy::simd::TierName(piggy::simd::ActiveTier()),
      PERFBENCH_BUILD_TYPE, JsonEscape(kCompiler).c_str(), JsonEscape(args.commit).c_str(),
      g.num_nodes(), g.num_edges(), threads, cfg.offered_rate, open_requests * rounds,
      closed_requests * rounds, static_cast<unsigned long long>(stream_hash),
      cfg.planner.c_str(), cfg.shards,
      cfg.durable ? "group-64 no-fsync snapshot-every-20000" : "off");
  fs::remove_all(args.data_dir, ec);

  const bool correct = failure.empty() && failed == 0;
  if (!correct) {
    std::fprintf(stderr, "FAIL: %s\n", failure.empty() ? "failed ops" : failure.c_str());
    std::printf("%s\n", ResultJson(false, attempted, std::max<size_t>(failed, 1), MetricSet{})
                            .c_str());
    return 1;
  }
  // The result line carries exactly the metrics of the run's kind.
  MetricSet result;
  static const char* const kEndToEnd[] = {
      "setup_s",      "ops_per_s",    "query_p50_us", "query_p99_us",
      "share_p50_us", "share_p99_us", "churn_p50_us", "churn_p90_us",
      "msgs_per_req", "cost_ratio",   "rss_mb"};
  for (const auto& [name, value] : m.values) {
    const bool e2e = std::find(std::begin(kEndToEnd), std::end(kEndToEnd), name) !=
                     std::end(kEndToEnd);
    if (e2e != args.trace) result.values[name] = value;
  }
  std::printf("%s\n", ResultJson(true, attempted, failed, result).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload steady|cluster-wal --seed N "
                 "--seconds S --trace 0|1 --data-dir DIR [--commit ID]\n");
    return 2;
  }
  return perfbench::Run(args);
}
