// Shared pieces of the repository benchmark: op streams generated from the
// benchmark's own seed, the open/closed-loop client drivers, the feed oracle
// and small statistics helpers. The workloads themselves live in main.cc.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "store/view_store.h"
#include "util/status.h"
#include "workload/workload.h"

namespace piggy::obs {
class Histogram;
}

namespace perfbench {

using piggy::EventTuple;
using piggy::NodeId;
using piggy::Result;
using piggy::Status;

// ---------------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t { kShare, kQuery, kFollow, kUnfollow };

/// One client request. For Follow/Unfollow `user` is the follower and
/// `other` the producer; otherwise `other` is unused.
struct Op {
  OpKind kind = OpKind::kQuery;
  NodeId user = 0;
  NodeId other = 0;
  int64_t after = -1;  ///< index of an op that must complete first (-1: none)
};

/// Churn at a fixed share of requests: every `every` requests one churn op.
/// Ops come in pairs on one edge: a newcomer follows a popular account, and
/// `every` requests later unfollows it, so a stream leaves the graph as it
/// found it.
struct ChurnSpec {
  size_t every = 0;  ///< 0 = no churn
};

/// The op stream of one phase, in issue order. Op i of an open loop is due
/// i / rate seconds after the start.
struct OpStream {
  std::vector<Op> ops;
  size_t churn_ops = 0;
};

/// Builds `requests` share/query ops, drawn by the workload rates exactly as
/// the paper's driver does (share with probability P/(P+C), the user by rate),
/// plus the churn pairs of `churn`. Deterministic in `seed`.
OpStream MakeOpStream(const piggy::Graph& g, const piggy::Workload& w,
                      size_t requests, const ChurnSpec& churn, uint64_t seed);

/// FNV-1a over every op of the stream.
uint64_t HashOpStream(const OpStream& stream);

// ---------------------------------------------------------------------------
// Serving endpoint and client drivers
// ---------------------------------------------------------------------------

/// A FeedService or ClusterService as the drivers see it.
struct Endpoint {
  std::function<Status(NodeId)> share;
  std::function<Result<std::vector<EventTuple>>(NodeId)> query;
  std::function<Status(NodeId follower, NodeId producer)> follow;
  std::function<Status(NodeId follower, NodeId producer)> unfollow;
};

/// Issues one op and returns its status.
Status Issue(const Endpoint& ep, const Op& op);

using Clock = std::chrono::steady_clock;

/// Timing of one op, in ns since the phase start. Closed loops leave
/// `due_ns` 0.
struct OpTiming {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct PhaseResult {
  double wall_s = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;
  std::vector<OpTiming> timing;  ///< per op (empty when not recorded)
  std::vector<uint8_t> ok;       ///< per op: 1 = acked
};

/// Open loop: op i is due i / rate seconds after the start, whatever the
/// state of earlier ops. `threads` clients share the queue: a free client
/// takes the next op, waits for its due time and issues it, so latency
/// counts from the due time and includes any wait for a free client.
PhaseResult RunOpenLoop(const Endpoint& ep, const OpStream& stream, size_t threads,
                        double rate);

/// Closed loop: `threads` clients take ops from the queue back to back. With
/// `record_timing` each call's start/end is kept (the traced variant).
PhaseResult RunClosedLoop(const Endpoint& ep, const OpStream& stream, size_t threads,
                          bool record_timing);

// ---------------------------------------------------------------------------
// Feed oracle
// ---------------------------------------------------------------------------

/// The benchmark's own model of the social graph and the acked shares.
class Oracle {
 public:
  explicit Oracle(const piggy::Graph& g) : graph_(g), acked_(g.num_nodes(), 0) {}

  void Follow(NodeId follower, NodeId producer) { graph_.AddEdge(producer, follower); }
  void Unfollow(NodeId follower, NodeId producer) {
    graph_.RemoveEdge(producer, follower);
  }
  void Acked(NodeId producer) { ++acked_[producer]; }
  /// Folds the successful ops of a driven phase into the model.
  void Apply(const OpStream& stream, const PhaseResult& result);

  bool Follows(NodeId follower, NodeId producer) const {
    return graph_.HasEdge(producer, follower);
  }
  const piggy::DynamicGraph& graph() const { return graph_; }
  const std::vector<uint64_t>& acked() const { return acked_; }

 private:
  piggy::DynamicGraph graph_;
  std::vector<uint64_t> acked_;
};

/// Checks `feed` against the shares of one audit round: `expected` lists the
/// producers of the round's shares that `u` follows (or u itself), oldest
/// first, and must come back newest first with ids newer than `floor_id`
/// (every event shared before the round).
Status CheckAuditFeed(NodeId u, const std::vector<NodeId>& expected,
                      const std::vector<EventTuple>& feed, uint64_t floor_id);

/// Compares per-producer counts of a service's event log against the acked
/// shares and checks the log holds no duplicate event id.
Status CheckAckedShares(const std::vector<uint64_t>& acked,
                        const std::vector<EventTuple>& log);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty. Reorders v.
double Percentile(std::vector<double>& v, double q);
double Median(std::vector<double> v);
/// Mean of the middle half of `v` (the interquartile mean): robust to a
/// quarter of outliers on either side, steadier than the median.
double MiddleMean(std::vector<double> v);

/// Percentile of the histogram samples counted in `slots` (MergedSlots
/// layout of `h`, e.g. a difference of two reads), at the geometric middle
/// of the covering bucket.
double SlotPercentile(const piggy::obs::Histogram& h,
                      const std::vector<uint64_t>& slots, double q);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// The named metrics of one run, printed as the benchmark's result line.
struct MetricSet {
  std::map<std::string, std::pair<double, std::string>> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// One JSON line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench
