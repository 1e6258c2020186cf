// Data partitioning: mapping user views to data-store servers (and, in the
// cluster layer, whole users to serving shards).
//
// The paper's prototype hashes user ids to servers (Sec. 4.3, "the view of a
// user u is stored in a random server, selected by hashing the id"). Because
// clients batch — one message per server per request — placement shapes the
// measured throughput: co-located views are free to reach. The DISSEMINATION
// problem deliberately ignores placement (it is dynamic and often hidden
// inside the store layer); the placement-aware predicted cost here is the
// quantity Figure 7 plots to show the schedules win anyway.
//
// Beyond the paper's hash placement, GreedyEdgeCutPartitioner computes a
// graph-aware assignment that co-locates tightly connected users, minimizing
// the rate-weighted edge cut — exactly the traffic that crosses shards in the
// cluster layer (src/cluster). Partitioners are instantiated by registry name
// via MakePartitioner ("hash" | "edge-cut"), mirroring the planner registry.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/schedule.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/workload.h"

namespace piggy {

/// Salt of the hash placement. One constant shared by every construction
/// path (direct HashPartitioner, MakePartitioner, Prototype) so they all
/// agree on the same placement.
inline constexpr uint64_t kDefaultPartitionSalt = 0x9a75a11ceULL;

/// \brief Maps users to data-store servers.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Server hosting the view of `user`, in [0, num_servers()).
  virtual uint32_t ServerOf(NodeId user) const = 0;

  /// Number of servers.
  virtual size_t num_servers() const = 0;

  /// Registry name of the policy ("hash", "edge-cut", ...).
  virtual const std::string& name() const = 0;
};

/// \brief Salted-hash partitioning (deterministic pseudo-random placement).
class HashPartitioner : public Partitioner {
 public:
  explicit HashPartitioner(size_t num_servers,
                           uint64_t salt = kDefaultPartitionSalt);

  uint32_t ServerOf(NodeId user) const override {
    return static_cast<uint32_t>(Mix64(user ^ salt_) % num_servers_);
  }

  size_t num_servers() const override { return num_servers_; }
  const std::string& name() const override;

 private:
  size_t num_servers_;
  uint64_t salt_;
};

/// \brief Graph-aware placement minimizing the rate-weighted edge cut.
///
/// A one-pass weighted linear-deterministic-greedy (LDG) streaming
/// partitioner: users are visited in decreasing total-degree order (hubs
/// first, so their communities accrete around them) and each is assigned to
/// the shard maximizing
///
///     affinity(u, s) * (1 - load(s) / capacity)
///
/// where affinity(u, s) sums, over u's already-placed neighbors in s, the
/// cost the edge would add if it were cut: min(rp(producer), rc(consumer)) —
/// the cheaper (hybrid-rule) side that the cluster layer pays in cross-shard
/// messages. Deterministic; ties break toward the least-loaded shard. A
/// shard's capacity is ceil(n / k) * 1.05: the greedy pass stops adding to a
/// shard 5% over a perfectly even split, keeping load balanced at a slightly
/// higher cut.
class GreedyEdgeCutPartitioner : public Partitioner {
 public:
  /// Computes the assignment for every node of `g`. The workload must cover
  /// the graph (rates weight the cut).
  static Result<GreedyEdgeCutPartitioner> Build(const Graph& g, const Workload& w,
                                                size_t num_shards);

  uint32_t ServerOf(NodeId user) const override {
    PIGGY_CHECK_LT(user, assignment_.size());
    return assignment_[user];
  }

  size_t num_servers() const override { return num_shards_; }
  const std::string& name() const override;

  /// The full assignment (one shard id per node).
  const std::vector<uint32_t>& assignment() const { return assignment_; }

  /// Number of edges whose endpoints land on different shards.
  size_t cut_edges(const Graph& g) const;

 private:
  GreedyEdgeCutPartitioner(std::vector<uint32_t> assignment, size_t num_shards)
      : assignment_(std::move(assignment)), num_shards_(num_shards) {}

  std::vector<uint32_t> assignment_;
  size_t num_shards_;
};

/// \brief Registry metadata for one partitioner policy.
struct PartitionerInfo {
  std::string name;         ///< registry key
  std::string description;  ///< one line, shown by `piggy_tool --partitioner list`
};

/// All registered partitioners, sorted by name.
std::vector<PartitionerInfo> RegisteredPartitioners();

/// Instantiates a partitioner by registry name ("hash" | "edge-cut"). The
/// graph/workload are only read at build time (the hash policy ignores them).
/// Unknown names return InvalidArgument listing the valid options, mirroring
/// MakePlanner.
Result<std::unique_ptr<Partitioner>> MakePartitioner(std::string_view name,
                                                     const Graph& g,
                                                     const Workload& w,
                                                     size_t num_servers);

/// \brief Predicted cost with data placement (Fig. 7):
///
///   cost = sum_u rp(u) * |servers({u} ∪ push_set(u))|
///        + sum_u rc(u) * |servers({u} ∪ pull_set(u))|
///
/// With one server every request costs exactly one message (the optimum the
/// figure normalizes by). The schedule must be finalized (every edge pushed,
/// pulled or hub-covered).
double PlacementAwareCost(const Graph& g, const Workload& w, const Schedule& s,
                          const Partitioner& partitioner);

}  // namespace piggy
