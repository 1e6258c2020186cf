#include "store/partitioner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace piggy {

namespace {

const std::string kHashName = "hash";
const std::string kEdgeCutName = "edge-cut";
// How far past a perfectly even split the greedy pass may fill a shard.
constexpr double kBalanceSlack = 0.05;

}  // namespace

HashPartitioner::HashPartitioner(size_t num_servers, uint64_t salt)
    : num_servers_(num_servers), salt_(salt) {
  PIGGY_CHECK_GT(num_servers, 0u);
}

const std::string& HashPartitioner::name() const { return kHashName; }

const std::string& GreedyEdgeCutPartitioner::name() const { return kEdgeCutName; }

Result<GreedyEdgeCutPartitioner> GreedyEdgeCutPartitioner::Build(
    const Graph& g, const Workload& w, size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("need at least one shard");
  }
  if (w.num_users() != g.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("workload covers %zu users but graph has %zu nodes",
                  w.num_users(), g.num_nodes()));
  }
  const size_t n = g.num_nodes();
  constexpr uint32_t kUnassigned = UINT32_MAX;
  std::vector<uint32_t> assignment(n, kUnassigned);
  if (n == 0) return GreedyEdgeCutPartitioner(std::move(assignment), num_shards);

  // Hubs first: placing high-degree users early lets their communities
  // accrete around them instead of scattering before the hub is pinned.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    return g.OutDegree(a) + g.InDegree(a) > g.OutDegree(b) + g.InDegree(b);
  });

  const double capacity =
      std::max(1.0, std::ceil(static_cast<double>(n) / static_cast<double>(num_shards)) *
                        (1.0 + kBalanceSlack));
  std::vector<size_t> load(num_shards, 0);
  std::vector<double> affinity(num_shards, 0.0);
  std::vector<uint32_t> touched;
  touched.reserve(64);

  for (NodeId u : order) {
    // Rate-weighted affinity to every shard holding a placed neighbor. The
    // weight of an edge is what cutting it would cost the cluster: the
    // cheaper (hybrid-rule) side min(rp(producer), rc(consumer)).
    for (NodeId v : g.OutNeighbors(u)) {  // u -> v: u produces for v
      uint32_t s = assignment[v];
      if (s == kUnassigned) continue;
      if (affinity[s] == 0.0) touched.push_back(s);
      affinity[s] += std::min(w.rp(u), w.rc(v));
    }
    for (NodeId v : g.InNeighbors(u)) {  // v -> u: u consumes from v
      uint32_t s = assignment[v];
      if (s == kUnassigned) continue;
      if (affinity[s] == 0.0) touched.push_back(s);
      affinity[s] += std::min(w.rp(v), w.rc(u));
    }

    uint32_t best = 0;
    double best_score = -1.0;
    size_t best_load = SIZE_MAX;
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (static_cast<double>(load[s]) >= capacity) continue;
      const double score =
          affinity[s] * (1.0 - static_cast<double>(load[s]) / capacity);
      if (score > best_score ||
          (score == best_score && load[s] < best_load)) {
        best = s;
        best_score = score;
        best_load = load[s];
      }
    }
    PIGGY_CHECK_NE(best_load, SIZE_MAX);  // capacity * k >= n: a slot exists
    assignment[u] = best;
    ++load[best];

    for (uint32_t s : touched) affinity[s] = 0.0;
    touched.clear();
  }
  return GreedyEdgeCutPartitioner(std::move(assignment), num_shards);
}

size_t GreedyEdgeCutPartitioner::cut_edges(const Graph& g) const {
  size_t cut = 0;
  g.ForEachEdge([&](const Edge& e) {
    cut += assignment_[e.src] != assignment_[e.dst];
  });
  return cut;
}

std::vector<PartitionerInfo> RegisteredPartitioners() {
  return {
      {kEdgeCutName,
       "greedy rate-weighted edge-cut placement (co-locates communities)"},
      {kHashName, "salted-hash placement (the paper's Sec. 4.3 default)"},
  };
}

Result<std::unique_ptr<Partitioner>> MakePartitioner(std::string_view name,
                                                     const Graph& g,
                                                     const Workload& w,
                                                     size_t num_servers) {
  if (num_servers == 0) {
    return Status::InvalidArgument("need at least one server");
  }
  if (name == kHashName) {
    return std::unique_ptr<Partitioner>(
        std::make_unique<HashPartitioner>(num_servers));
  }
  if (name == kEdgeCutName) {
    PIGGY_ASSIGN_OR_RETURN(GreedyEdgeCutPartitioner part,
                           GreedyEdgeCutPartitioner::Build(g, w, num_servers));
    return std::unique_ptr<Partitioner>(
        std::make_unique<GreedyEdgeCutPartitioner>(std::move(part)));
  }
  std::vector<std::string> names;
  for (const PartitionerInfo& info : RegisteredPartitioners()) {
    names.push_back(info.name);
  }
  return Status::InvalidArgument(
      StrFormat("unknown partitioner '%.*s'; valid partitioners: %s",
                static_cast<int>(name.size()), name.data(),
                StrJoin(names, ", ").c_str()));
}

double PlacementAwareCost(const Graph& g, const Workload& w, const Schedule& s,
                          const Partitioner& partitioner) {
  const size_t n = g.num_nodes();
  const size_t servers = partitioner.num_servers();
  std::vector<std::vector<NodeId>> push_sets = s.BuildPushSets(n);
  std::vector<std::vector<NodeId>> pull_sets = s.BuildPullSets(n);

  // Stamped scratch for distinct-server counting.
  std::vector<uint64_t> stamp(servers, 0);
  uint64_t tick = 0;
  auto distinct_servers = [&](NodeId self, const std::vector<NodeId>& others) {
    ++tick;
    size_t count = 0;
    uint32_t s0 = partitioner.ServerOf(self);
    stamp[s0] = tick;
    ++count;
    for (NodeId v : others) {
      uint32_t sv = partitioner.ServerOf(v);
      if (stamp[sv] != tick) {
        stamp[sv] = tick;
        ++count;
      }
    }
    return count;
  };

  double cost = 0;
  for (NodeId u = 0; u < n; ++u) {
    cost += w.rp(u) * static_cast<double>(distinct_servers(u, push_sets[u]));
    cost += w.rc(u) * static_cast<double>(distinct_servers(u, pull_sets[u]));
  }
  return cost;
}

}  // namespace piggy
