#include "rebalance/planner.h"

#include <algorithm>

#include "obs/percentile.h"
#include "util/logging.h"

namespace piggy {

namespace {

// What-if model of the router's *batched* cross-shard traffic. The serving
// plane batches at shard granularity: a producer pays one update message per
// shard holding at least one push-mode follower, and a consumer pays one pull
// message per shard holding at least one pull-mode producer. A per-edge cut
// model misses exactly the failure mode that matters for live migration —
// moving one follower toward its producer saves nothing while other
// followers keep a replica alive on the old shard, yet immediately buys a
// brand-new replica fan-out on the new one. This model prices both, so move
// deltas track the cross-message counters the bench measures.
//
// Edge modes follow the hybrid rule on base rates (rp <= rc pushes), the
// same test the router's DecideMode applies on migration repair. Traffic
// weights split each user's observed load into share/query halves by its
// base-rate mix; with no load observed yet the rates themselves are the
// weights.
class BatchedCutModel {
 public:
  BatchedCutModel(const Graph& graph, const Workload& workload,
                  const std::vector<uint32_t>& home, size_t num_shards,
                  const std::vector<uint64_t>& user_load, bool observed)
      : graph_(graph),
        workload_(workload),
        home_(home),
        num_shards_(num_shards) {
    const size_t n = graph.num_nodes();
    share_w_.resize(n);
    query_w_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      const double rp = workload.rp(u), rc = workload.rc(u);
      if (observed) {
        const double split = rp + rc > 0 ? rp / (rp + rc) : 0.5;
        share_w_[u] = static_cast<double>(user_load[u]) * split;
        query_w_[u] = static_cast<double>(user_load[u]) * (1.0 - split);
      } else {
        share_w_[u] = rp;
        query_w_[u] = rc;
      }
    }
    push_count_.assign(n * num_shards, 0);
    pull_count_.assign(n * num_shards, 0);
    graph.ForEachEdge([&](const Edge& e) {
      if (Pushes(e.src, e.dst)) {
        ++push_count_[e.src * num_shards_ + home_[e.dst]];
      } else {
        ++pull_count_[e.dst * num_shards_ + home_[e.src]];
      }
    });
  }

  // Current model cost: every producer's replica fan-out plus every
  // consumer's pull fan-out, weighted by the user's observed traffic.
  double Cost() const {
    double cost = 0;
    for (NodeId u = 0; u < share_w_.size(); ++u) {
      cost += share_w_[u] * static_cast<double>(FanoutShards(push_count_, u));
      cost += query_w_[u] * static_cast<double>(FanoutShards(pull_count_, u));
    }
    return cost;
  }

  // Exact model-cost change of moving `u` from home_[u] to `to`. O(deg(u)).
  double MoveDelta(NodeId u, uint32_t to) const {
    const uint32_t from = home_[u];
    if (to == from) return 0;
    // u's own fan-outs: the counted shard sets are unchanged, but which
    // member is "local" (free) flips from `from` to `to`.
    double delta =
        share_w_[u] * (Fan(push_count_, u, to) - Fan(push_count_, u, from)) +
        query_w_[u] * (Fan(pull_count_, u, to) - Fan(pull_count_, u, from));
    // Neighbors whose fan-out sets gain `to` or lose `from` because of u.
    for (NodeId p : graph_.InNeighbors(u)) {
      if (Pushes(p, u)) {
        delta += share_w_[p] * NeighborDelta(push_count_, p, from, to);
      }
    }
    for (NodeId f : graph_.OutNeighbors(u)) {
      if (!Pushes(u, f)) {
        delta += query_w_[f] * NeighborDelta(pull_count_, f, from, to);
      }
    }
    return delta;
  }

  // Applies the move to the counts. home_ is the caller's working
  // assignment; the caller updates it (after this call).
  void ApplyMove(NodeId u, uint32_t to) {
    const uint32_t from = home_[u];
    for (NodeId p : graph_.InNeighbors(u)) {
      if (Pushes(p, u)) {
        --push_count_[p * num_shards_ + from];
        ++push_count_[p * num_shards_ + to];
      }
    }
    for (NodeId f : graph_.OutNeighbors(u)) {
      if (!Pushes(u, f)) {
        --pull_count_[f * num_shards_ + from];
        ++pull_count_[f * num_shards_ + to];
      }
    }
  }

  // Weight of u's edges into each shard (the LDG-style affinity score),
  // traffic-weighted. Used for ranking only; acceptance uses MoveDelta.
  void FillAffinity(NodeId u, std::vector<double>* affinity) const {
    std::fill(affinity->begin(), affinity->end(), 0.0);
    for (NodeId f : graph_.OutNeighbors(u)) {
      (*affinity)[home_[f]] += EdgeWeight(u, f);
    }
    for (NodeId p : graph_.InNeighbors(u)) {
      (*affinity)[home_[p]] += EdgeWeight(p, u);
    }
  }

  double EdgeWeight(NodeId src, NodeId dst) const {
    return Pushes(src, dst) ? share_w_[src] : query_w_[dst];
  }

 private:
  bool Pushes(NodeId src, NodeId dst) const {
    return workload_.rp(src) <= workload_.rc(dst);
  }

  // Number of shards in u's fan-out set, excluding its own (local is free).
  size_t FanoutShards(const std::vector<uint32_t>& counts, NodeId u) const {
    size_t shards = 0;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (s != home_[u] && counts[u * num_shards_ + s] > 0) ++shards;
    }
    return shards;
  }

  // Fan-out size of u if it lived on `at` (counts unchanged, locality moves).
  double Fan(const std::vector<uint32_t>& counts, NodeId u,
             uint32_t at) const {
    double shards = 0;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (s != at && counts[u * num_shards_ + s] > 0) shards += 1;
    }
    return shards;
  }

  // Change in |fan-out set of v| when one of its counted peers moves
  // from -> to: v loses `from` if that peer was the last one there, gains
  // `to` if it is the first — locality (v's own shard) priced as free.
  double NeighborDelta(const std::vector<uint32_t>& counts, NodeId v,
                       uint32_t from, uint32_t to) const {
    double d = 0;
    if (from != home_[v] && counts[v * num_shards_ + from] == 1) d -= 1;
    if (to != home_[v] && counts[v * num_shards_ + to] == 0) d += 1;
    return d;
  }

  const Graph& graph_;
  const Workload& workload_;
  const std::vector<uint32_t>& home_;
  size_t num_shards_;
  std::vector<double> share_w_;  // observed share-side traffic weight
  std::vector<double> query_w_;  // observed query-side traffic weight
  // counts[u * num_shards + s]: push followers of u on shard s / pull
  // producers of u on shard s (own-shard entries included; fan-out sets
  // exclude the home shard at read time, so locality needs no rebuild when
  // a user moves).
  std::vector<uint32_t> push_count_;
  std::vector<uint32_t> pull_count_;
};

}  // namespace

MovePlan PlanRebalance(const Graph& graph, const Workload& workload,
                       const std::vector<uint32_t>& assignment,
                       size_t num_shards,
                       const std::vector<uint64_t>& user_load,
                       const RebalancePlanOptions& options) {
  const size_t n = graph.num_nodes();
  PIGGY_CHECK_EQ(assignment.size(), n);
  PIGGY_CHECK_EQ(user_load.size(), n);
  PIGGY_CHECK_GT(num_shards, 0u);

  MovePlan plan;
  std::vector<uint64_t> shard_load(num_shards, 0);
  uint64_t total = 0;
  for (NodeId u = 0; u < n; ++u) {
    PIGGY_CHECK_LT(assignment[u], num_shards);
    shard_load[assignment[u]] += user_load[u];
    total += user_load[u];
  }

  std::vector<uint32_t> work = assignment;
  BatchedCutModel model(graph, workload, work, num_shards, user_load,
                        /*observed=*/total > 0);
  plan.predicted_cut_before = model.Cost();
  plan.predicted_imbalance_before = obs::MaxOverMean(shard_load);
  plan.predicted_cut_after = plan.predicted_cut_before;
  plan.predicted_imbalance_after = plan.predicted_imbalance_before;
  if (total == 0 || num_shards < 2 || options.move_budget == 0) return plan;

  // Traffic-weighted degree, the "hub" tie-break.
  std::vector<double> weighted_degree(n, 0);
  graph.ForEachEdge([&](const Edge& e) {
    const double w = model.EdgeWeight(e.src, e.dst);
    weighted_degree[e.src] += w;
    weighted_degree[e.dst] += w;
  });

  const double mean =
      static_cast<double>(total) / static_cast<double>(num_shards);
  const double cap = mean * (1.0 + options.balance_slack);

  std::vector<uint8_t> moved(n, 0);
  std::vector<uint8_t> stuck(num_shards, 0);  // donors with no accepted move
  size_t budget = options.move_budget;
  double cut_delta = 0;

  const auto apply = [&](NodeId u, uint32_t from, uint32_t to) {
    cut_delta += model.MoveDelta(u, to);
    model.ApplyMove(u, to);
    plan.moves.push_back(RebalanceMove{u, from, to});
    shard_load[from] -= user_load[u];
    shard_load[to] += user_load[u];
    work[u] = to;
    moved[u] = 1;
    --budget;
  };

  // Phase 1 — drain: walk the hottest shards over capacity, moving their
  // heaviest users to the balance-eligible shard with the cheapest message
  // delta. Balance is the objective here; the delta choice just makes each
  // forced move as inexpensive as the placement allows.
  while (budget > 0) {
    // Hottest shard still over capacity (and not already proven stuck).
    int64_t donor = -1;
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (stuck[s] || static_cast<double>(shard_load[s]) <= cap) continue;
      if (donor < 0 || shard_load[s] > shard_load[donor]) donor = s;
    }
    if (donor < 0) break;
    const uint32_t from = static_cast<uint32_t>(donor);

    // Hubs first: heaviest observed load, then traffic-weighted degree,
    // then id (fully deterministic).
    std::vector<NodeId> candidates;
    for (NodeId u = 0; u < n; ++u) {
      if (work[u] == from && !moved[u] && user_load[u] > 0) {
        candidates.push_back(u);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](NodeId a, NodeId b) {
                if (user_load[a] != user_load[b]) {
                  return user_load[a] > user_load[b];
                }
                if (weighted_degree[a] != weighted_degree[b]) {
                  return weighted_degree[a] > weighted_degree[b];
                }
                return a < b;
              });

    size_t moves_from_donor = 0;
    // Drain past the cap down to the mean: the freed headroom is what lets
    // the heal phase move a hot community's most-pulled producers INTO this
    // shard afterwards (dest stays under cap) instead of only away from it.
    for (NodeId u : candidates) {
      if (budget == 0 || static_cast<double>(shard_load[from]) <= mean) break;
      int64_t best = -1;
      double best_delta = 0;
      for (uint32_t s = 0; s < num_shards; ++s) {
        if (s == from) continue;
        // Accept guard: the destination must stay strictly lighter than the
        // donor was — the pair's max strictly shrinks, so plans never
        // oscillate (no A->B->A inside one plan; `moved` forbids it across
        // donors too).
        if (shard_load[s] + user_load[u] >= shard_load[from]) continue;
        const double delta = model.MoveDelta(u, s);
        if (best >= 0 &&
            (delta > best_delta ||
             (delta == best_delta && shard_load[s] >= shard_load[best]))) {
          continue;
        }
        best = s;
        best_delta = delta;
      }
      if (best < 0) continue;  // nowhere improves balance; try the next hub
      // Cost guard: a drain move may cost messages, but only in proportion
      // to the load it sheds. A celebrity whose fans span every shard
      // drains free; a member of a co-located hot community would drag its
      // whole neighborhood's traffic across the cut — skip it and shed the
      // load through cheaper candidates further down the hub order.
      if (best_delta > options.drain_cost_ratio *
                           static_cast<double>(user_load[u])) {
        continue;
      }
      apply(u, from, static_cast<uint32_t>(best));
      ++moves_from_donor;
    }
    if (moves_from_donor == 0) stuck[from] = 1;
  }

  // Phase 2 — heal: spend the remaining budget on the measured cut. Users
  // whose observed traffic concentrates on another shard (fans that piled
  // onto a celebrity after placement, a region fragment split at a shard
  // boundary) move there when the batched message delta is strictly
  // negative and the destination stays under capacity — balance is
  // preserved while the chatter drops. Candidates are ranked by their
  // statically-estimated affinity gain, then priced exactly against the
  // working assignment at accept time (earlier moves shift the batches).
  // Two rounds: batched savings compound (emptying a shard of one
  // consumer's producers only pays once the *last* of them leaves), so a
  // move that priced at zero in round one can turn profitable after its
  // neighbors settle.
  for (int round = 0; round < 2 && options.heal_cut && budget > 0; ++round) {
    const size_t moves_before_round = plan.moves.size();
    struct Gain {
      NodeId user;
      double gain;
    };
    std::vector<Gain> gains;
    std::vector<double> affinity(num_shards, 0);
    for (NodeId u = 0; u < n; ++u) {
      if (moved[u] || user_load[u] == 0) continue;
      model.FillAffinity(u, &affinity);
      const uint32_t home = work[u];
      double best = 0;
      for (uint32_t s = 0; s < num_shards; ++s) {
        if (s != home) best = std::max(best, affinity[s]);
      }
      if (best > affinity[home]) {
        gains.push_back(Gain{u, best - affinity[home]});
      }
    }
    std::sort(gains.begin(), gains.end(), [](const Gain& a, const Gain& b) {
      if (a.gain != b.gain) return a.gain > b.gain;
      return a.user < b.user;
    });
    for (const Gain& g : gains) {
      if (budget == 0) break;
      const NodeId u = g.user;
      const uint32_t home = work[u];
      int64_t best = -1;
      double best_delta = -options.heal_min_gain;
      for (uint32_t s = 0; s < num_shards; ++s) {
        if (s == home) continue;
        // Balance guard: the destination stays under the donor cap, or at
        // least strictly lighter than the user's current home (a
        // chatter-saving move off a heavier shard can never raise the max).
        const double dest_after =
            static_cast<double>(shard_load[s] + user_load[u]);
        if (dest_after > cap &&
            dest_after >= static_cast<double>(shard_load[home])) {
          continue;
        }
        const double delta = model.MoveDelta(u, s);
        if (delta < best_delta ||
            (best >= 0 && delta == best_delta &&
             shard_load[s] < shard_load[best])) {
          best = s;
          best_delta = delta;
        }
      }
      if (best < 0) continue;
      apply(u, home, static_cast<uint32_t>(best));
    }
    if (plan.moves.size() == moves_before_round) break;  // round converged
  }

  plan.predicted_cut_after = plan.predicted_cut_before + cut_delta;
  plan.predicted_imbalance_after = obs::MaxOverMean(shard_load);
  return plan;
}

}  // namespace piggy
