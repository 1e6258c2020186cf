#include "core/parallel_nosy.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "mapreduce/mapreduce.h"
#include "simd/kernels.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/u64_containers.h"

namespace piggy {

namespace {

// Service bits of one edge in NosyState's dense per-edge array, which mirrors
// the schedule's H, L and C membership by canonical edge index.
constexpr uint8_t kPushBit = 1;
constexpr uint8_t kPullBit = 2;
constexpr uint8_t kCoveredBit = 4;

// A hub edge w -> y with its canonical edge index.
struct HubEdge {
  NodeId w;
  NodeId y;
  uint64_t idx;
};

// One producer x of a hub-graph G(X, w, y), with the canonical indices of its
// push link x -> w and its cross edge x -> y.
struct HubProducer {
  NodeId x;
  uint64_t xw;
  uint64_t xy;
};

// A candidate hub-graph G(X, w, y) produced by phase 1; xs ascends in x.
struct Candidate {
  HubEdge hub;
  std::vector<HubProducer> xs;
  double gain = 0;
};

// A lock request: candidate identified by its hub edge (w -> y), with the
// gain used for arbitration.
struct LockRequest {
  double gain;
  uint64_t hub_key;
};

// Schedule mutation produced by phase 3, applied at the merge barrier.
struct Update {
  enum Kind : uint8_t { kPush, kPull, kCover };
  Kind kind;
  NodeId hub;  // for kCover
  uint64_t idx;
  Edge edge;
};

// Deterministic lock arbitration (phase 2). Highest gain wins; ties go to the
// smaller hub-edge key, or to a salted hash for the randomized ablation.
bool LockWins(const LockRequest& a, const LockRequest& b, bool randomized,
              uint64_t salt) {
  if (a.gain != b.gain) return a.gain > b.gain;
  if (randomized) return Mix64(a.hub_key ^ salt) < Mix64(b.hub_key ^ salt);
  return a.hub_key < b.hub_key;
}

class NosyState {
 public:
  NosyState(const Graph& g, const Workload& w, const ParallelNosyOptions& options)
      : g_(g),
        w_(w),
        options_(options),
        edge_state_(g.num_edges(), 0),
        dirty_((g.num_edges() + 63) / 64, 0),
        out_stamp_(g.num_nodes(), 0) {}

  // Every edge of the graph as a hub edge, in canonical order.
  std::vector<HubEdge> AllHubEdges() const {
    std::vector<HubEdge> edges;
    edges.reserve(g_.num_edges());
    uint64_t idx = 0;
    g_.ForEachEdge([&edges, &idx](const Edge& e) { edges.push_back({e.src, e.dst, idx++}); });
    return edges;
  }

  // ---- Phase 1 helpers (read-only on the frozen schedule) ----------------

  // Positive cost of requiring a push on e = x -> w (paper's c_X).
  double PushCost(NodeId x, NodeId w, uint64_t xw) const {
    if (edge_state_[xw] & kPushBit) return 0.0;
    if (edge_state_[xw] & kPullBit) return w_.rp(x);
    return w_.rp(x) - HybridEdgeCost(w_, x, w);
  }

  // Positive cost of requiring a pull on e = w -> y (specular).
  double PullCost(const HubEdge& hub) const {
    if (edge_state_[hub.idx] & kPullBit) return 0.0;
    if (edge_state_[hub.idx] & kPushBit) return w_.rc(hub.y);
    return w_.rc(hub.y) - HybridEdgeCost(w_, hub.w, hub.y);
  }

  // Gain of selecting hub-graph (hub, xs): hybrid cost saved on the cross
  // edges minus the push/pull costs incurred.
  double Gain(const HubEdge& hub, const std::vector<HubProducer>& xs) const {
    double saved = 0;
    double cost = PullCost(hub);
    for (const HubProducer& p : xs) {
      saved += HybridEdgeCost(w_, p.x, hub.y);
      cost += PushCost(p.x, hub.w, p.xw);
    }
    return saved - cost;
  }

  // Builds the candidate for hub edge w -> y, or nullopt if it does not
  // qualify. X comes from one intersection of the sorted in-lists of w and y
  // (the common producers, ascending), whose positions index the dense
  // state directly. Deterministic; called again in phase 3 to re-derive X.
  std::optional<Candidate> BuildCandidate(const HubEdge& hub) const {
    if (edge_state_[hub.idx] & kCoveredBit) return std::nullopt;
    Candidate cand{hub, {}, 0};
    const std::span<const uint64_t> w_in = g_.InEdgeCanonicalIndices(hub.w);
    const std::span<const uint64_t> y_in = g_.InEdgeCanonicalIndices(hub.y);
    const size_t cap = options_.max_hub_producers;
    ForEachSortedIntersection(
        g_.InNeighbors(hub.w), g_.InNeighbors(hub.y),
        [&](NodeId x, size_t iw, size_t iy) {
          if (x == hub.y) return true;
          const uint64_t xw = w_in[iw];
          if (edge_state_[xw] & kCoveredBit) return true;  // keep prior optimizations
          const uint64_t xy = y_in[iy];
          // Covering an assigned x -> y through w would be useless.
          if (edge_state_[xy] != 0) return true;
          cand.xs.push_back({x, xw, xy});
          return cand.xs.size() < cap;
        });
    if (cand.xs.empty()) return std::nullopt;
    cand.gain = Gain(hub, cand.xs);
    if (cand.gain <= options_.min_gain) return std::nullopt;
    return cand;
  }

  // Emits the canonical indices of the edges a candidate locks: exactly the
  // edges whose schedule entry the candidate would modify. Edges already
  // carrying the required service (x -> w in H, w -> y in L) need no lock:
  // no other candidate can change them in a conflicting way (there are no
  // removals, and the phase-1 conditions bar anyone from covering an edge
  // that is in H or L). Scoping locks to modifications is what lets a hub
  // with many consumers adopt them all in one iteration once its pushes are
  // in place, instead of one per iteration.
  template <typename F>
  void ForEachLockedEdge(const Candidate& cand, F fn) const {
    for (const HubProducer& p : cand.xs) {
      if (!(edge_state_[p.xw] & kPushBit)) fn(p.xw);
      fn(p.xy);  // cross edges are unassigned by construction
    }
    if (!(edge_state_[cand.hub.idx] & kPullBit)) fn(cand.hub.idx);
  }

  // ---- Phase 3: scheduling decision for one candidate --------------------

  // `granted` = sorted canonical indices of the edges this candidate won. An
  // edge that needed no lock (service already in place) counts as granted.
  // Appends updates.
  void Decide(const Candidate& cand, const std::vector<uint64_t>& granted,
              std::vector<Update>& updates, size_t* applied) const {
    auto has = [&granted](uint64_t idx) {
      return std::binary_search(granted.begin(), granted.end(), idx);
    };
    const HubEdge& hub = cand.hub;
    const bool pulled = edge_state_[hub.idx] & kPullBit;
    if (!pulled && !has(hub.idx)) return;  // cannot schedule the pull

    std::vector<HubProducer> xs_granted;
    xs_granted.reserve(cand.xs.size());
    for (const HubProducer& p : cand.xs) {
      const bool push_ok = (edge_state_[p.xw] & kPushBit) || has(p.xw);
      if (push_ok && has(p.xy)) xs_granted.push_back(p);
    }
    if (xs_granted.empty()) return;
    if (xs_granted.size() < cand.xs.size()) {
      // Partial grant: re-evaluate on the shrunk hub-graph G(X', w, y).
      if (Gain(hub, xs_granted) <= options_.min_gain) return;
    }
    if (!pulled) updates.push_back({Update::kPull, 0, hub.idx, {hub.w, hub.y}});
    for (const HubProducer& p : xs_granted) {
      if (!(edge_state_[p.xw] & kPushBit)) {
        updates.push_back({Update::kPush, 0, p.xw, {p.x, hub.w}});
      }
      updates.push_back({Update::kCover, hub.w, p.xy, {p.x, hub.y}});
    }
    ++*applied;
  }

  // ---- Merge: applies the iteration's updates to the schedule ------------

  size_t Merge(const std::vector<Update>& updates) {
    size_t covered = 0;
    for (const Update& u : updates) {
      switch (u.kind) {
        case Update::kPush:
          schedule_.AddPush(u.edge.src, u.edge.dst);
          edge_state_[u.idx] |= kPushBit;
          break;
        case Update::kPull:
          schedule_.AddPull(u.edge.src, u.edge.dst);
          edge_state_[u.idx] |= kPullBit;
          break;
        case Update::kCover:
          if (schedule_.SetHubCover(u.edge.src, u.edge.dst, u.hub)) ++covered;
          edge_state_[u.idx] |= kCoveredBit;
          break;
      }
    }
    return covered;
  }

  // The schedule's cost with unassigned edges at the hybrid cost: the same
  // additions, in the same (canonical edge) order, as ScheduleCost with
  // ResidualPolicy::kHybrid, so the two agree bit for bit.
  double Cost() const {
    double cost = 0;
    uint64_t idx = 0;
    g_.ForEachEdge([&](const Edge& e) {
      const uint8_t s = edge_state_[idx++];
      bool assigned = false;
      if (s & kPushBit) {
        cost += w_.rp(e.src);
        assigned = true;
      }
      if (s & kPullBit) {
        cost += w_.rc(e.dst);
        assigned = true;
      }
      if (!assigned && !(s & kCoveredBit)) cost += HybridEdgeCost(w_, e.src, e.dst);
    });
    return cost;
  }

  // Completes the schedule at the hybrid policy: every edge without a service
  // goes to its cheaper direct side (push on ties), in canonical order.
  void Finalize() {
    uint64_t idx = 0;
    g_.ForEachEdge([&](const Edge& e) {
      uint8_t& s = edge_state_[idx++];
      if (s != 0) return;
      if (w_.rp(e.src) <= w_.rc(e.dst)) {
        schedule_.AddPush(e.src, e.dst);
        s = kPushBit;
      } else {
        schedule_.AddPull(e.src, e.dst);
        s = kPullBit;
      }
    });
  }

  // Computes the hub edges whose candidate evaluation may change after the
  // given schedule updates: for a changed edge a -> b these are (a, b)
  // itself (its pull cost changed), (b, y) for consumers y of b (a -> b is a
  // push link of hub b), and (w, b) for every 2-path a -> w -> b (a -> b is
  // a cross edge of those hub-graphs). Restricting the next iteration's
  // candidate selection to these edges is result-equivalent to a full
  // rescan — untouched candidates see identical inputs and reproduce
  // identical (non-)decisions — and matches the paper's observation that
  // iterations get cheaper as fewer optimization opportunities remain.
  //
  // The edges are marked in a bitmap over canonical indices (each node's
  // out-list at most once per call) and read off in ascending index order,
  // which is ascending (src, dst) order.
  std::vector<HubEdge> ActiveEdges(const std::vector<Update>& updates) {
    ++stamp_;
    std::vector<simd::IndexPair> pairs;
    for (const Update& u : updates) {
      const NodeId a = u.edge.src;
      const NodeId b = u.edge.dst;
      Mark(u.idx);
      if (out_stamp_[b] != stamp_) {
        out_stamp_[b] = stamp_;
        const uint64_t first = g_.OutEdgeCanonicalIndex(b, 0);
        for (uint64_t e = first; e < first + g_.OutDegree(b); ++e) Mark(e);
      }
      pairs.clear();
      simd::IntersectSortedPairsInto(g_.OutNeighbors(a), g_.InNeighbors(b), &pairs);
      const std::span<const uint64_t> b_in = g_.InEdgeCanonicalIndices(b);
      for (const simd::IndexPair& p : pairs) Mark(b_in[p.ib]);
    }

    std::vector<HubEdge> edges;
    NodeId src = 0;
    for (size_t word = 0; word < dirty_.size(); ++word) {
      uint64_t bits = dirty_[word];
      dirty_[word] = 0;
      while (bits != 0) {
        const uint64_t idx = word * 64 + static_cast<uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        while (g_.OutEdgeCanonicalIndex(src, 0) + g_.OutDegree(src) <= idx) ++src;
        const uint64_t k = idx - g_.OutEdgeCanonicalIndex(src, 0);
        edges.push_back({src, g_.OutNeighbors(src)[k], idx});
      }
    }
    return edges;
  }

  const Graph& g_;
  const Workload& w_;
  const ParallelNosyOptions& options_;
  Schedule schedule_;

 private:
  void Mark(uint64_t idx) { dirty_[idx / 64] |= uint64_t{1} << (idx % 64); }

  // kPushBit | kPullBit | kCoveredBit per canonical edge index.
  std::vector<uint8_t> edge_state_;
  // ActiveEdges scratch: the dirty bitmap (all zero between calls) and the
  // per-node stamp of the call that last marked the node's out-list.
  std::vector<uint64_t> dirty_;
  std::vector<uint32_t> out_stamp_;
  uint32_t stamp_ = 0;
};

// Reports the start of an iteration's named sub-phase (PlanHooks::Report).
using PhaseFn = std::function<void(const char*)>;

// ---- Sequential reference executor ---------------------------------------

std::vector<Update> RunIterationSequential(NosyState& state,
                                           const std::vector<HubEdge>& edges,
                                           uint64_t salt, const PhaseFn& phase,
                                           NosyIterationStats* it_stats,
                                           size_t* applied) {
  // Phase 1: candidates.
  std::vector<Candidate> candidates;
  for (const HubEdge& hub : edges) {
    auto cand = state.BuildCandidate(hub);
    if (cand) candidates.push_back(std::move(*cand));
  }
  it_stats->candidates = candidates.size();

  // Phase 2: arbitration per locked edge.
  U64Map<LockRequest> winners;
  size_t requests = 0;
  for (const Candidate& cand : candidates) {
    LockRequest req{cand.gain, EdgeKey(cand.hub.w, cand.hub.y)};
    state.ForEachLockedEdge(cand, [&](uint64_t idx) {
      ++requests;
      LockRequest* cur = winners.Find(idx);
      if (cur == nullptr) {
        winners.Put(idx, req);
      } else if (LockWins(req, *cur, state.options_.randomized_tie_break, salt)) {
        *cur = req;
      }
    });
  }
  it_stats->lock_requests = requests;

  // Invert: granted edge indices per hub edge.
  U64Map<std::vector<uint64_t>> grants;
  winners.ForEach([&grants](uint64_t idx, const LockRequest& req) {
    std::vector<uint64_t>* list = grants.Find(req.hub_key);
    if (list == nullptr) {
      grants.Put(req.hub_key, {idx});
    } else {
      list->push_back(idx);
    }
  });

  // Phase 3: decisions.
  phase("decide");
  std::vector<Update> updates;
  for (const Candidate& cand : candidates) {
    const std::vector<uint64_t>* granted = grants.Find(EdgeKey(cand.hub.w, cand.hub.y));
    if (granted == nullptr) continue;
    std::vector<uint64_t> sorted = *granted;
    std::sort(sorted.begin(), sorted.end());
    state.Decide(cand, sorted, updates, applied);
  }
  return updates;
}

// ---- MapReduce executor ---------------------------------------------------

std::vector<Update> RunIterationMapReduce(NosyState& state,
                                          const std::vector<HubEdge>& edges,
                                          uint64_t salt, ThreadPool& pool,
                                          const PhaseFn& phase,
                                          NosyIterationStats* it_stats,
                                          size_t* applied) {
  const bool randomized = state.options_.randomized_tie_break;

  // Job A — map: candidate selection per hub edge, emitting one lock request
  // per touched edge; reduce: grant each edge to the best request, emitting
  // (hub_key, granted edge index).
  std::atomic<size_t> candidates{0};
  std::atomic<size_t> requests{0};
  using Grant = std::pair<uint64_t, uint64_t>;
  std::vector<Grant> grants = mr::RunMapReduce<HubEdge, uint64_t, LockRequest, Grant>(
      pool, edges,
      [&state, &candidates, &requests](const HubEdge& hub,
                                       mr::Emitter<uint64_t, LockRequest>& out) {
        auto cand = state.BuildCandidate(hub);
        if (!cand) return;
        candidates.fetch_add(1, std::memory_order_relaxed);
        LockRequest req{cand->gain, EdgeKey(hub.w, hub.y)};
        size_t emitted = 0;
        state.ForEachLockedEdge(*cand, [&out, &req, &emitted](uint64_t idx) {
          out.Emit(idx, req);
          ++emitted;
        });
        requests.fetch_add(emitted, std::memory_order_relaxed);
      },
      [randomized, salt](const uint64_t& edge_idx, std::vector<LockRequest>& reqs,
                         std::vector<Grant>& out) {
        const LockRequest* best = &reqs[0];
        for (const LockRequest& r : reqs) {
          if (LockWins(r, *best, randomized, salt)) best = &r;
        }
        out.emplace_back(best->hub_key, edge_idx);
      });
  it_stats->candidates = candidates.load();
  it_stats->lock_requests = requests.load();

  // Job B — reduce by hub edge: re-derive the candidate (one search for the
  // hub edge's index per granted hub-graph), apply the decision rule on the
  // granted subset, emit updates.
  phase("decide");
  std::atomic<size_t> applied_count{0};
  std::vector<Update> updates = mr::RunMapReduce<Grant, uint64_t, uint64_t, Update>(
      pool, grants,
      [](const Grant& grant, mr::Emitter<uint64_t, uint64_t>& out) {
        out.Emit(grant.first, grant.second);
      },
      [&state, &applied_count](const uint64_t& hub_key, std::vector<uint64_t>& granted,
                               std::vector<Update>& out) {
        const Edge e = EdgeFromKey(hub_key);
        auto cand = state.BuildCandidate({e.src, e.dst, state.g_.EdgeIndex(e.src, e.dst)});
        if (!cand) return;  // unreachable: grants imply a phase-1 candidate
        std::sort(granted.begin(), granted.end());
        size_t applied_here = 0;
        state.Decide(*cand, granted, out, &applied_here);
        applied_count.fetch_add(applied_here, std::memory_order_relaxed);
      });
  *applied += applied_count.load();
  return updates;
}

}  // namespace

std::string NosyIterationStats::ToString() const {
  return StrFormat(
      "candidates=%zu lock_requests=%zu applied=%zu covered=%zu cost=%.3f",
      candidates, lock_requests, applied, edges_covered, cost_after);
}

Result<ParallelNosyResult> RunParallelNosy(const Graph& g, const Workload& w,
                                           const ParallelNosyOptions& options) {
  if (w.num_users() != g.num_nodes()) {
    return Status::InvalidArgument("workload size does not match graph");
  }
  if (options.max_hub_producers == 0) {
    return Status::InvalidArgument("max_hub_producers must be positive");
  }

  options.hooks.Report("setup", 0, options.max_iterations, 0);
  NosyState state(g, w, options);
  ParallelNosyResult result;
  result.hybrid_cost = HybridCost(g, w);

  // Iteration 1 evaluates every edge; later iterations only the edges whose
  // hub-graph inputs changed (see NosyState::ActiveEdges).
  std::vector<HubEdge> active = state.AllHubEdges();
  std::unique_ptr<ThreadPool> pool;
  if (options.use_mapreduce) {
    pool = std::make_unique<ThreadPool>(
        options.num_threads ? options.num_threads : ThreadPool::DefaultThreads());
  }

  // Each iteration reports the start of its sub-phases (candidates + locks,
  // decide, merge, cost, and active unless it is the last) with the
  // iterations completed before it and the cost the schedule had then.
  double cost = result.hybrid_cost;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    if (options.hooks.ShouldStop()) break;  // early but valid: finalize below
    NosyIterationStats it_stats;
    size_t applied = 0;
    const uint64_t salt = Mix64(iter + 1);
    const PhaseFn phase = [&](const char* name) {
      options.hooks.Report(name, iter, options.max_iterations, cost);
    };
    phase("candidates");
    std::vector<Update> updates =
        options.use_mapreduce
            ? RunIterationMapReduce(state, active, salt, *pool, phase, &it_stats, &applied)
            : RunIterationSequential(state, active, salt, phase, &it_stats, &applied);
    it_stats.applied = applied;
    phase("merge");
    it_stats.edges_covered = state.Merge(updates);
    phase("cost");
    it_stats.cost_after = state.Cost();
    cost = it_stats.cost_after;
    result.iterations.push_back(it_stats);
    if (applied == 0) {
      result.converged = true;
      break;
    }
    if (iter + 1 == options.max_iterations) break;  // no iteration left to feed
    phase("active");
    active = state.ActiveEdges(updates);
  }

  options.hooks.Report("finalize", result.iterations.size(), options.max_iterations, cost);
  if (options.finalize_hybrid) state.Finalize();
  result.final_cost = state.Cost();
  result.schedule = std::move(state.schedule_);
  return result;
}

}  // namespace piggy
