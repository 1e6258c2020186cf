// PARALLELNOSY: the scalable parallel heuristic (paper Sec. 3.2, Alg. 2).
//
// Restricts hub-graphs to a single consumer G(X, w, y) — many cheap pushes
// X -> w buy one expensive pull w -> y and cover all cross edges X -> y —
// and proceeds in iterations of three phases:
//
//   1. Candidate selection (parallel per edge w -> y not yet hub-covered):
//      X = common predecessors x of w and y with x -> w not hub-covered and
//      the cross edge x -> y unassigned. The candidate's saved cost is the
//      hybrid cost of the covered cross edges; its positive cost accounts for
//      upgrading x -> w to push and w -> y to pull relative to the current
//      assignment. Candidates need positive gain.
//   2. Edge locking (parallel per edge): each candidate requests locks on all
//      its edges; the highest-gain request wins (deterministic tie-break by
//      hub-edge id, or salted-hash for the ablation).
//   3. Scheduling decision (parallel per candidate): fully granted candidates
//      apply; partially granted ones shrink to X' (both x -> w and x -> y
//      locks granted, plus the w -> y lock) and re-evaluate the gain before
//      applying.
//
// Iterations repeat until a fixed point (no candidate applies) or the
// iteration cap. Unassigned edges fall back to the hybrid policy;
// finalize_hybrid (default) assigns each to its cheaper direct side.
//
// Two executors produce bit-identical schedules: a sequential reference and a
// MapReduce implementation running phases as jobs on src/mapreduce (the paper
// ran the same structure on Hadoop). Both read one dense service state per
// canonical edge index (push, pull, hub-covered) that mirrors the schedule:
// X is the sorted intersection of the in-lists of w and y, whose positions
// index that state directly, so no per-edge step probes a hash set or
// searches an adjacency list.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan_hooks.h"
#include "core/schedule.h"
#include "graph/graph.h"
#include "util/status.h"
#include "workload/workload.h"

namespace piggy {

/// \brief PARALLELNOSY tuning knobs.
struct ParallelNosyOptions {
  /// Hard cap on optimization iterations (convergence usually much earlier).
  size_t max_iterations = 50;
  /// The paper's bound b: cap on |X| (= detected cross edges) per hub-graph.
  size_t max_hub_producers = 100000;
  /// Minimum gain for a candidate to qualify (paper: strictly positive = 0).
  double min_gain = 0.0;
  /// Run phases as MapReduce jobs (true) or as the sequential reference.
  bool use_mapreduce = true;
  /// Worker threads for the MapReduce executor (0 = default).
  size_t num_threads = 0;
  /// Ablation D3: break lock ties by salted hash instead of hub-edge id.
  bool randomized_tie_break = false;
  /// Assign leftover edges to the cheaper direct side before returning.
  bool finalize_hybrid = true;
  /// Optional progress/cancellation callbacks (core/plan_hooks.h). Progress
  /// marks the start of each phase: "setup", then per iteration
  /// "candidates" (candidate + lock job), "decide", "merge", "cost" and,
  /// unless it is the last, "active" (the next iteration's hub edges), then
  /// "finalize", each with the iterations completed before it. The stop
  /// predicate is checked once per iteration; firing ends the iteration
  /// loop early (converged stays false) and finalize_hybrid then completes
  /// the schedule as usual. Unset hooks change nothing.
  PlanHooks hooks;
};

/// \brief Per-iteration counters (Fig. 4's x-axis).
struct NosyIterationStats {
  size_t candidates = 0;      ///< hub-graphs passing the gain test
  size_t lock_requests = 0;   ///< edge locks requested
  size_t applied = 0;         ///< candidates applied (full or shrunk)
  size_t edges_covered = 0;   ///< cross edges newly covered via hubs
  double cost_after = 0;      ///< schedule cost (hybrid residual) after merge

  std::string ToString() const;
};

/// \brief Result: the schedule plus the convergence trace.
struct ParallelNosyResult {
  Schedule schedule;
  std::vector<NosyIterationStats> iterations;
  bool converged = false;
  double final_cost = 0;
  double hybrid_cost = 0;  ///< FF baseline cost on the same input
};

/// Runs PARALLELNOSY. The result's schedule passes the validator with default
/// options when `finalize_hybrid` is on.
///
/// Deprecated legacy entry point: prefer MakePlanner("nosy") or
/// MakeParallelNosyPlanner(options) from core/planner.h (bit-identical
/// schedules, uniform PlanResult/PlanContext).
Result<ParallelNosyResult> RunParallelNosy(const Graph& g, const Workload& w,
                                           const ParallelNosyOptions& options = {});

}  // namespace piggy
