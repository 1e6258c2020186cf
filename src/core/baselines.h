// Baseline request schedules (paper Sec. 1 and Sec. 4):
//
//  * push-all  — every edge in H; each query reads only the user's own view.
//  * pull-all  — every edge in L; each share writes only the user's own view.
//  * hybrid    — per edge, the cheaper of push and pull given the workload:
//                the MIN-COST schedule of Silberstein et al. (SIGMOD 2010),
//                referred to as FEEDINGFRENZY / FF throughout the paper; it
//                is the state-of-the-art baseline piggybacking is compared
//                against, and provably optimal among schedules that serve
//                every edge directly.

// The schedule-building functions here are deprecated legacy entry points:
// prefer MakePlanner("push-all" | "pull-all" | "hybrid") from core/planner.h,
// which wraps them in the uniform Planner contract (bit-identical schedules).

#pragma once

#include "core/schedule.h"
#include "graph/graph.h"
#include "workload/workload.h"

namespace piggy {

/// All edges pushed (materialize-everything). Best for read-heavy workloads.
Schedule PushAllSchedule(const Graph& g);

/// All edges pulled (query-time assembly). Best for write-heavy workloads.
Schedule PullAllSchedule(const Graph& g);

/// Silberstein et al. hybrid: edge u -> v pushed iff rp(u) <= rc(v), else
/// pulled. Ties resolve to push (one fewer query dependency).
Schedule HybridSchedule(const Graph& g, const Workload& w);

}  // namespace piggy
