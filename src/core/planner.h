// The unified planner API: one contract for every request-schedule optimizer.
//
// The paper's design keeps the application logic schedule-agnostic while
// schedules compete purely on cost. This header is that seam in code: every
// optimizer — the CHITCHAT approximation, the PARALLELNOSY heuristic, and the
// push-all / pull-all / hybrid baselines — is a Planner, producing the same
// PlanResult from the same (Graph, Workload, PlanContext) inputs, and every
// consumer (piggy_tool, the bench harnesses, FeedService, tests) talks to the
// registry instead of per-algorithm free functions.
//
//   auto planner = MakePlanner("chitchat").MoveValueOrDie();
//   PlanResult plan = planner->Plan(graph, workload, {}).MoveValueOrDie();
//   // plan.schedule passes ValidateSchedule; plan.final_cost, trajectory...
//
// The registry is a constant table; its names (see RegisteredPlanners() for
// descriptions):
//   "chitchat"  O(log n) set-cover approximation
//   "nosy"      parallel single-consumer heuristic
//   "hybrid"    Silberstein et al. per-edge min cost (the FF baseline)
//   "push-all"  every edge pushed
//   "pull-all"  every edge pulled
//
// Algorithm-specific knobs stay in the per-algorithm options structs; the
// typed factories (MakeChitChatPlanner, MakeParallelNosyPlanner) wrap custom
// options in the uniform interface. PlanContext carries only the
// run-environment concerns every planner shares: thread budget, deadline,
// cancellation, progress. Deadline/cancellation are anytime-safe: a planner
// cut short still returns a schedule that serves every edge (unassigned edges
// complete at the hybrid policy).

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/chitchat.h"
#include "core/parallel_nosy.h"
#include "core/plan_hooks.h"
#include "core/schedule.h"
#include "graph/graph.h"
#include "util/status.h"
#include "workload/workload.h"

namespace piggy {

/// \brief Run-environment inputs shared by every planner.
///
/// Defaults reproduce the legacy free-function behavior bit-for-bit: planner
/// default threads, no deadline, no cancellation, no progress reporting.
struct PlanContext {
  /// Worker threads for parallel phases; 0 = the planner's own default.
  size_t num_threads = 0;
  /// Wall-clock budget in seconds; 0 = unlimited. On expiry the planner
  /// finishes early with a valid hybrid-completed schedule.
  double deadline_seconds = 0;
  /// Optional cancellation token (borrowed; may be flipped from any thread).
  /// A set token has the same early-finish semantics as an expired deadline.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional progress observer, invoked between optimizer steps.
  std::function<void(const PlanProgress&)> progress;

  /// "threads=auto deadline=none cancel=unset" — the settings string recorded
  /// in bench JSON rows so trajectories are comparable across planners.
  std::string ToString() const;
};

/// \brief Unified per-iteration counters (trajectory row).
struct PlanIterationStats {
  size_t candidates = 0;     ///< candidates passing the gain/density test
  size_t applied = 0;        ///< candidates applied this iteration
  size_t edges_covered = 0;  ///< cross edges newly covered via hubs
  double cost_after = 0;     ///< schedule cost after the iteration

  std::string ToString() const;
};

/// \brief What every planner returns: a valid schedule plus uniform metadata.
struct PlanResult {
  Schedule schedule;
  /// Cost of `schedule` (every edge assigned; residuals are impossible).
  double final_cost = 0;
  /// Cost of the hybrid (FF) baseline on the same input, for ratios.
  double hybrid_cost = 0;
  /// Per-iteration trajectory; empty for single-shot planners.
  std::vector<PlanIterationStats> iterations;
  /// False iff the planner was cut short (deadline / cancellation / cap).
  bool converged = true;
  /// Wall-clock seconds spent inside Plan().
  double wall_seconds = 0;
  /// Registry name of the planner that produced this result.
  std::string planner;
  /// Planner-specific counters, one human-readable line (may be empty).
  std::string stats_text;

  /// final / hybrid improvement summary, one line.
  std::string ToString() const;
};

/// \brief Registry metadata for one planner.
struct PlannerInfo {
  std::string name;         ///< registry key
  std::string description;  ///< one line, shown by `piggy_tool --planner list`
};

/// \brief Abstract schedule optimizer: the only planning contract in the
/// library. Implementations are stateless w.r.t. Plan calls (const, safe to
/// reuse and to call from multiple threads with distinct inputs).
class Planner {
 public:
  virtual ~Planner() = default;

  virtual const PlannerInfo& info() const = 0;
  const std::string& name() const { return info().name; }

  /// Computes a request schedule for (g, w). The returned schedule serves
  /// every graph edge (ValidateSchedule passes with default options), even
  /// when the context's deadline or cancellation cut the search short.
  virtual Result<PlanResult> Plan(const Graph& g, const Workload& w,
                                  const PlanContext& ctx = {}) const = 0;
};

/// Instantiates a registered planner by name with default algorithm
/// options. Unknown names return InvalidArgument listing the valid options.
/// Thread-safe.
Result<std::unique_ptr<Planner>> MakePlanner(std::string_view name);

/// All registered planners, sorted by name. Thread-safe.
std::vector<PlannerInfo> RegisteredPlanners();

/// Typed factories: registry planners with custom algorithm options.
/// ctx.num_threads (when nonzero) overrides the options' own thread count.
std::unique_ptr<Planner> MakeChitChatPlanner(const ChitChatOptions& options = {});
std::unique_ptr<Planner> MakeParallelNosyPlanner(
    const ParallelNosyOptions& options = {});

}  // namespace piggy
