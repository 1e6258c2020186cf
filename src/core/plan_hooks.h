// Cooperative control hooks threaded through the long-running optimizers.
//
// A PlanHooks carries two optional callbacks: a progress observer and a stop
// predicate. Both default to unset, in which case the optimizers behave
// exactly as before the hooks existed (the bit-parity golden tests rely on
// this). When the stop predicate fires, an optimizer finishes *early but
// valid*: it assigns every still-unserved edge directly at the hybrid cost
// and returns, so deadlines and cancellation always yield a schedule that
// passes ValidateSchedule — an anytime guarantee the serving layer
// (FeedService) depends on.
//
// The hooks are deliberately decoupled from PlanContext (core/planner.h),
// which is the user-facing bundle of thread count + deadline + cancellation
// token; planner adapters compile a PlanContext down to a PlanHooks.

#pragma once

#include <cstddef>
#include <functional>

namespace piggy {

/// \brief One progress observation from a running optimizer.
/// A report marks the start of its phase, which runs until the next report
/// of another phase; obs::PlanPhaseTracer times phases by this rule.
struct PlanProgress {
  const char* phase = "";  ///< e.g. "greedy" (CHITCHAT), "candidates" (NOSY)
  size_t step = 0;         ///< steps completed in this phase
  size_t total_hint = 0;   ///< upper bound on steps if known, else 0
  double cost = 0;         ///< current schedule cost estimate (0 if untracked)
};

/// \brief Optional cooperative callbacks honored by the optimizers.
struct PlanHooks {
  /// Called between steps (throttled by the optimizer); never concurrently.
  std::function<void(const PlanProgress&)> progress;
  /// Checked between steps; returning true makes the optimizer finish early
  /// with a valid (hybrid-completed) schedule.
  std::function<bool()> should_stop;

  bool ShouldStop() const { return should_stop && should_stop(); }

  void Report(const char* phase, size_t step, size_t total_hint,
              double cost) const {
    if (progress) progress(PlanProgress{phase, step, total_hint, cost});
  }
};

}  // namespace piggy
