#include "core/planner.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/baselines.h"
#include "core/cost_model.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace piggy {

std::string PlanContext::ToString() const {
  std::string threads = num_threads == 0 ? "auto" : std::to_string(num_threads);
  std::string deadline =
      deadline_seconds > 0 ? StrFormat("%.3gs", deadline_seconds) : "none";
  return StrFormat("threads=%s deadline=%s cancel=%s", threads.c_str(),
                   deadline.c_str(), cancel != nullptr ? "armed" : "none");
}

std::string PlanIterationStats::ToString() const {
  return StrFormat("candidates=%zu applied=%zu covered=%zu cost=%.3f",
                   candidates, applied, edges_covered, cost_after);
}

std::string PlanResult::ToString() const {
  return StrFormat(
      "%s: cost=%.3f ff=%.3f ratio=%.3fx iterations=%zu converged=%d "
      "wall=%.2fs", planner.c_str(), final_cost, hybrid_cost,
      ImprovementRatio(hybrid_cost, final_cost), iterations.size(),
      converged ? 1 : 0, wall_seconds);
}

namespace {

Status CheckPlanInputs(const Graph& g, const Workload& w) {
  if (w.num_users() != g.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("workload covers %zu users but graph has %zu nodes",
                  w.num_users(), g.num_nodes()));
  }
  return Status::OK();
}

/// Compiles the context's deadline + cancellation + progress into the
/// optimizer-facing hooks. `fired` records whether the stop predicate ever
/// returned true (=> the optimizer finished early; PlanResult.converged).
PlanHooks CompileHooks(const PlanContext& ctx, std::shared_ptr<bool> fired) {
  PlanHooks hooks;
  hooks.progress = ctx.progress;
  if (ctx.deadline_seconds > 0 || ctx.cancel != nullptr) {
    auto timer = std::make_shared<WallTimer>();
    const double deadline = ctx.deadline_seconds;
    const std::atomic<bool>* cancel = ctx.cancel;
    hooks.should_stop = [timer, deadline, cancel, fired]() {
      const bool stop =
          (cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
          (deadline > 0 && timer->Seconds() >= deadline);
      if (stop) *fired = true;
      return stop;
    };
  }
  return hooks;
}

class ChitChatPlanner final : public Planner {
 public:
  explicit ChitChatPlanner(const ChitChatOptions& options) : options_(options) {}

  const PlannerInfo& info() const override {
    static const PlannerInfo kInfo{
        "chitchat",
        "greedy set-cover over hub-graphs via the densest-subgraph oracle; "
        "O(log n) approximation (paper Alg. 1)"};
    return kInfo;
  }

  Result<PlanResult> Plan(const Graph& g, const Workload& w,
                          const PlanContext& ctx) const override {
    PIGGY_RETURN_NOT_OK(CheckPlanInputs(g, w));
    WallTimer timer;
    auto fired = std::make_shared<bool>(false);
    ChitChatOptions options = options_;
    if (ctx.num_threads != 0) options.num_threads = ctx.num_threads;
    options.hooks = CompileHooks(ctx, fired);

    ChitChatStats stats;
    PIGGY_ASSIGN_OR_RETURN(Schedule schedule, RunChitChat(g, w, options, &stats));

    PlanResult result;
    result.schedule = std::move(schedule);
    result.final_cost = stats.final_cost;
    result.hybrid_cost = HybridCost(g, w);
    result.converged = !*fired;
    result.wall_seconds = timer.Seconds();
    result.planner = name();
    result.stats_text = stats.ToString();
    return result;
  }

 private:
  ChitChatOptions options_;
};

class ParallelNosyPlanner final : public Planner {
 public:
  explicit ParallelNosyPlanner(const ParallelNosyOptions& options)
      : options_(options) {}

  const PlannerInfo& info() const override {
    static const PlannerInfo kInfo{
        "nosy",
        "iterative single-consumer hub heuristic with parallel candidate/lock/"
        "apply phases (paper Alg. 2)"};
    return kInfo;
  }

  Result<PlanResult> Plan(const Graph& g, const Workload& w,
                          const PlanContext& ctx) const override {
    PIGGY_RETURN_NOT_OK(CheckPlanInputs(g, w));
    WallTimer timer;
    auto fired = std::make_shared<bool>(false);
    ParallelNosyOptions options = options_;
    if (ctx.num_threads != 0) options.num_threads = ctx.num_threads;
    options.hooks = CompileHooks(ctx, fired);

    PIGGY_ASSIGN_OR_RETURN(ParallelNosyResult nosy, RunParallelNosy(g, w, options));

    PlanResult result;
    result.schedule = std::move(nosy.schedule);
    result.final_cost = nosy.final_cost;
    result.hybrid_cost = nosy.hybrid_cost;
    result.iterations.reserve(nosy.iterations.size());
    for (const NosyIterationStats& it : nosy.iterations) {
      result.iterations.push_back(
          {it.candidates, it.applied, it.edges_covered, it.cost_after});
    }
    result.converged = nosy.converged && !*fired;
    result.wall_seconds = timer.Seconds();
    result.planner = name();
    if (!nosy.iterations.empty()) {
      result.stats_text = nosy.iterations.back().ToString();
    }
    return result;
  }

 private:
  ParallelNosyOptions options_;
};

/// The three single-shot baselines share one implementation.
class BaselinePlanner final : public Planner {
 public:
  enum class Kind { kPushAll, kPullAll, kHybrid };

  explicit BaselinePlanner(Kind kind) : kind_(kind) {}

  const PlannerInfo& info() const override {
    static const PlannerInfo kPush{
        "push-all", "every edge pushed; queries read only the user's own view"};
    static const PlannerInfo kPull{
        "pull-all", "every edge pulled; shares write only the user's own view"};
    static const PlannerInfo kHybrid{
        "hybrid", "per-edge min(push, pull) of Silberstein et al. (FF "
        "baseline); optimal without piggybacking"};
    switch (kind_) {
      case Kind::kPushAll: return kPush;
      case Kind::kPullAll: return kPull;
      case Kind::kHybrid: return kHybrid;
    }
    return kHybrid;  // unreachable
  }

  Result<PlanResult> Plan(const Graph& g, const Workload& w,
                          const PlanContext& ctx) const override {
    (void)ctx;  // single-shot: nothing to thread, cancel, or report
    PIGGY_RETURN_NOT_OK(CheckPlanInputs(g, w));
    WallTimer timer;
    PlanResult result;
    switch (kind_) {
      case Kind::kPushAll: result.schedule = PushAllSchedule(g); break;
      case Kind::kPullAll: result.schedule = PullAllSchedule(g); break;
      case Kind::kHybrid: result.schedule = HybridSchedule(g, w); break;
    }
    result.final_cost = ScheduleCost(g, w, result.schedule, ResidualPolicy::kFree);
    result.hybrid_cost = HybridCost(g, w);
    result.wall_seconds = timer.Seconds();
    result.planner = name();
    return result;
  }

 private:
  Kind kind_;
};

// The registry: one factory per planner, in name order. Each planner's
// info() is the one spelling of its name and description.
using PlannerFactory = std::unique_ptr<Planner> (*)();
constexpr PlannerFactory kPlanners[] = {
    [] { return MakeChitChatPlanner(); },
    []() -> std::unique_ptr<Planner> {
      return std::make_unique<BaselinePlanner>(BaselinePlanner::Kind::kHybrid);
    },
    [] { return MakeParallelNosyPlanner(); },
    []() -> std::unique_ptr<Planner> {
      return std::make_unique<BaselinePlanner>(BaselinePlanner::Kind::kPullAll);
    },
    []() -> std::unique_ptr<Planner> {
      return std::make_unique<BaselinePlanner>(BaselinePlanner::Kind::kPushAll);
    },
};

}  // namespace

Result<std::unique_ptr<Planner>> MakePlanner(std::string_view name) {
  std::vector<std::string> names;
  for (PlannerFactory make : kPlanners) {
    std::unique_ptr<Planner> planner = make();
    if (planner->name() == name) return planner;
    names.push_back(planner->name());
  }
  return Status::InvalidArgument(
      StrFormat("unknown planner '%.*s'; valid planners: %s",
                static_cast<int>(name.size()), name.data(),
                StrJoin(names, ", ").c_str()));
}

std::vector<PlannerInfo> RegisteredPlanners() {
  std::vector<PlannerInfo> infos;
  for (PlannerFactory make : kPlanners) infos.push_back(make()->info());
  return infos;
}

std::unique_ptr<Planner> MakeChitChatPlanner(const ChitChatOptions& options) {
  return std::make_unique<ChitChatPlanner>(options);
}

std::unique_ptr<Planner> MakeParallelNosyPlanner(
    const ParallelNosyOptions& options) {
  return std::make_unique<ParallelNosyPlanner>(options);
}

}  // namespace piggy
