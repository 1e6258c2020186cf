#include "rebalance/coordinator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/string_util.h"

namespace piggy {

Result<bool> MigrationCoordinator::Step() {
  // The load window is always one step, whether or not the trigger fires:
  // sample first so a long quiet stretch cannot smear into the window that
  // finally trips the threshold.
  std::vector<uint64_t> current = cluster_.PerUserLoad();
  std::vector<uint64_t> window(current.size());
  for (size_t u = 0; u < current.size(); ++u) {
    window[u] = current[u] - last_user_load_[u];
  }
  last_user_load_ = std::move(current);

  if (!trigger_.Observe(cluster_.GetMetrics())) return false;

  // The fire is worth a trace event even if the planner then finds nothing
  // to move — a fired-but-empty tick explains "why did nothing happen".
  if (obs::TraceLog* trace = cluster_.options().trace; trace != nullptr) {
    trace->Instant(
        obs::TraceEventKind::kTriggerFire, /*shard=*/-1,
        {{"reason", trigger_.last_fire_reason()},
         {"windowed_imbalance",
          StrFormat("%.3f", trigger_.windowed_imbalance())},
         {"windowed_cross_rate",
          StrFormat("%.4f", trigger_.windowed_cross_rate())},
         {"windowed_send_imbalance",
          StrFormat("%.3f", trigger_.windowed_send_imbalance())}});
  }
  std::string fire_counter = "rebalance.trigger_fires.";
  fire_counter += trigger_.last_fire_reason();
  cluster_.registry().GetCounter(fire_counter).Add();

  PIGGY_ASSIGN_OR_RETURN(Graph frozen, cluster_.GraphSnapshot());
  const MovePlan plan =
      PlanRebalance(frozen, cluster_.workload(),
                    cluster_.shard_map().assignment(),
                    cluster_.num_shards(), window, options_.plan);
  if (plan.empty()) return false;

  report_.times_fired += 1;
  report_.last_cut_before = plan.predicted_cut_before;
  report_.last_cut_after = plan.predicted_cut_after;
  report_.last_imbalance_before = plan.predicted_imbalance_before;
  report_.last_imbalance_after = plan.predicted_imbalance_after;

  // Execute in bounded batches so each exclusive cutover stays short.
  const size_t batch = std::max<size_t>(1, options_.batch_size);
  for (size_t begin = 0; begin < plan.moves.size(); begin += batch) {
    const size_t end = std::min(plan.moves.size(), begin + batch);
    std::vector<UserMove> moves;
    moves.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      moves.push_back(UserMove{plan.moves[i].user, plan.moves[i].to});
    }
    PIGGY_RETURN_NOT_OK(cluster_.MigrateUsers(moves));
    report_.migrations += 1;
    report_.users_moved += moves.size();
  }
  return true;
}

}  // namespace piggy
