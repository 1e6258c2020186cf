// Living social network: keep a piggybacking deployment valid and cheap
// while users follow and unfollow (paper Sec. 3.3 / Fig. 5), entirely
// through the FeedService facade.
//
// The service plans with a registry planner, applies churn through the
// incremental maintainer (schedules stay Theorem-1 valid after every
// operation), and re-runs the planner when drift warrants it — here one
// manual Replan() at the end (FeedServiceOptions::replan automates it, e.g.
// ReplanPolicy::EveryN).
//
// Build & run:  ./examples/dynamic_graph

#include <cstdio>

#include "core/piggy.h"

using namespace piggy;

int main() {
  const size_t kNodes = 4000;
  Graph initial = MakeFlickrLike(kNodes, /*seed=*/3).ValueOrDie();

  FeedServiceOptions options;
  options.planner = "nosy";
  options.workload = {.read_write_ratio = 5.0, .min_rate = 0.01};
  options.prototype.num_servers = 32;
  auto service = FeedService::Create(initial, options).MoveValueOrDie();

  FeedService::Metrics m = service->GetMetrics();
  std::printf("initial optimization (%s): %.2fx over FF (%zu piggybacked "
              "edges)\n\n", m.planner.c_str(),
              m.hybrid_cost / m.schedule_cost,
              service->schedule().hub_covered_size());

  std::printf("%-10s %-12s %-14s %-10s %-10s\n", "churn_ops", "edges",
              "ratio_now", "repairs", "replans");
  Rng rng(17);
  const size_t kRounds = 8;
  const size_t kOpsPerRound = 2500;
  for (size_t round = 1; round <= kRounds; ++round) {
    for (size_t op = 0; op < kOpsPerRound; ++op) {
      NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      NodeId v = static_cast<NodeId>(rng.Uniform(kNodes));
      if (u == v) continue;
      if (rng.Bernoulli(0.65)) {
        PIGGY_CHECK_OK(service->Follow(/*follower=*/v, /*producer=*/u));
      } else if (service->graph().HasEdge(u, v)) {
        PIGGY_CHECK_OK(service->Unfollow(/*follower=*/v, /*producer=*/u));
      }
    }
    // The schedule must stay Theorem-1 valid through arbitrary churn.
    PIGGY_CHECK_OK(service->Validate());
    m = service->GetMetrics();
    std::printf("%-10zu %-12zu %-14.3f %-10zu %-10zu\n", round * kOpsPerRound,
                service->graph().num_edges(), m.hybrid_cost / m.schedule_cost,
                m.repairs, m.replans);
  }

  // After heavy churn, re-optimize in place: same facade, fresh schedule.
  double drifted_ratio = m.hybrid_cost / m.schedule_cost;
  PIGGY_CHECK_OK(service->Replan());
  PIGGY_CHECK_OK(service->Validate());
  m = service->GetMetrics();
  std::printf("\nafter churn:   incremental schedule ratio %.3f\n",
              drifted_ratio);
  std::printf("re-optimized:  fresh schedule ratio      %.3f\n",
              m.hybrid_cost / m.schedule_cost);
  std::printf("\nschedule swapped in and maintainer re-indexed; churn can "
              "continue.\n");
  return 0;
}
