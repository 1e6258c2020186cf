#include "core/baselines.h"

namespace piggy {

Schedule PushAllSchedule(const Graph& g) {
  Schedule s;
  g.ForEachEdge([&s](const Edge& e) { s.AddPush(e.src, e.dst); });
  return s;
}

Schedule PullAllSchedule(const Graph& g) {
  Schedule s;
  g.ForEachEdge([&s](const Edge& e) { s.AddPull(e.src, e.dst); });
  return s;
}

Schedule HybridSchedule(const Graph& g, const Workload& w) {
  Schedule s;
  g.ForEachEdge([&](const Edge& e) {
    if (w.rp(e.src) <= w.rc(e.dst)) {
      s.AddPush(e.src, e.dst);
    } else {
      s.AddPull(e.src, e.dst);
    }
  });
  return s;
}

}  // namespace piggy
