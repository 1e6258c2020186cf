// End-to-end pipeline tests: generate -> workload -> optimize -> validate ->
// serve -> audit, mirroring the paper's full evaluation loop at small scale.

#include <gtest/gtest.h>

#include "core/piggy.h"

namespace piggy {
namespace {

// Replays `requests` requests of the paper's stationary mix at `w`'s rates
// through `plane`, which serves `schedule`.
ReplayReport ReplayStationary(Prototype& plane, const Workload& w,
                              const Schedule& schedule, size_t requests,
                              uint64_t seed, const ReplayOptions& options = {}) {
  auto scenario = MakeScenario("stationary", plane.graph(), w,
                               {.num_requests = requests, .seed = seed})
                      .MoveValueOrDie();
  return ReplayScenario(*scenario, plane, schedule, options).MoveValueOrDie();
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeFlickrLike(600, 101).ValueOrDie();
    workload_ = GenerateWorkload(graph_, {.read_write_ratio = 5.0,
                                          .min_rate = 0.05})
                    .ValueOrDie();
  }
  Graph graph_;
  Workload workload_;
};

TEST_F(PipelineTest, CostOrderingAcrossPlanners) {
  auto plan = [this](const char* name) {
    return MakePlanner(name)
        .ValueOrDie()
        ->Plan(graph_, workload_)
        .MoveValueOrDie();
  };
  double ff = HybridCost(graph_, workload_);
  PlanResult push_all = plan("push-all");
  PlanResult pull_all = plan("pull-all");
  PlanResult pn = plan("nosy");
  PlanResult cc = plan("chitchat");

  // FF dominates the naive baselines; piggybacking dominates FF.
  EXPECT_LE(ff, push_all.final_cost + 1e-9);
  EXPECT_LE(ff, pull_all.final_cost + 1e-9);
  EXPECT_LE(pn.final_cost, ff + 1e-6);
  EXPECT_LE(cc.final_cost, ff + 1e-6);
  // On a clustered graph at the reference ratio both must find real savings.
  EXPECT_LT(pn.final_cost, ff * 0.995);
  EXPECT_LT(cc.final_cost, ff * 0.995);
  // CHITCHAT searches a richer hub-graph space than single-consumer
  // PARALLELNOSY (paper Sec. 4.4: "the difference is large").
  EXPECT_LE(cc.final_cost, pn.final_cost * 1.02);
}

TEST_F(PipelineTest, EveryRegisteredPlannerValidatesAndServes) {
  // The full pipeline must work for whatever the registry knows about —
  // the schedule-agnostic serving layer is the paper's core design claim.
  for (const PlannerInfo& info : RegisteredPlanners()) {
    SCOPED_TRACE(info.name);
    PlanResult plan = MakePlanner(info.name)
                          .ValueOrDie()
                          ->Plan(graph_, workload_)
                          .MoveValueOrDie();
    ASSERT_TRUE(ValidateSchedule(graph_, plan.schedule).ok());
    PrototypeOptions opt;
    opt.num_servers = 32;
    opt.view_capacity = 0;  // exact audits
    auto proto = Prototype::Create(graph_, plan.schedule, opt).MoveValueOrDie();
    size_t audited = 0;
    ReplayOptions options;
    options.on_epoch_close = AuditPlaneAtEpochClose(*proto, 2, &audited);
    ReplayStationary(*proto, workload_, plan.schedule, 3000, 13, options);
    EXPECT_GT(audited, 10u);
    EXPECT_GT(proto->ActualThroughput(), 0.0);
  }
}

TEST_F(PipelineTest, PiggybackReducesMessagesOnLargeFleets) {
  // The paper's Fig. 6 claim at small scale: with many servers, PARALLELNOSY
  // should need fewer messages per request than FF on the same traffic.
  Schedule ff = HybridSchedule(graph_, workload_);
  auto pn = RunParallelNosy(graph_, workload_).ValueOrDie();

  PrototypeOptions opt;
  opt.num_servers = 256;  // large fleet: placement co-location is rare

  auto proto_ff = Prototype::Create(graph_, ff, opt).MoveValueOrDie();
  auto report_ff = ReplayStationary(*proto_ff, workload_, ff, 8000, 17);
  auto proto_pn = Prototype::Create(graph_, pn.schedule, opt).MoveValueOrDie();
  auto report_pn = ReplayStationary(*proto_pn, workload_, pn.schedule, 8000, 17);

  EXPECT_LT(report_pn.messages_per_request, report_ff.messages_per_request);
  EXPECT_GT(proto_pn->ActualThroughput(), proto_ff->ActualThroughput());
}

TEST_F(PipelineTest, MeasuredMessagesMatchPlacementCost) {
  // Fig. 7's "striking consistency": measured messages per request should
  // track the placement-aware predicted cost per unit workload.
  Schedule ff = HybridSchedule(graph_, workload_);
  PrototypeOptions opt;
  opt.num_servers = 64;
  HashPartitioner part(opt.num_servers);
  double predicted_cost = PlacementAwareCost(graph_, workload_, ff, part);
  double total_rate = workload_.TotalProduction() + workload_.TotalConsumption();
  double predicted_mpr = predicted_cost / total_rate;

  auto proto = Prototype::Create(graph_, ff, opt).MoveValueOrDie();
  auto report = ReplayStationary(*proto, workload_, ff, 20000, 23);
  EXPECT_NEAR(report.messages_per_request, predicted_mpr,
              predicted_mpr * 0.05);
}

TEST_F(PipelineTest, GraphRoundTripPreservesScheduleCosts) {
  // Persist the graph, reload it, and verify optimization is reproducible.
  std::string path = ::testing::TempDir() + "/pipeline_graph.bin";
  ASSERT_TRUE(WriteGraphBinary(graph_, path).ok());
  Graph reloaded = ReadGraphBinary(path).ValueOrDie();
  Workload w2 = GenerateWorkload(reloaded, {.read_write_ratio = 5.0,
                                            .min_rate = 0.05})
                    .ValueOrDie();
  auto a = RunParallelNosy(graph_, workload_).ValueOrDie();
  auto b = RunParallelNosy(reloaded, w2).ValueOrDie();
  EXPECT_NEAR(a.final_cost, b.final_cost, 1e-9);
  std::remove(path.c_str());
}

TEST_F(PipelineTest, SamplingPreservesOptimizability) {
  // Fig. 9's setup: sample the graph, optimize the sample, gains persist.
  GraphSample sample = BreadthFirstSample(graph_, 3000, 3).ValueOrDie();
  Workload w = GenerateWorkload(sample.graph, {.min_rate = 0.05}).ValueOrDie();
  auto pn = RunParallelNosy(sample.graph, w).ValueOrDie();
  Schedule cc = RunChitChat(sample.graph, w).ValueOrDie();
  double ff = HybridCost(sample.graph, w);
  EXPECT_LE(pn.final_cost, ff + 1e-6);
  EXPECT_LE(ScheduleCost(sample.graph, w, cc, ResidualPolicy::kFree), ff + 1e-6);
}

TEST_F(PipelineTest, DynamicLifecycle) {
  // Optimize, churn, stay valid, re-optimize, improve.
  auto pn = RunParallelNosy(graph_, workload_).ValueOrDie();
  DynamicGraph dyn(graph_);
  Schedule schedule = std::move(pn.schedule);
  IncrementalMaintainer maintainer(&dyn, &schedule, &workload_);

  Rng rng(51);
  for (int i = 0; i < 1000; ++i) {
    NodeId u = static_cast<NodeId>(rng.Uniform(dyn.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.Uniform(dyn.num_nodes()));
    if (u == v) continue;
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(maintainer.AddEdge(u, v).ok());
    } else if (dyn.HasEdge(u, v)) {
      ASSERT_TRUE(maintainer.RemoveEdge(u, v).ok());
    }
  }
  ASSERT_TRUE(ValidateSchedule(dyn, schedule).ok());

  Graph churned = dyn.Snapshot().ValueOrDie();
  double incremental_cost = ScheduleCost(churned, workload_, schedule,
                                         ResidualPolicy::kFree);
  // Re-optimization is a fresh local search; it usually beats the churned
  // schedule but carries no per-instance guarantee — allow a small slack
  // (Fig. 5 makes the aggregate claim, reproduced in bench_fig5_incremental).
  auto reopt = RunParallelNosy(churned, workload_).ValueOrDie();
  EXPECT_LE(reopt.final_cost, incremental_cost * 1.02);
}

}  // namespace
}  // namespace piggy
