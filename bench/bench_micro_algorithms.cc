// Micro-benchmarks of the scheduling algorithms (google-benchmark).
// Accepts --json PATH (in addition to the native --benchmark_* flags) to
// emit the machine-readable trajectory format; see bench_common.h.

#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_common.h"
#include "core/baselines.h"
#include "core/validator.h"
#include "core/chitchat.h"
#include "core/cost_model.h"
#include "core/densest_subgraph.h"
#include "core/oracle_scratch.h"
#include "core/parallel_nosy.h"
#include "gen/presets.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

struct Fixture {
  Graph graph;
  Workload workload;
};

const Fixture& SharedFixture(size_t nodes) {
  static std::map<size_t, Fixture> cache;
  auto it = cache.find(nodes);
  if (it == cache.end()) {
    Fixture f;
    f.graph = MakeFlickrLike(nodes, 1).ValueOrDie();
    f.workload = GenerateWorkload(f.graph, {.read_write_ratio = 5.0,
                                            .min_rate = 0.01})
                     .ValueOrDie();
    it = cache.emplace(nodes, std::move(f)).first;
  }
  return it->second;
}

void BM_HybridSchedule(benchmark::State& state) {
  const Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Schedule s = HybridSchedule(f.graph, f.workload);
    benchmark::DoNotOptimize(s.push_size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.graph.num_edges()));
}
BENCHMARK(BM_HybridSchedule)->Arg(2000)->Arg(10000);

void BM_ScheduleCost(benchmark::State& state) {
  const Fixture& f = SharedFixture(10000);
  Schedule s = HybridSchedule(f.graph, f.workload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScheduleCost(f.graph, f.workload, s));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.graph.num_edges()));
}
BENCHMARK(BM_ScheduleCost);

// Synthetic hub-graph with the given side size and ~30% cross density.
HubGraphInstance MakeSyntheticInstance(size_t side) {
  Rng rng(5);
  HubGraphInstance inst;
  inst.hub = 0;
  for (size_t p = 0; p < side; ++p) {
    inst.producers.push_back(static_cast<NodeId>(p));
    inst.producer_weight.push_back(0.5 + rng.UniformDouble());
    inst.producer_link_in_z.push_back(1);
  }
  for (size_t c = 0; c < side; ++c) {
    inst.consumers.push_back(static_cast<NodeId>(10000 + c));
    inst.consumer_weight.push_back(0.5 + rng.UniformDouble());
    inst.consumer_link_in_z.push_back(1);
  }
  for (uint32_t p = 0; p < side; ++p) {
    for (uint32_t c = 0; c < side; ++c) {
      if (rng.Bernoulli(0.3)) inst.cross_edges.emplace_back(p, c);
    }
  }
  return inst;
}

// Cold-arena baseline: a fresh scratch per solve, to size the allocation
// overhead the reused-arena variant below avoids.
void BM_DensestSubgraphPeeling(benchmark::State& state) {
  HubGraphInstance inst = MakeSyntheticInstance(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    OracleScratch scratch;
    DensestSubgraphSolution sol;
    SolveWeightedDensestSubgraph(inst, scratch, &sol);
    benchmark::DoNotOptimize(sol.density);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(inst.cross_edges.size()));
}
BENCHMARK(BM_DensestSubgraphPeeling)->Arg(16)->Arg(64)->Arg(256);

// The CHITCHAT-shaped hot path: repeated solves reusing one scratch arena
// and one output object (zero steady-state heap allocations).
void BM_DensestSubgraphPeelingScratch(benchmark::State& state) {
  HubGraphInstance inst = MakeSyntheticInstance(static_cast<size_t>(state.range(0)));
  OracleScratch scratch;
  DensestSubgraphSolution sol;
  for (auto _ : state) {
    SolveWeightedDensestSubgraph(inst, scratch, &sol);
    benchmark::DoNotOptimize(sol.density);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(inst.cross_edges.size()));
}
BENCHMARK(BM_DensestSubgraphPeelingScratch)->Arg(16)->Arg(64)->Arg(256);

void BM_ParallelNosyIteration(benchmark::State& state) {
  const Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ParallelNosyOptions opt;
    opt.max_iterations = 1;  // cost of a single optimization iteration
    opt.finalize_hybrid = false;
    auto result = RunParallelNosy(f.graph, f.workload, opt).ValueOrDie();
    benchmark::DoNotOptimize(result.iterations[0].candidates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.graph.num_edges()));
}
BENCHMARK(BM_ParallelNosyIteration)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

// One pool thread (num_threads = 1), so the figure the CI gate compares
// with its pin depends on one core's speed, not on the runner's core count.
void BM_ParallelNosyFull(benchmark::State& state) {
  const Fixture& f = SharedFixture(2000);
  ParallelNosyOptions opt;
  opt.num_threads = 1;
  for (auto _ : state) {
    auto result = RunParallelNosy(f.graph, f.workload, opt).ValueOrDie();
    benchmark::DoNotOptimize(result.final_cost);
  }
  state.SetLabel("to convergence");
}
BENCHMARK(BM_ParallelNosyFull)->Unit(benchmark::kMillisecond);

// Sequential reference (num_threads = 1): the number every BENCH_*.json
// trajectory entry compares against.
void BM_ChitChatFull(benchmark::State& state) {
  const Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  ChitChatOptions opt;
  opt.num_threads = 1;
  for (auto _ : state) {
    Schedule s = RunChitChat(f.graph, f.workload, opt).ValueOrDie();
    benchmark::DoNotOptimize(s.hub_covered_size());
  }
}
BENCHMARK(BM_ChitChatFull)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// Threaded oracle sweeps; args are {nodes, num_threads}. Produces the exact
// same schedule as the sequential reference (see ChitChatParityTest).
void BM_ChitChatThreaded(benchmark::State& state) {
  const Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  ChitChatOptions opt;
  opt.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    Schedule s = RunChitChat(f.graph, f.workload, opt).ValueOrDie();
    benchmark::DoNotOptimize(s.hub_covered_size());
  }
}
BENCHMARK(BM_ChitChatThreaded)
    ->Args({2000, 2})
    ->Args({2000, 4})
    ->Args({2000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_ValidateSchedule(benchmark::State& state) {
  const Fixture& f = SharedFixture(10000);
  auto pn = RunParallelNosy(f.graph, f.workload).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateSchedule(f.graph, pn.schedule).ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.graph.num_edges()));
}
BENCHMARK(BM_ValidateSchedule)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace piggy

int main(int argc, char** argv) { return piggy::bench::RunBenchmarkMain(argc, argv); }
