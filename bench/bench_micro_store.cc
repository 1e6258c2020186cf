// Micro-benchmarks of the prototype store path (google-benchmark).
// Accepts --json PATH for machine-readable output; see bench_common.h.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

#include "cluster/cluster_service.h"
#include "core/baselines.h"
#include "core/parallel_nosy.h"
#include "gen/presets.h"
#include "simd/kernels.h"
#include "store/prototype.h"
#include "util/alias_table.h"
#include "util/u64_containers.h"
#include "workload/workload.h"

namespace piggy {
namespace {

struct System {
  Graph graph;
  Workload workload;
  std::unique_ptr<Prototype> prototype;
  AliasTable* share_sampler = nullptr;
  AliasTable* query_sampler = nullptr;
};

System& SharedSystem() {
  static System sys = [] {
    System s;
    s.graph = MakeFlickrLike(5000, 1).ValueOrDie();
    s.workload = GenerateWorkload(s.graph, {.read_write_ratio = 5.0,
                                            .min_rate = 0.01})
                     .ValueOrDie();
    auto pn = RunParallelNosy(s.graph, s.workload).ValueOrDie();
    PrototypeOptions opt;
    opt.num_servers = 64;
    s.prototype = Prototype::Create(s.graph, pn.schedule, opt).MoveValueOrDie();
    s.share_sampler = new AliasTable(s.workload.production);
    s.query_sampler = new AliasTable(s.workload.consumption);
    return s;
  }();
  return sys;
}

void BM_ShareEvent(benchmark::State& state) {
  System& sys = SharedSystem();
  Rng rng(3);
  for (auto _ : state) {
    sys.prototype->ShareEvent(sys.share_sampler->Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShareEvent);

void BM_QueryStream(benchmark::State& state) {
  System& sys = SharedSystem();
  Rng rng(5);
  // Warm the views so queries do real merge work.
  for (int i = 0; i < 5000; ++i) {
    sys.prototype->ShareEvent(sys.share_sampler->Sample(rng));
  }
  for (auto _ : state) {
    auto stream = sys.prototype->QueryStream(sys.query_sampler->Sample(rng));
    benchmark::DoNotOptimize(stream.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryStream);

// The router path: a 4-shard edge-cut cluster (chitchat per shard) over a
// small Twitter-like graph, so queries merge the shard feed with push
// replicas and pulled histories read from other shards.
struct ClusterSystem {
  Graph graph;
  Workload workload;
  std::unique_ptr<ClusterService> cluster;
  std::unique_ptr<AliasTable> share_sampler;
  std::unique_ptr<AliasTable> query_sampler;
};

ClusterSystem& SharedCluster() {
  static ClusterSystem sys = [] {
    ClusterSystem s;
    s.graph = MakeTwitterLike(5000, 1).ValueOrDie();
    s.workload = GenerateWorkload(s.graph, {.read_write_ratio = 1.0,
                                            .min_rate = 0.01})
                     .ValueOrDie();
    ClusterOptions options;
    options.num_shards = 4;
    options.partitioner = "edge-cut";
    options.shard.planner = "chitchat";
    s.cluster =
        ClusterService::Create(s.graph, s.workload, options).MoveValueOrDie();
    s.share_sampler = std::make_unique<AliasTable>(s.workload.production);
    s.query_sampler = std::make_unique<AliasTable>(s.workload.consumption);
    // Warm every history and replica so queries merge full sources.
    Rng rng(13);
    for (int i = 0; i < 50000; ++i) {
      PIGGY_CHECK_OK(s.cluster->Share(
          static_cast<NodeId>(s.share_sampler->Sample(rng))));
    }
    return s;
  }();
  return sys;
}

void BM_ClusterQueryStream(benchmark::State& state) {
  ClusterSystem& sys = SharedCluster();
  Rng rng(17);
  for (auto _ : state) {
    auto stream = sys.cluster->QueryStream(
        static_cast<NodeId>(sys.query_sampler->Sample(rng)));
    benchmark::DoNotOptimize(stream.ValueOrDie().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterQueryStream);

void BM_ClusterShare(benchmark::State& state) {
  ClusterSystem& sys = SharedCluster();
  Rng rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.cluster->Share(
        static_cast<NodeId>(sys.share_sampler->Sample(rng))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterShare);

// simd::SelectKeyedNewestInto on one full view ring (128 records, the
// EventTuple stride) against a keep set of state.range(0) members, keys
// drawn over 5x as many producers (20% of records kept). range(1) is k:
// 10 (a feed) stops early, 128 scans the whole ring. Sizes up to
// simd::kSmallSetMax take the broadcast-compare path, larger ones the
// gather bisection; PERFORMANCE.md "Interest sets" has the crossover.
void BM_SelectKeyedNewest(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  constexpr size_t kRing = 128;
  constexpr size_t kStride = sizeof(EventTuple) / sizeof(uint32_t);
  Rng rng(11 + m);
  std::vector<NodeId> producers(5 * m);
  for (size_t i = 0; i < producers.size(); ++i) {
    producers[i] = static_cast<NodeId>(1000 + 37 * i + rng.Uniform(30));
  }
  std::vector<uint32_t> records(kRing * kStride, 0);
  for (size_t i = 0; i < kRing; ++i) {
    records[i * kStride] = producers[rng.Uniform(producers.size())];
  }
  std::vector<NodeId> keep;
  for (size_t i = 0; i < producers.size(); i += 5) keep.push_back(producers[i]);
  std::vector<uint32_t> out;
  out.reserve(kRing);
  for (auto _ : state) {
    out.clear();
    simd::SelectKeyedNewestInto(records.data(), kStride, kRing, keep, k, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectKeyedNewest)
    ->ArgsProduct({{2, 8, 16, 32, 64, 128, 129, 192, 256}, {10, 128}});

void BM_AliasTableSample(benchmark::State& state) {
  System& sys = SharedSystem();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.share_sampler->Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample);

void BM_U64SetInsertContains(benchmark::State& state) {
  U64Set set;
  Rng rng(9);
  for (auto _ : state) {
    uint64_t key = rng.Uniform(1 << 20);
    if (rng.Bernoulli(0.5)) {
      set.Insert(key);
    } else {
      benchmark::DoNotOptimize(set.Contains(key));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_U64SetInsertContains);

void BM_PlacementAwareCost(benchmark::State& state) {
  System& sys = SharedSystem();
  Schedule ff = HybridSchedule(sys.graph, sys.workload);
  HashPartitioner part(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PlacementAwareCost(sys.graph, sys.workload, ff, part));
  }
}
BENCHMARK(BM_PlacementAwareCost)->Arg(10)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace piggy

int main(int argc, char** argv) { return piggy::bench::RunBenchmarkMain(argc, argv); }
