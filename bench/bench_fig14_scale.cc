// Figure 14 (beyond the paper): million-user scale — planning time, plane
// build time, serving throughput, and query-filter bytes per edge.
//
// One generated social graph (GenerateSocialNetwork, preferential attachment
// + triadic closure + reciprocation), one planner run, then the serving plane
// is built and replays the rate-weighted request mix. The serve measurement
// runs in a forked child process (best of --repeats runs) so every repeat
// starts from the identical post-plan heap — in-process back-to-back runs
// measured the second run 2-3x slower from allocator-arena fragmentation.
// Reported: the plane build time (build_s, Prototype::Create), measured wall
// throughput (requests/s through the simulator, SIMD kernels included), the
// paper's modeled per-client throughput, and resident interest bytes per
// graph edge.
//
// Expected shape: plan_cost, messages_per_request, throughput_req_s and the
// interest bytes are deterministic for a given graph and seed. The interest
// bytes are AppClient's keep sets: 4 bytes per kept producer of a filtered
// query batch plus 12 bytes of index per batch, ~3.4 bytes/edge at 13 edges
// per node (the 6.15 in BENCH_PR10.json is the per-user interest vectors
// they replaced). Wall ops/s and build_s move with the host.
// check_bench_regression.py --scale blocks only on a baseline row missing
// from the run; ops/s deltas vs the baseline pin stay advisory.
//
//   ./bench_fig14_scale --nodes 1000000 --requests 1000000 --json fig14.json
//   ./bench_fig14_scale --nodes 50000 --requests 200000   # CI smoke scale
//
// Planning at 1M nodes takes minutes; --save-schedule FILE persists the
// plan (schedule_io text format) and --load-schedule FILE skips planning on
// later runs — the plan row then reports the load time, clearly marked with
// planner "(loaded)". Serve-phase iteration (store or kernel changes) only
// needs the load path.
//
// The simd column records the dispatch tier the run used (PIGGY_SIMD
// overrides for A/B runs); results are bit-identical across tiers, only the
// wall clock moves.

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/cost_model.h"
#include "core/planner.h"
#include "core/schedule_io.h"
#include "gen/generators.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "simd/dispatch.h"
#include "store/prototype.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 1000000));
  const double edges_per_node = flags.Double("edges-per-node", 10.0);
  const size_t requests = static_cast<size_t>(flags.Int("requests", 200000));
  const size_t servers = static_cast<size_t>(flags.Int("servers", 32));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const std::string planner_name = flags.Str("planner", "nosy");
  const size_t repeats = static_cast<size_t>(flags.Int("repeats", 3));

  Banner("Figure 14 - million-user scale: plan time, serving, bytes/edge",
         "expect: ~3.4 keep-set bytes/edge at 1M nodes (4 per kept "
         "producer + 12 per query batch); simd column = dispatch tier "
         "(PIGGY_SIMD to A/B)");

  auto t0 = std::chrono::steady_clock::now();
  SocialNetworkOptions gen;
  gen.num_nodes = nodes;
  gen.edges_per_node = edges_per_node;
  Graph g = GenerateSocialNetwork(gen, seed).ValueOrDie();
  const double gen_s = Seconds(t0);
  Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
                   .ValueOrDie();
  const std::string simd_tier = simd::TierName(simd::ActiveTier());
  std::printf("graph: %zu nodes, %zu edges (generated in %.1fs); simd=%s\n\n",
              g.num_nodes(), g.num_edges(), gen_s, simd_tier.c_str());

  Table table({"row", "planner", "simd", "nodes", "edges", "wall_s",
               "build_s", "plan_cost", "ops_per_sec", "interest_bytes", "bytes_per_edge",
               "messages_per_request", "throughput_req_s"});

  const std::string load_schedule = flags.Str("load-schedule", "");
  const std::string save_schedule = flags.Str("save-schedule", "");
  Schedule schedule;
  std::string plan_label;
  t0 = std::chrono::steady_clock::now();
  if (!load_schedule.empty()) {
    schedule = ReadScheduleText(load_schedule).MoveValueOrDie();
    plan_label = planner_name + "(loaded)";
  } else {
    auto planner = MakePlanner(planner_name).MoveValueOrDie();
    PlanResult plan = planner->Plan(g, w, PlanContext{}).MoveValueOrDie();
    schedule = std::move(plan.schedule);
    plan_label = plan.planner;
  }
  const double plan_s = Seconds(t0);
  if (!save_schedule.empty()) {
    PIGGY_CHECK_OK(WriteScheduleText(schedule, save_schedule));
  }
  const double plan_cost = ScheduleCost(g, w, schedule, ResidualPolicy::kFree);
  table.AddRow({"plan", plan_label, simd_tier, std::to_string(nodes),
                std::to_string(g.num_edges()), Fmt(plan_s), "0", Fmt(plan_cost, 1),
                "0", "0", "0", "0", "0"});
  std::printf("plan: %s in %.1fs, cost %.1f\n", plan_label.c_str(), plan_s,
              plan_cost);

  // Measure in a forked child so every repeat starts from the identical
  // post-plan heap. Building and then tearing down a million-node serving
  // plane in-process fragments the allocator arena, and a second in-process
  // run measured 2-3x slower (malloc_trim between runs only partially
  // recovers). Process isolation removes the ordering artifact; the child
  // reports its numbers on a pipe. Repeats take the fastest run: identical
  // code measured twice still moves several percent on a shared host, and
  // min-of-N is the standard way to strip that scheduling noise from a
  // CPU-bound measurement. The plane build (Prototype::Create) is timed on
  // its own and reported as the fastest of the repeats as well.
  //
  // The stationary request stream is built once, before the fork, so every
  // child replays it from the same start. One epoch: the timed window is the
  // epoch's serving time, which excludes the replay's one true-cost scoring.
  auto scenario = MakeScenario("stationary", g, w,
                               {.num_requests = requests, .seed = seed, .epochs = 1})
                      .MoveValueOrDie();
  size_t interest_bytes = 0;
  double wall_s = 0, build_s = 0, msgs_per_request = 0, throughput = 0;
  for (size_t rep = 0; rep < repeats; ++rep) {
    int fds[2];
    PIGGY_CHECK_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    PIGGY_CHECK_GE(pid, 0);
    if (pid == 0) {
      close(fds[0]);
      PrototypeOptions opt;
      opt.num_servers = servers;
      const auto tb = std::chrono::steady_clock::now();
      auto proto = Prototype::Create(g, schedule, opt).MoveValueOrDie();
      const double child_build = Seconds(tb);
      // Return the arena freed by construction before the timed window so
      // serve-time allocations start from a dense heap.
      malloc_trim(0);
      const size_t child_bytes = proto->client().InterestBytes();
      ReplayReport report =
          ReplayScenario(*scenario, *proto, schedule).MoveValueOrDie();
      const double child_wall = report.epochs.front().wall_seconds;
      FILE* wire = fdopen(fds[1], "w");
      std::fprintf(wire, "%zu %.9f %.9f %.9f %.9f\n", child_bytes, child_wall,
                   child_build, proto->client().metrics().MessagesPerRequest(),
                   proto->ActualThroughput());
      std::fflush(wire);
      _exit(0);
    }
    close(fds[1]);
    size_t rep_bytes = 0;
    double rep_wall = 0, rep_build = 0, rep_msgs = 0, rep_tput = 0;
    FILE* wire = fdopen(fds[0], "r");
    PIGGY_CHECK_EQ(std::fscanf(wire, "%zu %lf %lf %lf %lf", &rep_bytes, &rep_wall,
                               &rep_build, &rep_msgs, &rep_tput),
                   5);
    std::fclose(wire);
    int status = 0;
    PIGGY_CHECK_EQ(waitpid(pid, &status, 0), pid);
    PIGGY_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "serve child failed";
    if (rep == 0 || rep_build < build_s) build_s = rep_build;
    if (rep == 0 || rep_wall < wall_s) {
      interest_bytes = rep_bytes;
      wall_s = rep_wall;
      msgs_per_request = rep_msgs;
      throughput = rep_tput;
    }
  }
  const double bytes_per_edge =
      static_cast<double>(interest_bytes) / static_cast<double>(g.num_edges());
  const double ops = wall_s > 0 ? static_cast<double>(requests) / wall_s : 0;
  table.AddRow({"serve", plan_label, simd_tier, std::to_string(nodes),
                std::to_string(g.num_edges()), Fmt(wall_s), Fmt(build_s),
                Fmt(plan_cost, 1), Fmt(ops, 0), std::to_string(interest_bytes), Fmt(bytes_per_edge),
                Fmt(msgs_per_request), Fmt(throughput, 0)});
  std::printf("serve: plane built in %.3fs; %zu requests in %.1fs = %.0f req/s wall, "
              "%.3f bytes/edge, msgs/req=%.3f, modeled throughput=%.0f\n",
              build_s, requests, wall_s, ops, bytes_per_edge, msgs_per_request,
              throughput);

  std::printf("\n");
  table.Print();
  table.WriteCsv(flags.Str("csv", ""));
  table.WriteJson(flags.Str("json", ""));
  return 0;
}
