// piggy_tool — command-line driver for the social-piggybacking pipeline.
//
//   piggy_tool generate --preset flickr --nodes 20000 --seed 1 --out g.bin
//   piggy_tool stats    --graph g.bin
//   piggy_tool sample   --graph g.bin --method bfs --edges 20000 --out s.bin
//   piggy_tool optimize --graph g.bin --planner nosy --ratio 5
//                       --out schedule.txt
//   piggy_tool evaluate --graph g.bin --schedule schedule.txt --ratio 5
//                       --servers 500 --requests 50000
//   piggy_tool serve    --graph g.bin --planner nosy --shards 8
//                       --partitioner edge-cut --requests 100000
//                       --data-dir /var/piggy --snapshot-every 10000
//   piggy_tool replay   --graph g.bin --scenario flash-crowd --policy drift
//                       --requests 100000 --epochs 16
//   piggy_tool recover  --data-dir /var/piggy
//   piggy_tool shards   --graph g.bin --shards 8 --requests 50000
//
// Graphs use the binary format of graph_io.h (or .txt edge lists); schedules
// use the text format of schedule_io.h. With --data-dir, serve and replay
// keep WAL + snapshot pairs under the directory; `recover` rebuilds the
// deployment from them after a crash (pass the same planner/sizing flags as
// the original run so replayed replans reproduce the same schedules), prints
// what recovery replayed, and re-validates the schedules.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_service.h"
#include "core/piggy.h"
#include "core/schedule_io.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rebalance/coordinator.h"
#include "scenario/drift.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/partitioner.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace piggy {
namespace {

// ---------------------------------------------------------------------------
// Help tables — the single source of truth for `piggy_tool --help`. Usage()
// renders these verbatim, and the docs CI job (scripts/check_docs.py) parses
// the block between the HELP-TABLE markers and asserts every flag listed here
// also appears in README.md, so the help text and the README flag tables
// cannot drift apart again. Add new flags HERE first.
// ---------------------------------------------------------------------------
// [[HELP-TABLE-BEGIN]]
struct FlagDoc {
  const char* flag;
  const char* help;
};
constexpr FlagDoc kGlobalFlags[] = {
    {"--verbose", "debug-level logging; -q errors only"},
    {"--trace-out FILE",
     "write the structured trace (serve/replay/recover) as\n"
     "                   chrome://tracing JSON"},
    {"--report", "print the RunReport timeline from the trace"},
    {"--stats", "dump the metrics registries after the run"},
};

struct CommandDoc {
  const char* name;
  const char* flags;  // synopsis, pre-wrapped at the tool's help indent
  const char* notes;  // parenthetical notes ("" = none)
};
constexpr CommandDoc kCommands[] = {
    {"generate",
     "--preset flickr|twitter|er --nodes N [--edges M]\n"
     "            [--seed S] --out FILE",
     ""},
    {"stats", "--graph FILE | --data-dir DIR [--json]",
     "with --data-dir: recover the\n"
     " deployment and dump its metrics\n"
     " registries"},
    {"sample",
     "--graph FILE --method rw|bfs --edges N [--seed S]\n"
     "            --out FILE",
     ""},
    {"optimize",
     "--graph FILE --planner NAME [--ratio R]\n"
     "            [--iterations K] [--threads T] [--deadline SECS]\n"
     "            --out FILE",
     "--planner list shows the registry"},
    {"evaluate",
     "--graph FILE --schedule FILE [--ratio R]\n"
     "            [--servers N] [--partitioner NAME] [--requests N]\n"
     "            [--seed S]",
     ""},
    {"serve",
     "--graph FILE [--planner NAME] [--shards N]\n"
     "            [--partitioner NAME] [--ratio R] [--requests N]\n"
     "            [--audit N] [--seed S] [--client-threads T]\n"
     "            [--background-replan 0|1] [--data-dir DIR]\n"
     "            [--snapshot-every N] [--fsync 0|1]\n"
     "            [--rebalance 0|1] [--move-budget N]\n"
     "            [--imbalance-threshold X]",
     "--partitioner list shows the\n"
     " placement registry; replays the\n"
     " stationary scenario; T > 1 adds\n"
     " T-1 concurrent load threads;\n"
     " --data-dir enables WAL + snapshot\n"
     " persistence; --rebalance splits\n"
     " the run into 12 epochs and runs\n"
     " the elastic rebalancer at every\n"
     " epoch close"},
    {"replay",
     "--graph FILE --scenario NAME [--planner NAME]\n"
     "            [--policy never|every-N|drift] [--shards N]\n"
     "            [--requests N] [--epochs E] [--intensity X]\n"
     "            [--churn-level C] [--ratio R] [--audit N] [--seed S]\n"
     "            [--client-threads T] [--background-replan 0|1]\n"
     "            [--data-dir DIR] [--snapshot-every N] [--fsync 0|1]\n"
     "            [--rebalance 0|1] [--move-budget N]\n"
     "            [--imbalance-threshold X]",
     "--scenario list shows the registry;\n"
     " T > 1 adds T-1 concurrent load\n"
     " threads; background-replan moves\n"
     " policy replans off the serving\n"
     " threads; --rebalance runs the\n"
     " elastic rebalancer at every epoch\n"
     " close, needs --shards > 1"},
    {"recover",
     "--data-dir DIR [--planner NAME] [--ratio R]\n"
     "            [--requests N] [--seed S] [--json]",
     "rebuilds the serving state from\n"
     " the WAL + snapshot pairs, prints\n"
     " the recovery stats - as JSON with\n"
     " --json - validates, and optionally\n"
     " drives N requests through the\n"
     " recovered system"},
    {"shards",
     "--graph FILE [--shards N] [--partitioner NAME]\n"
     "            [--planner NAME] [--ratio R] [--requests N]\n"
     "            [--seed S]",
     "plans the cluster, optionally\n"
     " drives N requests, then prints a\n"
     " per-shard table: users, work,\n"
     " replicas, cross-shard traffic"},
};
// [[HELP-TABLE-END]]

// Prints a command's parenthetical notes, re-indented under the flag column.
void PrintNotes(const char* notes) {
  if (notes[0] == '\0') return;
  std::string text = "(";
  text += notes;
  text += ")";
  bool line_start = true;
  for (const char c : text) {
    if (line_start) std::fprintf(stderr, "%29s", "");
    line_start = c == '\n';
    std::fputc(c, stderr);
  }
  std::fputc('\n', stderr);
}

int Usage() {
  std::fprintf(stderr,
               "usage: piggy_tool <command> [--key value ...] [--verbose|-q]\n"
               "\nglobal flags:\n");
  for (const FlagDoc& f : kGlobalFlags) {
    std::fprintf(stderr, "  %-16s %s\n", f.flag, f.help);
  }
  std::fprintf(stderr, "\ncommands:\n");
  for (const CommandDoc& c : kCommands) {
    std::fprintf(stderr, "  %-9s %s\n", c.name, c.flags);
    PrintNotes(c.notes);
  }
  std::fprintf(stderr, "\nscenarios (for replay --scenario):\n");
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    std::fprintf(stderr, "  %-15s %s\n", info.name.c_str(),
                 info.description.c_str());
  }
  return 2;
}

int ListPlanners() {
  std::printf("registered planners:\n");
  for (const PlannerInfo& info : RegisteredPlanners()) {
    std::printf("  %-10s %s\n", info.name.c_str(), info.description.c_str());
  }
  std::printf("aliases: ff -> hybrid, parallelnosy -> nosy\n");
  return 0;
}

int ListPartitioners() {
  std::printf("registered partitioners:\n");
  for (const PartitionerInfo& info : RegisteredPartitioners()) {
    std::printf("  %-10s %s\n", info.name.c_str(), info.description.c_str());
  }
  std::printf("aliases: greedy -> edge-cut\n");
  return 0;
}

int ListScenarios() {
  std::printf("registered scenarios:\n");
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    std::printf("  %-15s %s\n", info.name.c_str(), info.description.c_str());
  }
  return 0;
}

class Args {
 public:
  Args(int argc, char** argv) {
    const std::string kFlagTrue(1, '1');
    for (int i = 2; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "-q") {
        quiet_ = true;
        continue;
      }
      if (key.rfind("--", 0) != 0) continue;
      // A key followed by another option (or nothing) is a boolean flag:
      // --verbose, --json, --report, --stats.
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0 ||
          std::string(argv[i + 1]) == "-q") {
        values_[key] = kFlagTrue;
      } else {
        values_[key] = argv[++i];
      }
    }
  }
  std::string Str(const std::string& key, const std::string& def = "") const {
    auto it = values_.find("--" + key);
    return it == values_.end() ? def : it->second;
  }
  int64_t Int(const std::string& key, int64_t def) const {
    std::string v = Str(key);
    return v.empty() ? def : std::atoll(v.c_str());
  }
  double Double(const std::string& key, double def) const {
    std::string v = Str(key);
    return v.empty() ? def : std::atof(v.c_str());
  }
  /// True for `--key`, `--key 1`; false when absent or `--key 0`.
  bool Flag(const std::string& key) const { return Int(key, 0) != 0; }
  bool quiet() const { return quiet_; }

 private:
  std::map<std::string, std::string> values_;
  bool quiet_ = false;
};

DurabilityOptions DurabilityFromArgs(const Args& args) {
  DurabilityOptions d;
  d.data_dir = args.Str("data-dir");
  d.snapshot_every = static_cast<uint64_t>(args.Int("snapshot-every", 0));
  d.use_fsync = args.Int("fsync", 0) != 0;
  return d;
}

RebalanceOptions RebalanceFromArgs(const Args& args) {
  RebalanceOptions r;
  r.plan.move_budget = static_cast<size_t>(args.Int("move-budget", 128));
  r.trigger.imbalance_threshold = args.Double("imbalance-threshold", 1.4);
  r.trigger.send_rise = 0.75;
  r.trigger.cross_rate_rise = 0.25;
  r.trigger.cooldown_windows = 1;
  return r;
}

// True when serve/replay/recover should record a TraceLog at all.
bool TraceWanted(const Args& args) {
  return !args.Str("trace-out").empty() || args.Flag("report");
}

// Writes the trace ring to --trace-out (when given) and prints the RunReport
// timeline with --report.
Status FinishTrace(const Args& args, const obs::TraceLog& trace) {
  const std::string out = args.Str("trace-out");
  if (!out.empty()) {
    PIGGY_RETURN_NOT_OK(obs::WriteTraceFile(trace, out));
    std::printf("trace:    wrote %zu events to %s (dropped %llu)\n",
                trace.Events().size(), out.c_str(),
                static_cast<unsigned long long>(trace.dropped()));
  }
  if (args.Flag("report")) {
    std::printf("%s", obs::RenderRunReport(trace).c_str());
  }
  return Status::OK();
}

// The paper's stationary request mix over `g` at `w`'s rates: --requests
// ops (default `default_requests`) from --seed, split into `epochs` epochs.
Result<std::unique_ptr<Scenario>> StationaryFromArgs(const Args& args,
                                                     const Graph& g, Workload w,
                                                     size_t default_requests,
                                                     size_t epochs = 1) {
  ScenarioOptions options;
  options.num_requests =
      static_cast<size_t>(args.Int("requests", static_cast<int64_t>(default_requests)));
  options.seed = static_cast<uint64_t>(args.Int("seed", 42));
  options.epochs = epochs;
  return MakeScenario("stationary", g, std::move(w), options);
}

// Dumps every metrics registry of a deployment as text.
void PrintRegistries(const ClusterService& cluster) {
  std::printf("-- cluster registry --\n%s",
              cluster.registry().ToText().c_str());
  for (size_t s = 0; s < cluster.num_shards(); ++s) {
    if (cluster.IsShardDown(static_cast<uint32_t>(s))) continue;
    std::printf("-- shard %zu registry --\n%s", s,
                cluster.shard(s).registry().ToText().c_str());
  }
}

void PrintRegistries(const FeedService& service) {
  std::printf("-- service registry --\n%s", service.registry().ToText().c_str());
}

// --stats: dump the metrics registries after the run.
template <typename Deployment>
void MaybePrintStats(const Args& args, const Deployment& deployment) {
  if (args.Flag("stats")) PrintRegistries(deployment);
}

Result<Graph> LoadGraph(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  if (path.size() > 4 && path.substr(path.size() - 4) == ".txt") {
    return ReadEdgeListText(path);
  }
  return ReadGraphBinary(path);
}

Status SaveGraph(const Graph& g, const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("--out is required");
  if (path.size() > 4 && path.substr(path.size() - 4) == ".txt") {
    return WriteEdgeListText(g, path);
  }
  return WriteGraphBinary(g, path);
}

Status CmdGenerate(const Args& args) {
  const std::string preset = args.Str("preset", "flickr");
  const size_t nodes = static_cast<size_t>(args.Int("nodes", 20000));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 42));
  Result<Graph> graph = Status::InvalidArgument("unknown preset: " + preset);
  if (preset == "flickr") {
    graph = MakeFlickrLike(nodes, seed);
  } else if (preset == "twitter") {
    graph = MakeTwitterLike(nodes, seed);
  } else if (preset == "er") {
    graph = GenerateErdosRenyi(nodes,
                               static_cast<size_t>(args.Int("edges", nodes * 10)),
                               seed);
  }
  PIGGY_RETURN_NOT_OK(graph.status());
  PIGGY_RETURN_NOT_OK(SaveGraph(*graph, args.Str("out")));
  std::printf("wrote %s: %s\n", args.Str("out").c_str(),
              ComputeGraphStats(*graph, 2000).ToString().c_str());
  return Status::OK();
}

Status StatsFromDataDir(const Args& args);

Status CmdStats(const Args& args) {
  // With --data-dir the command reports on a serving deployment instead of a
  // graph file: recover the durable state and dump every metrics registry.
  if (!args.Str("data-dir").empty()) return StatsFromDataDir(args);
  PIGGY_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.Str("graph")));
  std::printf("%s\n", ComputeGraphStats(g, 2000).ToString().c_str());
  auto out_hist = DegreeHistogramLog2(g, true);
  std::printf("out-degree histogram (log2 buckets): ");
  for (size_t i = 0; i < out_hist.size(); ++i) {
    std::printf("%zu:%zu ", i, out_hist[i]);
  }
  std::printf("\n");
  return Status::OK();
}

Status CmdSample(const Args& args) {
  PIGGY_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.Str("graph")));
  const std::string method = args.Str("method", "bfs");
  const size_t edges = static_cast<size_t>(args.Int("edges", 20000));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 42));
  Result<GraphSample> sample =
      method == "rw" ? RandomWalkSample(g, edges, seed)
      : method == "bfs"
          ? BreadthFirstSample(g, edges, seed)
          : Result<GraphSample>(Status::InvalidArgument("method must be rw|bfs"));
  PIGGY_RETURN_NOT_OK(sample.status());
  PIGGY_RETURN_NOT_OK(SaveGraph(sample->graph, args.Str("out")));
  std::printf("wrote %s: %zu nodes, %zu edges\n", args.Str("out").c_str(),
              sample->graph.num_nodes(), sample->graph.num_edges());
  return Status::OK();
}

Status CmdOptimize(const Args& args) {
  PIGGY_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.Str("graph")));
  PIGGY_ASSIGN_OR_RETURN(
      Workload w,
      GenerateWorkload(g, {.read_write_ratio = args.Double("ratio", 5.0),
                           .min_rate = 0.01}));
  const std::string name = args.Str("planner", "nosy");

  // --iterations only makes sense for the iterative planner; honor it via
  // the typed factory, otherwise instantiate from the registry.
  std::unique_ptr<Planner> planner;
  const int64_t iterations = args.Int("iterations", 0);
  if (iterations > 0 && (name == "nosy" || name == "parallelnosy")) {
    ParallelNosyOptions opt;
    opt.max_iterations = static_cast<size_t>(iterations);
    planner = MakeParallelNosyPlanner(opt);
  } else {
    PIGGY_ASSIGN_OR_RETURN(planner, MakePlanner(name));
  }

  PlanContext ctx;
  ctx.num_threads = static_cast<size_t>(args.Int("threads", 0));
  ctx.deadline_seconds = args.Double("deadline", 0.0);
  // Wall seconds per plan phase, summed over the plan:* spans the tracer
  // folds the progress reports into. NOSY emits at most five spans per
  // iteration; a ring that wraps is reported on the phase line.
  obs::TraceLog trace(size_t{1} << 16);
  obs::PlanPhaseTracer tracer(&trace, -1);
  ctx.progress = [&tracer](const PlanProgress& p) { tracer.Observe(p); };

  WallTimer plan_timer;
  PIGGY_ASSIGN_OR_RETURN(PlanResult plan, planner->Plan(g, w, ctx));
  tracer.Close();
  const double plan_s = plan_timer.Seconds();
  std::vector<std::pair<std::string, double>> phase_s;  // first-seen order
  for (const obs::TraceEvent& ev : trace.Events()) {
    const std::string phase = ev.name.substr(std::strlen("plan:"));
    auto it = std::find_if(phase_s.begin(), phase_s.end(),
                           [&phase](const auto& entry) { return entry.first == phase; });
    if (it == phase_s.end()) it = phase_s.emplace(phase_s.end(), phase, 0.0);
    it->second += ev.dur_us * 1e-6;
  }
  std::string phase_line;
  for (const auto& [phase, seconds] : phase_s) {
    phase_line += StrFormat(" %s %.3f", phase.c_str(), seconds);
  }
  if (trace.dropped() > 0) {
    phase_line += StrFormat(" (oldest %llu phases dropped)",
                            static_cast<unsigned long long>(trace.dropped()));
  }
  std::printf("plan %.3f s, phases (s):%s\n", plan_s, phase_line.c_str());
  if (!plan.stats_text.empty()) std::printf("%s\n", plan.stats_text.c_str());

  PIGGY_RETURN_NOT_OK(ValidateSchedule(g, plan.schedule));
  std::printf("%s\n", plan.ToString().c_str());
  std::string out = args.Str("out");
  if (!out.empty()) {
    PIGGY_RETURN_NOT_OK(WriteScheduleText(plan.schedule, out));
    std::printf("wrote %s (H=%zu L=%zu C=%zu)\n", out.c_str(),
                plan.schedule.push_size(), plan.schedule.pull_size(),
                plan.schedule.hub_covered_size());
  }
  return Status::OK();
}

Status CmdEvaluate(const Args& args) {
  PIGGY_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.Str("graph")));
  PIGGY_ASSIGN_OR_RETURN(Schedule schedule,
                         ReadScheduleText(args.Str("schedule")));
  PIGGY_RETURN_NOT_OK(ValidateSchedule(g, schedule));
  PIGGY_ASSIGN_OR_RETURN(
      Workload w,
      GenerateWorkload(g, {.read_write_ratio = args.Double("ratio", 5.0),
                           .min_rate = 0.01}));

  double cost = ScheduleCost(g, w, schedule, ResidualPolicy::kFree);
  std::printf("predicted: cost %.1f, throughput ratio over FF %.3fx\n", cost,
              ImprovementRatio(HybridCost(g, w), cost));

  const size_t servers = static_cast<size_t>(args.Int("servers", 100));
  PIGGY_ASSIGN_OR_RETURN(
      std::unique_ptr<Partitioner> part,
      MakePartitioner(args.Str("partitioner", "hash"), g, w, servers));
  double placed = PlacementAwareCost(g, w, schedule, *part);
  std::printf("placement-aware (%zu %s servers): %.2f messages/request\n",
              servers, part->name().c_str(),
              placed / (w.TotalProduction() + w.TotalConsumption()));

  PrototypeOptions popt;
  popt.num_servers = servers;
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Prototype> proto,
                         Prototype::Create(g, schedule, popt));
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> scenario,
                         StationaryFromArgs(args, g, w, 50000, 16));
  size_t audits = 0;
  ReplayOptions replay_options;
  replay_options.on_epoch_close = AuditPlaneAtEpochClose(*proto, 4, &audits);
  PIGGY_ASSIGN_OR_RETURN(ReplayReport report,
                         ReplayScenario(*scenario, *proto, schedule, replay_options));
  // From the replay's rows, which leave the audit queries out.
  const double throughput =
      report.messages_per_request > 0
          ? popt.client_messages_per_second / report.messages_per_request
          : 0;
  std::printf("measured: %s throughput=%.0f audits=%zu\n",
              report.ToString().c_str(), throughput, audits);
  return Status::OK();
}

// Runs a sharded serving cluster over the graph and replays a rate-weighted
// request mix through the router (planning happens per shard, in parallel).
Status CmdServe(const Args& args) {
  PIGGY_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.Str("graph")));
  ClusterOptions options;
  options.num_shards = static_cast<size_t>(args.Int("shards", 4));
  options.partitioner = args.Str("partitioner", "hash");
  options.shard.planner = args.Str("planner", "nosy");
  options.shard.plan_context.num_threads =
      static_cast<size_t>(args.Int("threads", 0));
  options.shard.plan_context.deadline_seconds = args.Double("deadline", 0.0);
  options.shard.workload = {.read_write_ratio = args.Double("ratio", 5.0),
                            .min_rate = 0.01};
  const bool background_replan = args.Int("background-replan", 0) != 0;
  options.shard.background_replan = background_replan;
  options.audit_every = static_cast<size_t>(args.Int("audit", 1000));
  options.durability = DurabilityFromArgs(args);
  obs::TraceLog trace_log;
  ReplayOptions replay_options;
  if (TraceWanted(args)) options.trace = replay_options.trace = &trace_log;
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ClusterService> cluster,
                         ClusterService::Create(g, options));
  std::printf("planned: %s\n", cluster->GetMetrics().ToString().c_str());

  const bool rebalance = args.Int("rebalance", 0) != 0;
  // With --rebalance the stationary stream runs as 12 epochs and the
  // coordinator polls metrics at every epoch close, as in `replay`.
  PIGGY_ASSIGN_OR_RETURN(
      std::unique_ptr<Scenario> scenario,
      StationaryFromArgs(args, g, cluster->workload(), 50000, rebalance ? 12 : 1));
  replay_options.client_threads =
      static_cast<size_t>(args.Int("client-threads", 1));
  replay_options.seed = static_cast<uint64_t>(args.Int("seed", 42));
  MigrationCoordinator coordinator(*cluster, RebalanceFromArgs(args));
  if (rebalance) {
    replay_options.on_epoch_close = [&](const ReplayEpochRow&) -> Status {
      return coordinator.Step().status();
    };
  }
  if (background_replan) {
    // Exercise the swap path: the shards replan while the replay below runs.
    PIGGY_RETURN_NOT_OK(cluster->StartBackgroundReplan());
  }
  PIGGY_ASSIGN_OR_RETURN(ReplayReport report,
                         ReplayScenario(*scenario, *cluster, replay_options));
  std::printf("measured: %s\n", report.ToString().c_str());
  if (rebalance) {
    const RebalanceReport& rb = coordinator.report();
    std::printf("rebalance: fired %zu times, moved %zu users in %zu "
                "migrations\n",
                rb.times_fired, rb.users_moved, rb.migrations);
  }
  PIGGY_RETURN_NOT_OK(cluster->WaitForBackgroundReplan());
  PIGGY_RETURN_NOT_OK(cluster->Validate());
  std::printf("final:    %s\n", cluster->GetMetrics().ToString().c_str());
  MaybePrintStats(args, *cluster);
  PIGGY_RETURN_NOT_OK(FinishTrace(args, trace_log));
  return Status::OK();
}

// Replays a time-varying scenario (see scenario/scenario.h) through a
// FeedService — or a sharded cluster with --shards > 1 — printing one row
// per epoch plus the final report and service metrics.
Status CmdReplay(const Args& args) {
  PIGGY_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.Str("graph")));
  ScenarioOptions scenario_options;
  scenario_options.num_requests =
      static_cast<size_t>(args.Int("requests", 100000));
  scenario_options.epochs = static_cast<size_t>(args.Int("epochs", 16));
  scenario_options.seed = static_cast<uint64_t>(args.Int("seed", 42));
  scenario_options.intensity = args.Double("intensity", 8.0);
  scenario_options.churn_level = args.Double("churn-level", 1.0);
  PIGGY_ASSIGN_OR_RETURN(
      Workload base,
      GenerateWorkload(g, {.read_write_ratio = args.Double("ratio", 5.0),
                           .min_rate = 0.01}));
  PIGGY_ASSIGN_OR_RETURN(
      std::unique_ptr<Scenario> scenario,
      MakeScenario(args.Str("scenario", "flash-crowd"), g, base,
                   scenario_options));
  PIGGY_ASSIGN_OR_RETURN(ReplanPolicy policy,
                         ReplanPolicy::FromString(args.Str("policy", "drift")));

  FeedServiceOptions service_options;
  service_options.planner = args.Str("planner", "nosy");
  service_options.replan = policy;
  service_options.audit_every = static_cast<size_t>(args.Int("audit", 0));
  service_options.background_replan = args.Int("background-replan", 0) != 0;
  DurabilityOptions durability = DurabilityFromArgs(args);

  ReplayOptions replay_options;
  replay_options.client_threads =
      static_cast<size_t>(args.Int("client-threads", 1));
  replay_options.seed = scenario_options.seed;
  obs::TraceLog trace_log;
  const bool tracing = TraceWanted(args);
  if (tracing) replay_options.trace = &trace_log;

  ReplayReport report;
  const size_t shards = static_cast<size_t>(args.Int("shards", 1));
  const bool rebalance = args.Int("rebalance", 0) != 0;
  if (rebalance && shards <= 1) {
    return Status::InvalidArgument("--rebalance needs --shards > 1");
  }
  std::unique_ptr<FeedService> service;    // keep the driven system alive
  std::unique_ptr<ClusterService> cluster;
  std::unique_ptr<MigrationCoordinator> coordinator;
  if (shards > 1) {
    ClusterOptions options;
    options.num_shards = shards;
    options.partitioner = args.Str("partitioner", "hash");
    options.shard = service_options;
    options.audit_every = service_options.audit_every;
    options.durability = durability;
    if (tracing) options.trace = &trace_log;
    PIGGY_ASSIGN_OR_RETURN(cluster, ClusterService::Create(g, base, options));
    if (rebalance) {
      coordinator = std::make_unique<MigrationCoordinator>(
          *cluster, RebalanceFromArgs(args));
      replay_options.on_epoch_close = [&](const ReplayEpochRow&) -> Status {
        return coordinator->Step().status();
      };
    }
    PIGGY_ASSIGN_OR_RETURN(report,
                           ReplayScenario(*scenario, *cluster, replay_options));
    PIGGY_RETURN_NOT_OK(cluster->WaitForBackgroundReplan());
    PIGGY_RETURN_NOT_OK(cluster->Validate());
  } else {
    service_options.durability = durability;
    if (tracing) service_options.trace = &trace_log;
    PIGGY_ASSIGN_OR_RETURN(service,
                           FeedService::Create(g, base, service_options));
    PIGGY_ASSIGN_OR_RETURN(report,
                           ReplayScenario(*scenario, *service, replay_options));
    PIGGY_RETURN_NOT_OK(service->WaitForBackgroundReplan());
    PIGGY_RETURN_NOT_OK(service->Validate());
  }
  for (const ReplayEpochRow& row : report.epochs) {
    std::printf("%s\n", row.ToString().c_str());
  }
  std::printf("replayed: %s\n", report.ToString().c_str());
  if (coordinator != nullptr) {
    const RebalanceReport& rb = coordinator->report();
    std::printf("rebalance: fired %zu times, moved %zu users in %zu "
                "migrations\n",
                rb.times_fired, rb.users_moved, rb.migrations);
  }
  if (cluster != nullptr) {
    std::printf("final:    %s\n", cluster->GetMetrics().ToString().c_str());
    MaybePrintStats(args, *cluster);
  } else {
    std::printf("final:    %s\n", service->GetMetrics().ToString().c_str());
    MaybePrintStats(args, *service);
  }
  PIGGY_RETURN_NOT_OK(FinishTrace(args, trace_log));
  return Status::OK();
}

// Rebuilds a deployment from its durable directory — a cluster when the
// directory holds a persisted shard assignment (the `serve` layout), a
// single FeedService otherwise (a 1-shard `replay` run) — then prints what
// recovery replayed and re-validates every schedule. Pass the same planner /
// sizing flags as the original run so WAL-replayed replans reproduce the
// same schedules.
Status CmdRecover(const Args& args) {
  const std::string data_dir = args.Str("data-dir");
  if (data_dir.empty()) return Status::InvalidArgument("--data-dir is required");
  const size_t requests = static_cast<size_t>(args.Int("requests", 0));
  const bool json = args.Flag("json");
  RecoveryStats stats;
  obs::TraceLog trace_log;
  const bool tracing = TraceWanted(args);

  const bool is_cluster =
      std::filesystem::exists(data_dir + "/assignment.bin");
  if (is_cluster) {
    ClusterOptions options;
    options.shard.planner = args.Str("planner", "nosy");
    options.shard.workload = {.read_write_ratio = args.Double("ratio", 5.0),
                              .min_rate = 0.01};
    options.durability = DurabilityFromArgs(args);
    if (tracing) options.trace = &trace_log;
    PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ClusterService> cluster,
                           ClusterService::Recover(options, &stats));
    if (json) {
      std::printf("%s\n", stats.ToJson().c_str());
    } else {
      std::printf("recovered: %s\n", stats.ToString().c_str());
    }
    PIGGY_RETURN_NOT_OK(cluster->Validate());
    if (!json) {
      std::printf("validated: %s\n", cluster->GetMetrics().ToString().c_str());
    }
    if (requests > 0) {
      PIGGY_ASSIGN_OR_RETURN(Graph g, cluster->GraphSnapshot());
      PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> scenario,
                             StationaryFromArgs(args, g, cluster->workload(), 0));
      PIGGY_ASSIGN_OR_RETURN(ReplayReport report,
                             ReplayScenario(*scenario, *cluster));
      if (!json) std::printf("measured:  %s\n", report.ToString().c_str());
    }
    MaybePrintStats(args, *cluster);
  } else {
    FeedServiceOptions options;
    options.planner = args.Str("planner", "nosy");
    options.workload = {.read_write_ratio = args.Double("ratio", 5.0),
                        .min_rate = 0.01};
    options.durability = DurabilityFromArgs(args);
    if (tracing) options.trace = &trace_log;
    PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<FeedService> service,
                           FeedService::Recover(options, &stats));
    if (json) {
      std::printf("%s\n", stats.ToJson().c_str());
    } else {
      std::printf("recovered: %s\n", stats.ToString().c_str());
    }
    PIGGY_RETURN_NOT_OK(service->Validate());
    if (!json) {
      std::printf("validated: %s\n", service->GetMetrics().ToString().c_str());
    }
    if (requests > 0) {
      PIGGY_ASSIGN_OR_RETURN(Graph g, service->graph().Snapshot());
      PIGGY_ASSIGN_OR_RETURN(
          std::unique_ptr<Scenario> scenario,
          StationaryFromArgs(args, g, service->WorkloadSnapshot(), 0));
      PIGGY_ASSIGN_OR_RETURN(ReplayReport report,
                             ReplayScenario(*scenario, *service));
      if (!json) std::printf("measured:  %s\n", report.ToString().c_str());
    }
    MaybePrintStats(args, *service);
  }
  return FinishTrace(args, trace_log);
}

// `stats --data-dir DIR`: recover the deployment and dump every metrics
// registry — the recovery counters plus whatever the WAL/snapshot layer
// recorded while replaying. `--json` emits the registries as JSON.
Status StatsFromDataDir(const Args& args) {
  const std::string data_dir = args.Str("data-dir");
  const bool json = args.Flag("json");
  RecoveryStats stats;
  const bool is_cluster =
      std::filesystem::exists(data_dir + "/assignment.bin");
  if (is_cluster) {
    ClusterOptions options;
    options.shard.planner = args.Str("planner", "nosy");
    options.shard.workload = {.read_write_ratio = args.Double("ratio", 5.0),
                              .min_rate = 0.01};
    options.durability = DurabilityFromArgs(args);
    PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ClusterService> cluster,
                           ClusterService::Recover(options, &stats));
    if (json) {
      std::printf("{\"recovery\": %s, \"cluster\": %s}\n",
                  stats.ToJson().c_str(),
                  cluster->registry().ToJson().c_str());
      return Status::OK();
    }
    std::printf("recovered: %s\n", stats.ToString().c_str());
    PrintRegistries(*cluster);
    return Status::OK();
  }
  FeedServiceOptions options;
  options.planner = args.Str("planner", "nosy");
  options.workload = {.read_write_ratio = args.Double("ratio", 5.0),
                      .min_rate = 0.01};
  options.durability = DurabilityFromArgs(args);
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<FeedService> service,
                         FeedService::Recover(options, &stats));
  if (json) {
    std::printf("{\"recovery\": %s, \"service\": %s}\n", stats.ToJson().c_str(),
                service->registry().ToJson().c_str());
    return Status::OK();
  }
  std::printf("recovered: %s\n", stats.ToString().c_str());
  PrintRegistries(*service);
  return Status::OK();
}

// Plans a sharded cluster over the graph, optionally drives traffic through
// it, and prints one row per shard: who lives there, the work that landed,
// and the cross-shard traffic exchanged.
Status CmdShards(const Args& args) {
  PIGGY_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.Str("graph")));
  ClusterOptions options;
  options.num_shards = static_cast<size_t>(args.Int("shards", 4));
  options.partitioner = args.Str("partitioner", "edge-cut");
  options.shard.planner = args.Str("planner", "nosy");
  options.shard.workload = {.read_write_ratio = args.Double("ratio", 5.0),
                            .min_rate = 0.01};
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ClusterService> cluster,
                         ClusterService::Create(g, options));
  const size_t requests = static_cast<size_t>(args.Int("requests", 0));
  if (requests > 0) {
    PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> scenario,
                           StationaryFromArgs(args, g, cluster->workload(), 0));
    PIGGY_ASSIGN_OR_RETURN(ReplayReport report,
                           ReplayScenario(*scenario, *cluster));
    std::printf("drove: %s\n", report.ToString().c_str());
  }
  const ClusterMetrics m = cluster->GetMetrics();
  std::vector<size_t> users(m.shards, 0);
  for (uint32_t s : cluster->shard_map().assignment()) ++users[s];
  std::printf("%-6s %8s %10s %10s %9s %10s %10s\n", "shard", "users",
              "requests", "work", "replicas", "cross_upd", "cross_pull");
  for (size_t s = 0; s < m.shards; ++s) {
    std::printf(
        "%-6zu %8zu %10llu %10llu %9zu %10llu %10llu\n", s, users[s],
        static_cast<unsigned long long>(m.per_shard_requests[s]),
        static_cast<unsigned long long>(m.per_shard_work[s]),
        m.per_shard_replicas[s],
        static_cast<unsigned long long>(m.per_shard_cross_updates[s]),
        static_cast<unsigned long long>(m.per_shard_cross_queries[s]));
  }
  std::printf("imbalance: %.2f; cross edges %zu, replicas %zu, cross msgs "
              "%llu\n",
              m.imbalance, m.cross_edges, m.replicas,
              static_cast<unsigned long long>(m.cross_update_messages +
                                              m.cross_query_messages));
  return Status::OK();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Args args(argc, argv);
  if (args.Flag("verbose")) SetLogLevel(LogLevel::kDebug);
  if (args.quiet()) SetLogLevel(LogLevel::kError);
  if (command == "planners" ||
      (command == "optimize" && args.Str("planner") == "list")) {
    return ListPlanners();
  }
  if (command == "partitioners" || args.Str("partitioner") == "list") {
    return ListPartitioners();
  }
  if (command == "scenarios" || args.Str("scenario") == "list") {
    return ListScenarios();
  }
  Status status = Status::InvalidArgument("unknown command: " + command);
  if (command == "generate") status = CmdGenerate(args);
  if (command == "stats") status = CmdStats(args);
  if (command == "sample") status = CmdSample(args);
  if (command == "optimize") status = CmdOptimize(args);
  if (command == "evaluate") status = CmdEvaluate(args);
  if (command == "serve") status = CmdServe(args);
  if (command == "replay") status = CmdReplay(args);
  if (command == "recover") status = CmdRecover(args);
  if (command == "shards") status = CmdShards(args);
  if (command == "help" || command == "--help") return Usage();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace piggy

int main(int argc, char** argv) { return piggy::Main(argc, argv); }
