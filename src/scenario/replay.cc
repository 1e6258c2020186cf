#include "scenario/replay.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "scenario/drift.h"
#include "util/alias_table.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace piggy {

std::string ReplayEpochRow::ToString() const {
  std::string out = StrFormat(
      "epoch=%u t=%.0f ops=%lu/%lu/%lu/%lu msgs/req=%.3f true_cost=%.1f "
      "(ff=%.1f) replans=%zu drift=%.3f wall=%.3fs",
      epoch, sim_time, static_cast<unsigned long>(shares),
      static_cast<unsigned long>(queries), static_cast<unsigned long>(follows),
      static_cast<unsigned long>(unfollows), messages_per_request, true_cost,
      true_hybrid, replans, drift_score, wall_seconds);
  if (shard_fails > 0 || shard_restarts > 0 || unavailable > 0) {
    out += StrFormat(" fails=%zu restarts=%zu unavailable=%lu", shard_fails,
                     shard_restarts, static_cast<unsigned long>(unavailable));
  }
  if (cross_messages > 0 || imbalance > 0) {
    out += StrFormat(" cross=%.0f imbalance=%.2f", cross_messages, imbalance);
  }
  return out;
}

std::string ReplayReport::ToString() const {
  std::string out = StrFormat(
      "%s via %s/%s: requests=%lu (shares=%lu queries=%lu) churn=%lu+%lu "
      "msgs/req=%.3f replans=%zu epochs=%zu wall=%.2fs",
      scenario.c_str(), planner.c_str(), policy.c_str(),
      static_cast<unsigned long>(shares + queries),
      static_cast<unsigned long>(shares), static_cast<unsigned long>(queries),
      static_cast<unsigned long>(follows), static_cast<unsigned long>(unfollows),
      messages_per_request, replans, epochs.size(), wall_seconds);
  if (aux_threads > 0) {
    out += StrFormat(" aux=%zu threads/%lu reqs", aux_threads,
                     static_cast<unsigned long>(aux_requests));
  }
  if (shard_fails > 0 || shard_restarts > 0 || unavailable > 0) {
    out += StrFormat(" fails=%zu restarts=%zu unavailable=%lu", shard_fails,
                     shard_restarts, static_cast<unsigned long>(unavailable));
  }
  return out;
}

namespace {

/// Counter probe taken at epoch boundaries; rows report deltas.
struct ServiceProbe {
  double messages = 0;
  uint64_t shares = 0;
  uint64_t queries = 0;
  size_t replans = 0;
  size_t repairs = 0;
  double drift_score = 0;
  double cross_messages = 0;  ///< cumulative cross-shard messages (clusters)
  std::vector<uint64_t> per_shard_requests;  ///< cumulative (clusters)
};

/// The deployment-agnostic core: FeedService, ClusterService and a bare
/// Prototype differ only in how requests are routed, how counters are probed
/// and how ground-truth cost is computed.
struct ServiceHooks {
  std::function<Status(NodeId)> share;
  std::function<Status(NodeId)> query;
  std::function<Status(NodeId, NodeId)> follow;    // (follower, producer)
  std::function<Status(NodeId, NodeId)> unfollow;  // (follower, producer)
  /// Shard events; the argument is the scenario's shard *slot* (the hook
  /// maps it onto a live shard). Single-process deployments reject these.
  std::function<Status(uint32_t)> shard_fail;
  std::function<Status(uint32_t)> shard_restart;
  std::function<ServiceProbe()> probe;
  /// (true rates) -> (schedule cost, hybrid cost) on the current topology.
  std::function<std::pair<double, double>(const Workload&)> true_costs;
};

/// InvalidArgument unless the deployment serves as many users as the
/// scenario was built for.
Status CheckUsers(const char* deployment, size_t users, const Scenario& scenario) {
  if (users == scenario.graph().num_nodes()) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("%s has %zu users but the scenario was built for %zu", deployment,
                users, scenario.graph().num_nodes()));
}

/// Max/mean of the per-shard request deltas for one epoch (0 if no traffic
/// or no shard breakdown — the FeedService path).
double EpochImbalance(const std::vector<uint64_t>& now,
                      const std::vector<uint64_t>& start) {
  if (now.empty() || now.size() != start.size()) return 0;
  uint64_t total = 0, max = 0;
  for (size_t s = 0; s < now.size(); ++s) {
    const uint64_t d = now[s] - start[s];
    total += d;
    max = std::max(max, d);
  }
  if (total == 0) return 0;
  return static_cast<double>(max) /
         (static_cast<double>(total) / static_cast<double>(now.size()));
}

Result<ReplayReport> Replay(Scenario& scenario, ServiceHooks hooks,
                            ReplayReport report, const ReplayOptions& options) {
  report.scenario = scenario.name();
  report.epochs.reserve(scenario.num_epochs());

  WallTimer total_timer;
  WallTimer epoch_timer;
  ServiceProbe epoch_start = hooks.probe();
  ReplayEpochRow row;
  size_t current_epoch = 0;
  double epoch_trace_start =
      options.trace != nullptr ? options.trace->NowUs() : 0;

  auto close_epoch = [&](size_t e) -> Status {
    // The epoch's own serving time: the probe and true-cost scoring below
    // are measurement bookkeeping, not traffic.
    row.wall_seconds = epoch_timer.Seconds();
    const ServiceProbe now = hooks.probe();
    row.epoch = static_cast<uint32_t>(e);
    row.sim_time = scenario.EpochStart(e);
    const uint64_t requests = row.shares + row.queries;
    row.messages = now.messages - epoch_start.messages;
    row.messages_per_request =
        requests > 0 ? row.messages / static_cast<double>(requests) : 0;
    row.replans = now.replans - epoch_start.replans;
    row.repairs = now.repairs - epoch_start.repairs;
    row.drift_score = now.drift_score;
    row.cross_messages = now.cross_messages - epoch_start.cross_messages;
    row.imbalance =
        EpochImbalance(now.per_shard_requests, epoch_start.per_shard_requests);
    const auto [cost, hybrid] = hooks.true_costs(scenario.EpochWorkload(e));
    row.true_cost = cost;
    row.true_hybrid = hybrid;
    if (options.trace != nullptr) {
      options.trace->Span(
          obs::TraceEventKind::kEpoch, epoch_trace_start, /*shard=*/-1,
          {{"epoch", std::to_string(row.epoch)},
           {"shares", std::to_string(row.shares)},
           {"queries", std::to_string(row.queries)},
           {"follows", std::to_string(row.follows)},
           {"unfollows", std::to_string(row.unfollows)},
           {"msgs_per_req", StrFormat("%.3f", row.messages_per_request)},
           {"true_cost", StrFormat("%.1f", row.true_cost)},
           {"replans", std::to_string(row.replans)},
           {"drift", StrFormat("%.3f", row.drift_score)},
           {"fails", std::to_string(row.shard_fails)},
           {"restarts", std::to_string(row.shard_restarts)},
           {"unavailable", std::to_string(row.unavailable)}});
    }
    report.epochs.push_back(row);
    report.shares += row.shares;
    report.queries += row.queries;
    report.follows += row.follows;
    report.unfollows += row.unfollows;
    report.shard_fails += row.shard_fails;
    report.shard_restarts += row.shard_restarts;
    report.unavailable += row.unavailable;
    row = ReplayEpochRow{};
    epoch_timer.Reset();
    if (options.on_epoch_close) {
      PIGGY_RETURN_NOT_OK(options.on_epoch_close(report.epochs.back()));
    }
    // Re-probe after the hook: a migration it triggers shifts the counters,
    // and the next epoch should not inherit that as its own traffic.
    epoch_start = options.on_epoch_close ? hooks.probe() : now;
    if (options.trace != nullptr) epoch_trace_start = options.trace->NowUs();
    return Status::OK();
  };

  // A request rejected because its shard is down is part of the story, not
  // a replay failure: it is counted in `unavailable` and the stream moves on.
  auto tolerate = [&](const Status& st) {
    if (st.IsUnavailable()) {
      ++row.unavailable;
      return Status::OK();
    }
    return st;
  };

  ScenarioOp op;
  while (scenario.Next(&op)) {
    while (op.epoch > current_epoch) {
      PIGGY_RETURN_NOT_OK(close_epoch(current_epoch++));
    }
    switch (op.kind) {
      case ScenarioOpKind::kShare:
        PIGGY_RETURN_NOT_OK(tolerate(hooks.share(op.user)));
        ++row.shares;
        break;
      case ScenarioOpKind::kQuery:
        PIGGY_RETURN_NOT_OK(tolerate(hooks.query(op.user)));
        ++row.queries;
        break;
      case ScenarioOpKind::kFollow:
        PIGGY_RETURN_NOT_OK(tolerate(hooks.follow(op.user, op.producer)));
        ++row.follows;
        break;
      case ScenarioOpKind::kUnfollow:
        PIGGY_RETURN_NOT_OK(tolerate(hooks.unfollow(op.user, op.producer)));
        ++row.unfollows;
        break;
      case ScenarioOpKind::kRateShift:
        // Ground truth moved; the service must notice on its own.
        break;
      case ScenarioOpKind::kShardFail:
        PIGGY_RETURN_NOT_OK(hooks.shard_fail(op.user));
        ++row.shard_fails;
        break;
      case ScenarioOpKind::kShardRestart:
        PIGGY_RETURN_NOT_OK(hooks.shard_restart(op.user));
        ++row.shard_restarts;
        break;
    }
  }
  while (current_epoch < scenario.num_epochs()) {
    PIGGY_RETURN_NOT_OK(close_epoch(current_epoch++));
  }

  const ServiceProbe end = hooks.probe();
  report.messages = 0;
  for (const ReplayEpochRow& e : report.epochs) {
    report.messages += e.messages;
    report.cross_messages += e.cross_messages;
  }
  const uint64_t requests = report.shares + report.queries;
  report.messages_per_request =
      requests > 0 ? report.messages / static_cast<double>(requests) : 0;
  report.replans = end.replans;
  report.wall_seconds = total_timer.Seconds();
  return report;
}

/// Runs the sequential Replay on the calling thread while options.
/// client_threads - 1 auxiliary threads issue a rate-weighted share/query
/// load through the (thread-safe) share/query hooks until the replay ends.
Result<ReplayReport> ReplayWithAux(Scenario& scenario, ServiceHooks hooks,
                                   ReplayReport report, const Workload& workload,
                                   const ReplayOptions& options) {
  if (options.client_threads <= 1) {
    return Replay(scenario, std::move(hooks), std::move(report), options);
  }
  const double total_p = workload.TotalProduction();
  const double total_c = workload.TotalConsumption();
  if (total_p <= 0 || total_c <= 0) {
    return Status::InvalidArgument("workload must have positive total rates");
  }
  const AliasTable share_sampler(workload.production);
  const AliasTable query_sampler(workload.consumption);
  const double p_share = total_p / (total_p + total_c);

  const size_t aux = options.client_threads - 1;
  struct AuxResult {
    Status status;
    uint64_t requests = 0;
    uint64_t unavailable = 0;
  };
  std::vector<AuxResult> results(aux);
  std::atomic<bool> stop{false};
  // Copies: `hooks` is moved into Replay below while the threads run.
  const auto share = hooks.share;
  const auto query = hooks.query;
  std::vector<std::thread> threads;
  threads.reserve(aux);
  for (size_t t = 0; t < aux; ++t) {
    threads.emplace_back([&, t] {
      AuxResult& out = results[t];
      Rng rng(Mix64(options.seed * 0x9e3779b97f4a7c15ULL + t + 1));
      // do-while: at least one aux request per thread even if the replay
      // outruns the scheduler (single-core hosts).
      do {
        const bool is_share = rng.Bernoulli(p_share);
        const NodeId u = is_share ? share_sampler.Sample(rng)
                                  : query_sampler.Sample(rng);
        const Status st = is_share ? share(u) : query(u);
        if (st.IsUnavailable()) {
          // Aux traffic runs through scripted outage windows; rejected
          // requests are expected there, not thread failures.
          ++out.unavailable;
          continue;
        }
        if (!st.ok()) {
          out.status = st;
          return;
        }
        ++out.requests;
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  auto result = Replay(scenario, std::move(hooks), std::move(report), options);
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  PIGGY_ASSIGN_OR_RETURN(ReplayReport out, std::move(result));
  out.aux_threads = aux;
  for (const AuxResult& r : results) {
    PIGGY_RETURN_NOT_OK(r.status);
    out.aux_requests += r.requests;
    out.unavailable += r.unavailable;
  }
  // The epochs' messages include the aux traffic, so the run's ratio divides
  // by every request issued, not only the sequential stream's.
  const uint64_t requests = out.shares + out.queries + out.aux_requests;
  out.messages_per_request =
      requests > 0 ? out.messages / static_cast<double>(requests) : 0;
  return out;
}

}  // namespace

Result<ReplayReport> ReplayScenario(Scenario& scenario, FeedService& service,
                                    const ReplayOptions& options) {
  PIGGY_RETURN_NOT_OK(CheckUsers("service", service.graph().num_nodes(), scenario));
  ReplayReport report;
  report.planner = service.options().planner;
  report.policy = service.options().replan.ToString();

  ServiceHooks hooks;
  hooks.share = [&](NodeId u) { return service.Share(u); };
  hooks.query = [&](NodeId u) { return service.QueryStream(u).status(); };
  hooks.follow = [&](NodeId f, NodeId p) { return service.Follow(f, p); };
  hooks.unfollow = [&](NodeId f, NodeId p) { return service.Unfollow(f, p); };
  hooks.shard_fail = hooks.shard_restart = [](uint32_t) {
    return Status::InvalidArgument(
        "shard events need a sharded cluster; a single FeedService has no "
        "shards");
  };
  hooks.probe = [&] {
    const FeedService::Metrics m = service.GetMetrics();
    ServiceProbe p;
    p.messages =
        m.messages_per_request * static_cast<double>(m.shares + m.queries);
    p.shares = m.shares;
    p.queries = m.queries;
    p.replans = m.replans;
    p.repairs = m.repairs;
    p.drift_score = m.drift_score;
    return p;
  };
  // Under the service lock: a concurrent background replan may swap the
  // schedule between epoch closes.
  hooks.true_costs = [&](const Workload& truth) {
    return service.CostsUnder(truth);
  };
  return ReplayWithAux(scenario, std::move(hooks), std::move(report),
                       service.WorkloadSnapshot(), options);
}

Result<ReplayReport> ReplayScenario(Scenario& scenario, ClusterService& cluster,
                                    const ReplayOptions& options) {
  PIGGY_RETURN_NOT_OK(CheckUsers("cluster", cluster.graph().num_nodes(), scenario));
  ReplayReport report;
  report.planner = cluster.options().shard.planner;
  report.policy = cluster.options().shard.replan.ToString();

  ServiceHooks hooks;
  hooks.share = [&](NodeId u) { return cluster.Share(u); };
  hooks.query = [&](NodeId u) { return cluster.QueryStream(u).status(); };
  hooks.follow = [&](NodeId f, NodeId p) { return cluster.Follow(f, p); };
  hooks.unfollow = [&](NodeId f, NodeId p) { return cluster.Unfollow(f, p); };
  // Scenario shard slots wrap onto the live shards, so one scripted story
  // stresses any cluster size.
  hooks.shard_fail = [&](uint32_t slot) {
    return cluster.KillShard(slot %
                             static_cast<uint32_t>(cluster.num_shards()));
  };
  hooks.shard_restart = [&](uint32_t slot) {
    return cluster.RestartShard(slot %
                                static_cast<uint32_t>(cluster.num_shards()));
  };
  hooks.probe = [&] {
    const ClusterMetrics m = cluster.GetMetrics();
    ServiceProbe p;
    p.messages =
        m.messages_per_request * static_cast<double>(m.shares + m.queries);
    p.shares = m.shares;
    p.queries = m.queries;
    p.replans = m.replans;
    p.repairs = m.repairs;
    p.drift_score = m.max_drift_score;
    p.cross_messages = static_cast<double>(m.cross_update_messages +
                                           m.cross_query_messages);
    // Work, not routed requests: pull batches served land on the producer's
    // shard and replica writes on consumer shards — the imbalance a
    // rebalancer can act on is the one over where work actually lands.
    p.per_shard_requests = m.per_shard_work;
    return p;
  };
  hooks.true_costs = [&](const Workload& truth) {
    return cluster.CostsUnder(truth);
  };
  return ReplayWithAux(scenario, std::move(hooks), std::move(report),
                       cluster.workload(), options);
}

Result<ReplayReport> ReplayScenario(Scenario& scenario, Prototype& plane,
                                    const Schedule& schedule,
                                    const ReplayOptions& options) {
  PIGGY_RETURN_NOT_OK(CheckUsers("plane", plane.graph().num_nodes(), scenario));
  ReplayReport report;
  report.planner = "fixed";
  report.policy = ReplanPolicy::Never().ToString();

  ServiceHooks hooks;
  hooks.share = [&](NodeId u) {
    plane.ShareEvent(u);
    return Status::OK();
  };
  hooks.query = [&](NodeId u) {
    plane.QueryStream(u);
    return Status::OK();
  };
  hooks.follow = hooks.unfollow = [](NodeId, NodeId) {
    return Status::InvalidArgument(
        "churn needs a FeedService or a cluster; a bare serving plane has a "
        "fixed graph");
  };
  hooks.shard_fail = hooks.shard_restart = [](uint32_t) {
    return Status::InvalidArgument(
        "shard events need a sharded cluster; a bare serving plane has no "
        "shards");
  };
  hooks.probe = [&] {
    const ClientMetrics m = plane.client().metrics();
    ServiceProbe p;
    p.messages = static_cast<double>(m.update_messages + m.query_messages);
    p.shares = m.share_requests;
    p.queries = m.query_requests;
    return p;
  };
  hooks.true_costs = [&](const Workload& truth) {
    return std::make_pair(
        ScheduleCost(plane.graph(), truth, schedule, ResidualPolicy::kFree),
        HybridCost(plane.graph(), truth));
  };
  return ReplayWithAux(scenario, std::move(hooks), std::move(report),
                       scenario.base_workload(), options);
}

std::function<Status(const ReplayEpochRow&)> AuditPlaneAtEpochClose(
    Prototype& plane, size_t per_epoch, size_t* audited) {
  return [&plane, per_epoch, audited](const ReplayEpochRow& row) -> Status {
    const size_t n = plane.graph().num_nodes();
    for (size_t i = 0; i < per_epoch && n > 0; ++i) {
      const NodeId u = static_cast<NodeId>((row.epoch + i * n / per_epoch) % n);
      const Prototype::AuditToken token = plane.BeginAudit();
      PIGGY_RETURN_NOT_OK(plane.AuditStream(u, plane.QueryStream(u), token));
      ++*audited;
    }
    return Status::OK();
  };
}

}  // namespace piggy
