#include "store/feed_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/schedule_io.h"
#include "core/validator.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace piggy {

namespace {

ClientMetrics SumMetrics(const ClientMetrics& a, const ClientMetrics& b) {
  ClientMetrics sum;
  sum.share_requests = a.share_requests + b.share_requests;
  sum.query_requests = a.query_requests + b.query_requests;
  sum.update_messages = a.update_messages + b.update_messages;
  sum.query_messages = a.query_messages + b.query_messages;
  return sum;
}

// Chains a plan:* span tracer after ctx's own progress observer; without a
// trace, leaves ctx as it is and returns null.
std::shared_ptr<obs::PlanPhaseTracer> TracePlanPhases(obs::TraceLog* trace, int32_t shard,
                                                      PlanContext* ctx) {
  if (trace == nullptr) return nullptr;
  auto tracer = std::make_shared<obs::PlanPhaseTracer>(trace, shard);
  ctx->progress = [tracer, prev = std::move(ctx->progress)](const PlanProgress& p) {
    if (prev) prev(p);
    tracer->Observe(p);
  };
  return tracer;
}

// A serving plane for (graph, schedule) with `log` replayed into it. Replay
// traffic is bookkeeping, not served requests, so the client counters are
// reset afterwards; only those — the fleet's ServerMetrics must survive, or
// zeroing trimmed_events would defeat AuditStream's "completeness not
// provable once trimming happened" guard and fail correct queries.
Result<std::unique_ptr<Prototype>> BuildPlane(const Graph& graph,
                                              const Schedule& schedule,
                                              const std::vector<EventTuple>& log,
                                              const PrototypeOptions& options) {
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Prototype> plane,
                         Prototype::Create(graph, schedule, options));
  if (!log.empty()) {
    PIGGY_RETURN_NOT_OK(plane->RestoreEvents(log));
    plane->client().ResetMetrics();
  }
  return plane;
}

}  // namespace

std::string FeedService::Metrics::ToString() const {
  return StrFormat(
      "planner=%s cost=%.1f ff=%.1f ratio=%.3fx replans=%zu "
      "(bg=%zu drift=%zu score=%.3f) repairs=%zu churn=%zu rebuilds=%zu "
      "shares=%lu queries=%lu audited=%lu mpr=%.2f interest=%.2fB/edge",
      planner.c_str(), schedule_cost, hybrid_cost,
      ImprovementRatio(hybrid_cost, schedule_cost), replans, background_replans,
      drift_replans, drift_score, repairs, churn_ops, serving_rebuilds,
      static_cast<unsigned long>(shares), static_cast<unsigned long>(queries),
      static_cast<unsigned long>(audited_queries), messages_per_request,
      interest_bytes_per_edge);
}

FeedService::FeedService(const Graph& graph, Workload workload,
                         FeedServiceOptions options)
    : options_(std::move(options)),
      graph_(graph),
      workload_(std::move(workload)),
      maintainer_(std::make_unique<IncrementalMaintainer>(&graph_, &schedule_,
                                                          &workload_)) {
  if (options_.replan.mode == ReplanMode::kDrift) {
    estimator_ = std::make_unique<RateDriftEstimator>(graph.num_nodes(),
                                                      options_.replan.drift);
  }
  share_us_ = &registry_.GetHistogram("feed.share_us");
  query_us_ = &registry_.GetHistogram("feed.query_us");
  follow_us_ = &registry_.GetHistogram("feed.follow_us");
  unfollow_us_ = &registry_.GetHistogram("feed.unfollow_us");
  replan_us_ = &registry_.GetHistogram("feed.replan_us", 0.5, 1e9, 96);
  replans_ = &registry_.GetCounter("feed.replans");
  background_replans_ = &registry_.GetCounter("feed.background_replans");
  // The durability layer shares this service's registry and trace ring, so
  // one export covers the whole shard (Recover() re-binds the pair it adopts
  // via BindObservability — its ShardDurability is opened before `this`
  // exists).
  options_.durability.metrics = &registry_;
  options_.durability.trace = options_.trace;
  options_.durability.trace_shard = options_.trace_shard;
}

FeedService::~FeedService() {
  {
    std::lock_guard<std::mutex> rl(replan_mu_);
    replan_shutdown_ = true;
  }
  replan_cancel_.store(true, std::memory_order_release);
  replan_cv_.notify_all();
  if (replan_thread_.joinable()) replan_thread_.join();
  // The in-flight publish finishes before the durability pair goes away.
  if (publisher_.joinable()) publisher_.join();
}

Result<std::unique_ptr<FeedService>> FeedService::Create(
    const Graph& graph, const FeedServiceOptions& options) {
  PIGGY_ASSIGN_OR_RETURN(Workload workload,
                         GenerateWorkload(graph, options.workload));
  return Create(graph, std::move(workload), options);
}

Result<std::unique_ptr<FeedService>> FeedService::Create(
    const Graph& graph, Workload workload, const FeedServiceOptions& options) {
  if (workload.num_users() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("workload covers %zu users but graph has %zu nodes",
                  workload.num_users(), graph.num_nodes()));
  }
  auto service = std::unique_ptr<FeedService>(
      new FeedService(graph, std::move(workload), options));
  {
    std::unique_lock<std::shared_mutex> lock(service->mu_);
    PIGGY_RETURN_NOT_OK(service->ReplanLocked());
    PIGGY_RETURN_NOT_OK(service->RefreshServingLocked());
    if (service->options_.durability.enabled()) {
      PIGGY_ASSIGN_OR_RETURN(
          service->durability_,
          ShardDurability::Create(service->options_.durability, graph));
      // Snapshot 0 captures the initial plan; wal-000000.log opens for
      // appends.
      PIGGY_RETURN_NOT_OK(service->WriteSnapshotLocked());
    }
  }
  return service;
}

Result<std::unique_ptr<FeedService>> FeedService::Recover(
    const FeedServiceOptions& options, RecoveryStats* stats_out) {
  const auto start = std::chrono::steady_clock::now();
  const double trace_start =
      options.trace != nullptr ? options.trace->NowUs() : 0.0;
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<ShardDurability> durability,
                         ShardDurability::Open(options.durability));
  PIGGY_ASSIGN_OR_RETURN(ShardDurability::RecoveredState state,
                         durability->Recover());
  const double load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const SnapshotData& snap = state.snapshot;
  RecoveryStats stats = state.Stats();

  if (snap.production.size() != state.base_graph.num_nodes()) {
    return Status::IOError(
        StrFormat("snapshot rates cover %zu users but base graph has %zu nodes",
                  snap.production.size(), state.base_graph.num_nodes()));
  }
  Workload workload;
  workload.production = snap.production;
  workload.consumption = snap.consumption;

  auto service = std::unique_ptr<FeedService>(
      new FeedService(state.base_graph, std::move(workload), options));

  // Snapshot-time graph = base + the snapshot's cumulative churn delta (the
  // graph the embedded schedule was planned/repaired against). The WAL's
  // churn goes through the maintainer below, like any live Follow/Unfollow.
  for (const auto& [added, edge] : snap.churn) {
    if (edge.src >= state.base_graph.num_nodes() ||
        edge.dst >= state.base_graph.num_nodes()) {
      return Status::IOError(
          StrFormat("snapshot churn edge %u->%u outside base graph", edge.src,
                    edge.dst));
    }
    if (added) {
      service->graph_.AddEdge(edge.src, edge.dst);
    } else {
      service->graph_.RemoveEdge(edge.src, edge.dst);
    }
  }
  PIGGY_ASSIGN_OR_RETURN(
      service->schedule_,
      ParseSchedule(snap.schedule_text,
                    options.durability.data_dir + ":snapshot-schedule"));
  // The snapshot's text is this schedule's serialization until the WAL tail
  // changes it.
  service->schedule_text_ =
      std::make_shared<const std::string>(snap.schedule_text);
  service->maintainer_->RebuildIndexes();
  PIGGY_RETURN_NOT_OK(ValidateSchedule(service->graph_, service->schedule_));
  {
    // Rebase the drift policy on the recovered plan's advantage so recovery
    // does not itself look like drift.
    const double cost = ScheduleCost(service->graph_, service->workload_,
                                     service->schedule_, ResidualPolicy::kFree);
    const double hybrid = HybridCost(service->graph_, service->workload_);
    service->plan_advantage_ = cost > 0 ? hybrid / cost : 1.0;
    service->edges_at_plan_ = service->graph_.num_edges();
  }
  {
    std::unique_lock<std::shared_mutex> lock(service->mu_);
    PIGGY_RETURN_NOT_OK(service->RefreshServingLocked(snap.events));
  }

  // Replay the WAL tail through the public API. replaying_ suppresses
  // re-logging and replan policies; planner runs happen exactly where a
  // kReplanCommit record marks a committed live replan.
  service->durability_ = std::move(durability);
  service->durability_->BindObservability(&service->registry_, options.trace,
                                          options.trace_shard);
  service->replaying_ = true;
  Status replay_status;
  for (const WalRecord& r : state.wal_records) {
    switch (r.type) {
      case WalRecordType::kShare:
        replay_status = service->Share(r.user, r.seq);
        ++stats.replayed_shares;
        break;
      case WalRecordType::kFollow:
        replay_status = service->Follow(r.user, r.producer);
        ++stats.replayed_follows;
        break;
      case WalRecordType::kUnfollow:
        replay_status = service->Unfollow(r.user, r.producer);
        ++stats.replayed_unfollows;
        break;
      case WalRecordType::kRateShift:
        replay_status = service->SetUserRates(r.user, r.rp, r.rc);
        ++stats.replayed_rate_shifts;
        break;
      case WalRecordType::kReplanCommit:
        replay_status = service->Replan();
        ++stats.replayed_replans;
        break;
      case WalRecordType::kMigrationCommit:
        // A marker, not an operation: the migrated state it commits is the
        // seeded shares/churn already replayed above (destination) or state
        // that left with the users (source).
        ++stats.replayed_migration_commits;
        break;
    }
    if (!replay_status.ok()) break;
  }
  service->replaying_ = false;
  PIGGY_RETURN_NOT_OK(replay_status);
  PIGGY_RETURN_NOT_OK(service->durability_->ResumeAppending());
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Surface the recovery outcome through the registry (piggy_tool stats)
  // alongside the structured stats the caller receives.
  service->registry_.GetCounter("recovery.runs").Add();
  service->registry_.GetCounter("recovery.wal_records").Add(stats.wal_records);
  service->registry_.GetCounter("recovery.snapshot_events")
      .Add(stats.snapshot_events);
  if (stats.torn_tail) service->registry_.GetCounter("recovery.torn_tails").Add();
  if (stats.fallback) service->registry_.GetCounter("recovery.fallbacks").Add();
  service->registry_.GetGauge("recovery.wall_seconds").Set(stats.wall_seconds);
  if (options.trace != nullptr) {
    auto args = stats.TraceArgs();
    args.emplace_back("load_ms", StrFormat("%.3f", load_seconds * 1e3));
    args.emplace_back("replay_ms", StrFormat("%.3f", (stats.wall_seconds -
                                                      load_seconds) * 1e3));
    options.trace->Span(obs::TraceEventKind::kRecovery, trace_start,
                        options.trace_shard, std::move(args));
  }
  if (stats_out != nullptr) *stats_out = stats;
  return service;
}

Status FeedService::Replan() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return ReplanLocked();
}

Status FeedService::ReplanLocked() {
  const double trace_start =
      options_.trace != nullptr ? options_.trace->NowUs() : 0.0;
  WallTimer replan_timer;
  PIGGY_ASSIGN_OR_RETURN(Graph snapshot, graph_.Snapshot());
  PIGGY_ASSIGN_OR_RETURN(PlanResult plan,
                         RunPlanner(snapshot, workload_, /*background=*/false));
  return CommitPlanLocked(std::move(plan), /*background=*/false, trace_start,
                          replan_timer);
}

const char* FeedService::PlanMode(bool background) const {
  if (background) return "background";
  return replaying_ ? "replay" : "inline";
}

Result<PlanResult> FeedService::RunPlanner(const Graph& graph,
                                           const Workload& workload,
                                           bool background) const {
  obs::TraceLog* trace = options_.trace;
  if (trace != nullptr) {
    trace->Instant(obs::TraceEventKind::kReplanStart, options_.trace_shard,
                   {{"planner", options_.planner}, {"mode", PlanMode(background)}});
  }
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Planner> planner,
                         MakePlanner(options_.planner));
  PlanContext ctx = options_.plan_context;
  // Shutdown flips the token and a background planner finishes early with
  // an anytime-valid schedule.
  if (background) ctx.cancel = &replan_cancel_;
  const auto tracer = TracePlanPhases(trace, options_.trace_shard, &ctx);
  Result<PlanResult> plan = planner->Plan(graph, workload, ctx);
  if (tracer != nullptr) tracer->Close();
  return plan;
}

Status FeedService::CommitPlanLocked(PlanResult plan, bool background,
                                     double trace_start,
                                     const WallTimer& replan_timer) {
  schedule_ = std::move(plan.schedule);
  schedule_text_.reset();
  maintainer_->RebuildIndexes();
  // Churn that raced a background plan is re-applied to the fresh schedule
  // through the Sec-3.3 local repair. Any other commit supersedes the
  // in-flight background plan the journal belongs to: its publish step sees
  // the epoch moved and discards itself.
  if (!background) churn_journal_.clear();
  const size_t raced_churn = churn_journal_.size();
  for (const ChurnRecord& rec : churn_journal_) {
    if (rec.added) {
      maintainer_->RepairEdgeAdded(rec.producer, rec.consumer);
    } else {
      maintainer_->RepairEdgeRemoved(rec.producer, rec.consumer);
    }
  }
  churn_journal_.clear();
  // The drift policy measures erosion relative to the advantage this plan
  // opened with (scale-invariant, so traffic surges alone never trigger).
  plan_advantage_ =
      plan.final_cost > 0 ? plan.hybrid_cost / plan.final_cost : 1.0;
  edges_at_plan_ = graph_.num_edges();
  if (estimator_ != nullptr) estimator_->OnReplanned();
  replans_->Add();
  churn_since_plan_ = raced_churn;
  serving_dirty_ = true;
  ++plan_epoch_;
  replan_us_->Record(replan_timer.Seconds() * 1e6);
  if (obs::TraceLog* trace = options_.trace; trace != nullptr) {
    std::vector<std::pair<std::string, std::string>> args = {
        {"planner", options_.planner},
        {"cost", StrFormat("%.1f", plan.final_cost)},
        {"epoch", std::to_string(plan_epoch_)}};
    if (background) args.emplace_back("raced_churn", std::to_string(raced_churn));
    trace->Span(obs::TraceEventKind::kReplanCommit, trace_start,
                options_.trace_shard, std::move(args));
    trace->Instant(obs::TraceEventKind::kScheduleSwap, options_.trace_shard,
                   {{"epoch", std::to_string(plan_epoch_)},
                    {"mode", PlanMode(background)}});
  }
  if (durability_ != nullptr && !replaying_) {
    // The commit record pins the replan's position in the op stream so
    // recovery re-runs the planner at exactly this point; the snapshot
    // bounds replay to one plan epoch. The event log is current under the
    // exclusive lock, so snapshotting before a plane swap is safe.
    PIGGY_RETURN_NOT_OK(durability_->LogReplanCommit());
    PIGGY_RETURN_NOT_OK(WriteSnapshotLocked());
  }
  return Status::OK();
}

Status FeedService::StartBackgroundReplan() {
  return RequestBackgroundReplan(/*refresh=*/false);
}

Status FeedService::RequestBackgroundReplan(bool refresh) {
  std::lock_guard<std::mutex> rl(replan_mu_);
  if (replan_shutdown_) {
    return Status::FailedPrecondition("FeedService is shutting down");
  }
  if (!replan_thread_.joinable()) {
    replan_thread_ = std::thread(&FeedService::ReplanThreadMain, this);
  }
  if (replan_requested_ || replan_running_) {
    // Coalesce: one queued run covers every trigger that raced it.
    replan_refresh_workload_ = replan_refresh_workload_ || refresh;
    return Status::OK();
  }
  replan_requested_ = true;
  replan_refresh_workload_ = refresh;
  replan_cv_.notify_all();
  return Status::OK();
}

Status FeedService::WaitForBackgroundReplan() {
  std::unique_lock<std::mutex> rl(replan_mu_);
  replan_cv_.wait(rl, [this] {
    return (!replan_requested_ && !replan_running_) || replan_shutdown_;
  });
  return background_status_;
}

void FeedService::ReplanThreadMain() {
  std::unique_lock<std::mutex> rl(replan_mu_);
  while (true) {
    replan_cv_.wait(rl, [this] { return replan_requested_ || replan_shutdown_; });
    if (replan_shutdown_) return;
    replan_requested_ = false;
    const bool refresh = replan_refresh_workload_;
    replan_refresh_workload_ = false;
    replan_running_ = true;
    rl.unlock();
    Status status = BackgroundReplanOnce(refresh);
    rl.lock();
    replan_running_ = false;
    background_status_ = status;
    replan_cv_.notify_all();
  }
}

Status FeedService::BackgroundReplanOnce(bool refresh_workload) {
  // Phase 1 — freeze the inputs under the exclusive lock and arm the churn
  // journal: Follow/Unfollow from here to publish are recorded and re-applied
  // to the fresh schedule at commit.
  Graph planning_snapshot;
  Workload workload_copy;
  size_t epoch = 0;
  const double trace_start =
      options_.trace != nullptr ? options_.trace->NowUs() : 0.0;
  WallTimer replan_timer;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (refresh_workload && estimator_ != nullptr && estimator_->Warm()) {
      workload_ = estimator_->EstimateWorkload(workload_);
    }
    PIGGY_ASSIGN_OR_RETURN(planning_snapshot, graph_.Snapshot());
    workload_copy = workload_;
    churn_journal_.clear();
    journal_active_ = true;
    epoch = plan_epoch_;
  }

  // Phase 2 — plan against the frozen snapshot, no locks held. Serving
  // proceeds at full concurrency.
  Result<PlanResult> planned =
      RunPlanner(planning_snapshot, workload_copy, /*background=*/true);
  if (!planned.ok()) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    journal_active_ = false;
    churn_journal_.clear();
    return planned.status();
  }
  PlanResult plan = std::move(planned).MoveValueOrDie();

  // Phase 3 — pre-build the replacement serving plane off-thread (the double
  // buffer): new fleet + client around the planned schedule, restored from a
  // copy of the event log.
  std::vector<EventTuple> log_copy;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (prototype_ != nullptr) log_copy = prototype_->EventLog();
  }
  auto fresh_snapshot = std::make_unique<Graph>(std::move(planning_snapshot));
  Result<std::unique_ptr<Prototype>> built =
      BuildPlane(*fresh_snapshot, plan.schedule, log_copy, options_.prototype);
  std::unique_ptr<Prototype> plane =
      built.ok() ? std::move(built).MoveValueOrDie() : nullptr;

  // Phase 4 — publish under one brief exclusive section: commit the plan
  // (raced churn re-applied), then either swap the pre-built plane in (after
  // replaying shares that raced the build) or leave the plane for a lazy
  // rebuild when churn invalidated its view lists.
  std::unique_lock<std::shared_mutex> lock(mu_);
  journal_active_ = false;
  if (replan_cancel_.load(std::memory_order_acquire) || plan_epoch_ != epoch) {
    churn_journal_.clear();
    return Status::OK();  // superseded by shutdown or a newer plan
  }
  background_replans_->Add();
  PIGGY_RETURN_NOT_OK(CommitPlanLocked(std::move(plan), /*background=*/true,
                                       trace_start, replan_timer));

  if (churn_since_plan_ == 0 && plane != nullptr && prototype_ != nullptr) {
    // No churn raced: the pre-built plane's view lists match the published
    // schedule. Replay the shares that arrived during the build (a sorted
    // log diff — ids equal timestamps by construction) and swap in O(delta).
    std::vector<EventTuple> current = prototype_->EventLog();
    std::vector<EventTuple> delta;
    size_t matched = 0;
    for (const EventTuple& e : current) {
      if (matched < log_copy.size() && log_copy[matched] == e) {
        ++matched;
      } else {
        delta.push_back(e);
      }
    }
    bool delta_ok = matched == log_copy.size();
    for (const EventTuple& e : delta) {
      if (e.event_id != e.timestamp) delta_ok = false;
    }
    if (delta_ok) {
      for (const EventTuple& e : delta) plane->ShareEvent(e.producer, e.event_id);
      plane->client().ResetMetrics();
      AccumulateClientMetrics();
      prototype_ = std::move(plane);          // old plane released first ...
      snapshot_ = std::move(fresh_snapshot);  // ... then the graph it borrowed
      ++serving_rebuilds_;
      serving_dirty_ = false;
    }
  }
  return Status::OK();  // otherwise the commit left a lazy rebuild queued
}

Status FeedService::EnsureServing(std::shared_lock<std::shared_mutex>& lock) {
  while (serving_dirty_ || prototype_ == nullptr) {
    lock.unlock();
    {
      std::unique_lock<std::shared_mutex> rebuild(mu_);
      PIGGY_RETURN_NOT_OK(RefreshServingLocked());
    }
    lock.lock();
  }
  return Status::OK();
}

Status FeedService::RefreshServingLocked(const std::vector<EventTuple>& seed) {
  if (prototype_ != nullptr && !serving_dirty_) return Status::OK();

  std::vector<EventTuple> log;
  const bool rebuild = prototype_ != nullptr;
  if (rebuild) {
    // accumulated_ keeps the real served history across the rebuild.
    AccumulateClientMetrics();
    log = prototype_->EventLog();
    prototype_.reset();  // must drop its borrow before snapshot_ is replaced
    ++serving_rebuilds_;
  }
  PIGGY_ASSIGN_OR_RETURN(Graph snapshot, graph_.Snapshot());
  snapshot_ = std::make_unique<Graph>(std::move(snapshot));
  PIGGY_ASSIGN_OR_RETURN(prototype_, BuildPlane(*snapshot_, schedule_,
                                                rebuild ? log : seed,
                                                options_.prototype));
  serving_dirty_ = false;
  return Status::OK();
}

void FeedService::AccumulateClientMetrics() {
  if (prototype_ == nullptr) return;
  accumulated_ = SumMetrics(accumulated_, prototype_->client().metrics());
  prototype_->client().ResetMetrics();
}

Status FeedService::Share(NodeId u) { return ShareWithSeq(u, std::nullopt); }

Status FeedService::Share(NodeId u, uint64_t seq) { return ShareWithSeq(u, seq); }

Status FeedService::ShareWithSeq(NodeId u, std::optional<uint64_t> assigned) {
  obs::ScopedLatency latency(replaying_ ? nullptr : share_us_);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (u >= graph_.num_nodes()) {
      return Status::InvalidArgument(StrFormat("unknown user %u", u));
    }
    PIGGY_RETURN_NOT_OK(EnsureServing(lock));
    // Draw the seq (unless the caller assigned one), WAL-frame the record,
    // then publish: a concurrent QueryStream can only ever observe an event
    // that is already on the log, so neither the ack nor any read exposes
    // state a crash could roll back past (ShardDurability serializes
    // concurrent appends internally; a seq burned by a failed append is a
    // harmless gap).
    const uint64_t seq =
        assigned.has_value() ? *assigned : prototype_->DrawShareSeq();
    if (durability_ != nullptr && !replaying_) {
      PIGGY_RETURN_NOT_OK(durability_->LogShare(u, seq));
    }
    prototype_->ShareEvent(u, seq);
  }
  PIGGY_RETURN_NOT_OK(ObserveRequest(/*is_share=*/true, u));
  return MaybeSnapshot();
}

Result<std::vector<EventTuple>> FeedService::QueryStream(NodeId u) {
  obs::ScopedLatency latency(replaying_ ? nullptr : query_us_);
  std::vector<EventTuple> stream;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (u >= graph_.num_nodes()) {
      return Status::InvalidArgument(StrFormat("unknown user %u", u));
    }
    PIGGY_RETURN_NOT_OK(EnsureServing(lock));
    const bool audit =
        options_.audit_every > 0 &&
        (queries_since_audit_.fetch_add(1, std::memory_order_relaxed) + 1) %
                options_.audit_every ==
            0;
    if (!audit) {
      // No token: it reads the share-written in-flight count and log version.
      stream = prototype_->QueryStream(u);
    } else {
      // Token before the query: audits stay exact in single-threaded use and
      // downgrade to soundness-only when a share overlapped this query.
      const Prototype::AuditToken token = prototype_->BeginAudit();
      stream = prototype_->QueryStream(u);
      PIGGY_RETURN_NOT_OK(prototype_->AuditStream(u, stream, token));
      audited_queries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PIGGY_RETURN_NOT_OK(ObserveRequest(/*is_share=*/false, u));
  return stream;
}

Status FeedService::ObserveRequest(bool is_share, NodeId u) {
  if (replaying_) return Status::OK();  // replayed traffic is not observation
  if (estimator_ == nullptr) return Status::OK();
  if (is_share) {
    estimator_->RecordShare(u);
  } else {
    estimator_->RecordQuery(u);
  }
  if (!estimator_->WindowFull()) return Status::OK();
  if (!estimator_->FoldWindow()) return Status::OK();  // another thread folded

  // Rate component: fraction of the plan's cost advantage lost under the
  // estimated rates. Only trusted after warmup — thin observation windows
  // fake small amounts of drift.
  const bool warm = estimator_->Warm();
  double rate_score = 0;
  double structural_score = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (warm) {
      const Workload estimated = estimator_->EstimateWorkload(workload_);
      const double cost =
          ScheduleCost(graph_, estimated, schedule_, ResidualPolicy::kFree);
      const double hybrid = HybridCost(graph_, estimated);
      const double advantage = cost > 0 ? hybrid / cost : 1.0;
      rate_score = plan_advantage_ > 0
                       ? std::max(0.0, 1.0 - advantage / plan_advantage_)
                       : 0.0;
    }
    // Structural component: churn repairs serve each new edge individually,
    // so piggybacking decays in proportion to the churned-edge fraction.
    // Exact, no warmup needed.
    structural_score = estimator_->options().churn_weight *
                       static_cast<double>(churn_since_plan_) /
                       static_cast<double>(std::max<size_t>(edges_at_plan_, 1));
  }
  const double score = std::max(rate_score, structural_score);
  last_drift_score_.store(score, std::memory_order_relaxed);

  if (score > estimator_->options().threshold && estimator_->ReplanAllowed()) {
    drift_replans_.fetch_add(1, std::memory_order_relaxed);
    if (options_.background_replan) {
      // Re-estimation happens on the background thread against the same
      // estimator (refresh only once warm).
      return RequestBackgroundReplan(/*refresh=*/warm);
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (warm) {
      // Replan against the traffic actually observed, not deployment-day
      // rates (a purely structural trigger inside warmup keeps the planned
      // rates rather than trusting a noisy estimate).
      workload_ = estimator_->EstimateWorkload(workload_);
    }
    return ReplanLocked();
  }
  return Status::OK();
}

Status FeedService::ApplyChurnLocked(Status churn_result, bool added,
                                     NodeId producer, NodeId consumer) {
  schedule_text_.reset();  // the repair may have rewritten the schedule
  PIGGY_RETURN_NOT_OK(churn_result);
  if (durability_ != nullptr && !replaying_) {
    PIGGY_RETURN_NOT_OK(durability_->LogChurn(added, producer, consumer));
  }
  ++churn_ops_;
  ++churn_since_plan_;
  serving_dirty_ = true;
  if (journal_active_) churn_journal_.push_back({added, producer, consumer});
  // During WAL replay the policy stays inert: replans happen exactly where
  // kReplanCommit records mark them, not where a counter would re-fire.
  if (replaying_) return Status::OK();
  switch (options_.replan.mode) {
    case ReplanMode::kNever:
      break;
    case ReplanMode::kEveryNChurn:
      if (churn_since_plan_ >= options_.replan.every_n_churn) {
        if (options_.background_replan) {
          return RequestBackgroundReplan(/*refresh=*/false);
        }
        return ReplanLocked();
      }
      break;
    case ReplanMode::kDrift:
      // Structural drift surfaces through the cost evaluation on the served
      // request cadence (new edges are carried at hybrid cost until then).
      estimator_->RecordChurn();
      break;
  }
  return Status::OK();
}

Status FeedService::Follow(NodeId follower, NodeId producer) {
  obs::ScopedLatency latency(replaying_ ? nullptr : follow_us_);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (follower >= graph_.num_nodes() || producer >= graph_.num_nodes()) {
      return Status::InvalidArgument("unknown user in Follow");
    }
    if (follower == producer) {
      return Status::InvalidArgument("users may not follow themselves");
    }
    if (graph_.HasEdge(producer, follower)) return Status::OK();  // already follows
    PIGGY_RETURN_NOT_OK(ApplyChurnLocked(maintainer_->AddEdge(producer, follower),
                                         /*added=*/true, producer, follower));
  }
  return MaybeSnapshot();
}

Status FeedService::Unfollow(NodeId follower, NodeId producer) {
  obs::ScopedLatency latency(replaying_ ? nullptr : unfollow_us_);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (follower >= graph_.num_nodes() || producer >= graph_.num_nodes()) {
      return Status::InvalidArgument("unknown user in Unfollow");
    }
    if (!graph_.HasEdge(producer, follower)) return Status::OK();  // not following
    PIGGY_RETURN_NOT_OK(
        ApplyChurnLocked(maintainer_->RemoveEdge(producer, follower),
                         /*added=*/false, producer, follower));
  }
  return MaybeSnapshot();
}

Status FeedService::SetUserRates(NodeId u, double production,
                                 double consumption) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (u >= graph_.num_nodes()) {
    return Status::InvalidArgument(StrFormat("unknown user %u", u));
  }
  workload_.production[u] = production;
  workload_.consumption[u] = consumption;
  if (durability_ != nullptr && !replaying_) {
    return durability_->LogRateShift(u, production, consumption);
  }
  return Status::OK();
}

Status FeedService::LogMigrationCommit() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (durability_ == nullptr || replaying_) return Status::OK();
  return durability_->LogMigrationCommit();
}

SnapshotData FeedService::CaptureSnapshotLocked() {
  SnapshotData data;  // id + churn delta are filled in by the cut
  data.production = workload_.production;
  data.consumption = workload_.consumption;
  if (schedule_text_ == nullptr) {
    schedule_text_ =
        std::make_shared<const std::string>(SerializeSchedule(schedule_));
  }
  data.shared_schedule_text = schedule_text_;
  if (prototype_ != nullptr) data.shared_events = prototype_->EventLogView();
  return data;
}

Status FeedService::WriteSnapshotLocked() {
  if (durability_ == nullptr) return Status::OK();
  // Publishes land in cut order: let a background one finish first (the
  // writer never takes mu_, so waiting under it cannot deadlock).
  if (publisher_.joinable()) publisher_.join();
  const auto started = ShardDurability::Clock::now();
  return durability_->WriteSnapshot(CaptureSnapshotLocked(), started);
}

Status FeedService::MaybeSnapshot() {
  if (durability_ == nullptr || replaying_) return Status::OK();
  const uint64_t every = options_.durability.snapshot_every;
  // The count runs from the newest *published* cut, so it stays over the
  // threshold while a publish is in flight (skip: one publish at a time)
  // and after a failed one (retry).
  if (every == 0 || durability_->records_since_snapshot() < every ||
      publish_in_flight_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Another writer may have cut while this one waited for the lock.
  if (publish_in_flight_.load(std::memory_order_acquire) ||
      durability_->records_since_snapshot() < every) {
    return Status::OK();
  }
  const auto started = ShardDurability::Clock::now();
  if (publisher_.joinable()) publisher_.join();  // its publish has landed
  PIGGY_ASSIGN_OR_RETURN(
      ShardDurability::Cut cut,
      durability_->CutSnapshot(CaptureSnapshotLocked(), started));
  publish_in_flight_.store(true, std::memory_order_release);
  publisher_ = std::thread([this, cut = std::move(cut)]() mutable {
    Status status = durability_->PublishSnapshot(std::move(cut));
    std::lock_guard<std::mutex> pl(publish_mu_);
    publish_status_ = std::move(status);
    publish_in_flight_.store(false, std::memory_order_release);
    publish_cv_.notify_all();
  });
  return Status::OK();
}

Status FeedService::WaitForSnapshotPublish() {
  std::unique_lock<std::mutex> pl(publish_mu_);
  publish_cv_.wait(pl, [this] {
    return !publish_in_flight_.load(std::memory_order_acquire);
  });
  return publish_status_;
}

Result<Prototype*> FeedService::ServingPlane() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PIGGY_RETURN_NOT_OK(EnsureServing(lock));
  return prototype_.get();
}

Workload FeedService::WorkloadSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return workload_;
}

Result<uint64_t> FeedService::TrimmedEvents() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PIGGY_RETURN_NOT_OK(EnsureServing(lock));
  return prototype_->TotalTrimmedEvents();
}

Status FeedService::Validate() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ValidateSchedule(graph_, schedule_);
}

std::pair<double, double> FeedService::CostsUnder(const Workload& truth) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return {ScheduleCost(graph_, truth, schedule_, ResidualPolicy::kFree),
          HybridCost(graph_, truth)};
}

FeedService::Metrics FeedService::GetMetrics() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Metrics m;
  m.planner = options_.planner;
  m.schedule_cost =
      ScheduleCost(graph_, workload_, schedule_, ResidualPolicy::kFree);
  m.hybrid_cost = HybridCost(graph_, workload_);
  m.replans = replans_->Value();
  m.background_replans = background_replans_->Value();
  m.drift_replans = drift_replans_.load(std::memory_order_relaxed);
  m.drift_score = last_drift_score_.load(std::memory_order_relaxed);
  m.repairs = maintainer_->repairs();
  m.churn_ops = churn_ops_;
  m.serving_rebuilds = serving_rebuilds_;
  ClientMetrics client = accumulated_;
  if (prototype_ != nullptr) {
    client = SumMetrics(client, prototype_->client().metrics());
  }
  m.shares = client.share_requests;
  m.queries = client.query_requests;
  m.audited_queries = audited_queries_.load(std::memory_order_relaxed);
  m.messages_per_request = client.MessagesPerRequest();
  if (prototype_ != nullptr) {
    m.interest_bytes = prototype_->client().InterestBytes();
    m.interest_bytes_per_edge =
        graph_.num_edges() > 0
            ? static_cast<double>(m.interest_bytes) /
                  static_cast<double>(graph_.num_edges())
            : 0.0;
  }
  return m;
}

}  // namespace piggy
