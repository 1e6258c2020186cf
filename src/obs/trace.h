// TraceLog: bounded ring buffer of typed control-plane events.
//
// The trace records WHY the serving system did something and how long each
// phase took: replans (start/commit with planner, cost, wall), schedule
// swaps, WAL rotations and snapshot publishes, shard kills/restarts with
// recovery stats, rebalance-trigger fires with the watch that tripped,
// migration batches, and replay epoch rows. These are control-plane events —
// tens to thousands per run, never per-request — so the log is a single
// mutex-protected ring: bounded memory, drops-oldest on overflow with a
// dropped-events counter, and zero cost when no TraceLog is wired in
// (every producer takes a nullable TraceLog*).
//
// Export formats:
//  - ToJson(): one JSON object {"traceEvents":[...], "events":[...],
//    "dropped":N}. The "traceEvents" array is chrome://tracing-compatible
//    (load the file directly in chrome://tracing or ui.perfetto.dev); the
//    "events" array is the typed schema tests and RunReport consume. Both
//    views describe the same ring.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/plan_hooks.h"
#include "util/status.h"

namespace piggy {
namespace obs {

enum class TraceEventKind {
  kReplanStart,
  kReplanCommit,
  kScheduleSwap,
  kPlanPhase,
  kWalRotate,
  kSnapshotPublish,
  kShardKill,
  kShardRestart,
  kRecovery,
  kTriggerFire,
  kMigrationBegin,
  kMigrationEnd,
  kEpoch,
};

/// Stable wire name of a kind, e.g. "replan_commit".
const char* TraceEventKindName(TraceEventKind kind);

/// \brief One recorded event. dur_us == 0 marks an instant.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kEpoch;
  std::string name;   // short human label, defaults to the kind name
  double ts_us = 0;   // start, microseconds since TraceLog construction
  double dur_us = 0;  // span length; 0 = instant
  int32_t shard = -1;  // -1 when not shard-scoped
  std::vector<std::pair<std::string, std::string>> args;
};

/// \brief Thread-safe bounded event ring.
class TraceLog {
 public:
  explicit TraceLog(size_t capacity = 4096);

  /// Microseconds since construction (monotonic); use to timestamp the
  /// start of a span, then pass to Span() at the end.
  double NowUs() const;

  /// Records an instant event stamped now.
  void Instant(TraceEventKind kind, int32_t shard = -1,
               std::vector<std::pair<std::string, std::string>> args = {},
               std::string name = {});

  /// Records a span from `start_us` (a prior NowUs() reading) to now.
  void Span(TraceEventKind kind, double start_us, int32_t shard = -1,
            std::vector<std::pair<std::string, std::string>> args = {},
            std::string name = {});

  /// Appends a fully-formed event (ts/dur already set).
  void Emit(TraceEvent ev);

  /// Oldest-first copy of the retained events.
  std::vector<TraceEvent> Events() const;

  /// Events overwritten because the ring was full.
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

  std::string ToJson() const;

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // grows to capacity_, then wraps
  size_t next_ = 0;               // overwrite cursor once full
  uint64_t dropped_ = 0;
};

/// \brief Folds a planner's progress stream (core/plan_hooks.h) into one
/// kPlanPhase span per phase, named "plan:<phase>" and carrying the phase's
/// last step and cost: a report starts its phase, which lasts until a report
/// of another phase or Close(). A planner never reports concurrently, so the
/// tracer takes no lock.
class PlanPhaseTracer {
 public:
  PlanPhaseTracer(TraceLog* trace, int32_t shard) : trace_(trace), shard_(shard) {}

  void Observe(const PlanProgress& p);
  /// Ends the open phase, if any.
  void Close();

 private:
  TraceLog* const trace_;
  const int32_t shard_;
  std::string phase_;
  double start_us_ = 0;
  size_t steps_ = 0;
  double cost_ = 0;
};

/// Serializes events (e.g. a TraceLog::Events() copy) without a TraceLog.
std::string TraceToJson(const std::vector<TraceEvent>& events,
                        uint64_t dropped);

/// Writes log.ToJson() to `path` (chrome://tracing loads it directly).
Status WriteTraceFile(const TraceLog& log, const std::string& path);

}  // namespace obs
}  // namespace piggy
