#include "obs/trace.h"

#include <fstream>

#include "util/string_util.h"

namespace piggy {
namespace obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kReplanStart: return "replan_start";
    case TraceEventKind::kReplanCommit: return "replan_commit";
    case TraceEventKind::kScheduleSwap: return "schedule_swap";
    case TraceEventKind::kPlanPhase: return "plan_phase";
    case TraceEventKind::kWalRotate: return "wal_rotate";
    case TraceEventKind::kSnapshotPublish: return "snapshot_publish";
    case TraceEventKind::kShardKill: return "shard_kill";
    case TraceEventKind::kShardRestart: return "shard_restart";
    case TraceEventKind::kRecovery: return "recovery";
    case TraceEventKind::kTriggerFire: return "trigger_fire";
    case TraceEventKind::kMigrationBegin: return "migration_begin";
    case TraceEventKind::kMigrationEnd: return "migration_end";
    case TraceEventKind::kEpoch: return "epoch";
  }
  return "unknown";
}

TraceLog::TraceLog(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      t0_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

double TraceLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void TraceLog::Instant(TraceEventKind kind, int32_t shard,
                       std::vector<std::pair<std::string, std::string>> args,
                       std::string name) {
  TraceEvent ev;
  ev.kind = kind;
  ev.name = std::move(name);
  ev.ts_us = NowUs();
  ev.shard = shard;
  ev.args = std::move(args);
  Emit(std::move(ev));
}

void TraceLog::Span(TraceEventKind kind, double start_us, int32_t shard,
                    std::vector<std::pair<std::string, std::string>> args,
                    std::string name) {
  TraceEvent ev;
  ev.kind = kind;
  ev.name = std::move(name);
  ev.ts_us = start_us;
  ev.dur_us = NowUs() - start_us;
  if (ev.dur_us < 0) ev.dur_us = 0;
  ev.shard = shard;
  ev.args = std::move(args);
  Emit(std::move(ev));
}

void TraceLog::Emit(TraceEvent ev) {
  if (ev.name.empty()) ev.name = TraceEventKindName(ev.kind);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  // Full: overwrite the oldest event (next_ is the ring's logical head).
  ring_[next_] = std::move(ev);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceLog::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ArgsJson(const TraceEvent& ev) {
  std::string out = "{";
  for (size_t i = 0; i < ev.args.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("\"%s\":\"%s\"", JsonEscape(ev.args[i].first).c_str(),
                     JsonEscape(ev.args[i].second).c_str());
  }
  out += "}";
  return out;
}

// chrome://tracing event: timed phases become complete ("X") spans, the
// rest instants ("i"). Shard-scoped events render on the shard's track.
std::string ChromeEventJson(const TraceEvent& ev) {
  const char* kind = TraceEventKindName(ev.kind);
  const int32_t tid = ev.shard >= 0 ? ev.shard : -1;
  std::string out = StrFormat(
      "{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%.3f",
      JsonEscape(ev.name).c_str(), kind, tid, ev.ts_us);
  if (ev.dur_us > 0) {
    out += StrFormat(",\"ph\":\"X\",\"dur\":%.3f", ev.dur_us);
  } else {
    out += ",\"ph\":\"i\",\"s\":\"g\"";
  }
  out += ",\"args\":" + ArgsJson(ev) + "}";
  return out;
}

// Typed event: the schema tests and RunReport consume.
std::string TypedEventJson(const TraceEvent& ev) {
  std::string out = StrFormat(
      "{\"kind\":\"%s\",\"name\":\"%s\",\"ts_us\":%.3f,\"dur_us\":%.3f,"
      "\"shard\":%d,\"args\":",
      TraceEventKindName(ev.kind), JsonEscape(ev.name).c_str(), ev.ts_us,
      ev.dur_us, ev.shard);
  out += ArgsJson(ev);
  out += "}";
  return out;
}

}  // namespace

std::string TraceToJson(const std::vector<TraceEvent>& events,
                        uint64_t dropped) {
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    out += ChromeEventJson(events[i]);
  }
  out += "\n],\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    out += TypedEventJson(events[i]);
  }
  out += StrFormat("\n],\"dropped\":%llu}\n",
                   static_cast<unsigned long long>(dropped));
  return out;
}

std::string TraceLog::ToJson() const { return TraceToJson(Events(), dropped()); }

Status WriteTraceFile(const TraceLog& log, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  out << log.ToJson();
  out.flush();
  if (!out) {
    return Status::IOError(StrFormat("short write to %s", path.c_str()));
  }
  return Status::OK();
}

void PlanPhaseTracer::Observe(const PlanProgress& p) {
  if (phase_ != p.phase) {
    Close();
    phase_ = p.phase;
    start_us_ = trace_->NowUs();
  }
  steps_ = p.step;
  cost_ = p.cost;
}

void PlanPhaseTracer::Close() {
  if (phase_.empty()) return;
  trace_->Span(TraceEventKind::kPlanPhase, start_us_, shard_,
               {{"phase", phase_},
                {"steps", std::to_string(steps_)},
                {"cost", StrFormat("%.1f", cost_)}},
               "plan:" + phase_);
  phase_.clear();
  steps_ = 0;
  cost_ = 0;
}

}  // namespace obs
}  // namespace piggy
