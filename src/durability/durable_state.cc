#include "durability/durable_state.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "graph/graph_io.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace piggy {

namespace fs = std::filesystem;

namespace {

constexpr char kMetaName[] = "meta.txt";
constexpr char kMetaLine[] = "piggy-durability v1";
constexpr char kBaseGraphName[] = "base.graph";

// Parses "snapshot-NNNNNN" / "wal-NNNNNN.log" file names; returns false for
// anything else (including .tmp leftovers).
bool ParseDurableName(const std::string& name, const std::string& prefix,
                      const std::string& suffix, uint64_t* id) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

std::vector<uint64_t> ListIds(const std::string& dir, const std::string& prefix,
                              const std::string& suffix) {
  std::vector<uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t id;
    if (ParseDurableName(entry.path().filename().string(), prefix, suffix,
                         &id)) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

void RecoveryStats::Accumulate(const RecoveryStats& other) {
  snapshot_id = std::max(snapshot_id, other.snapshot_id);
  snapshot_events += other.snapshot_events;
  wal_records += other.wal_records;
  replayed_shares += other.replayed_shares;
  replayed_follows += other.replayed_follows;
  replayed_unfollows += other.replayed_unfollows;
  replayed_rate_shifts += other.replayed_rate_shifts;
  replayed_replans += other.replayed_replans;
  replayed_migration_commits += other.replayed_migration_commits;
  torn_tail = torn_tail || other.torn_tail;
  fallback = fallback || other.fallback;
  wal_valid_bytes += other.wal_valid_bytes;
  wal_total_bytes += other.wal_total_bytes;
}

std::string RecoveryStats::ToString() const {
  return StrFormat(
      "snapshot id=%llu events=%llu%s | wal records=%llu (%llu/%llu bytes%s) "
      "| replayed shares=%llu follows=%llu unfollows=%llu rate_shifts=%llu "
      "replans=%llu migrations=%llu | %.3f s",
      static_cast<unsigned long long>(snapshot_id),
      static_cast<unsigned long long>(snapshot_events),
      fallback ? " (fallback)" : "",
      static_cast<unsigned long long>(wal_records),
      static_cast<unsigned long long>(wal_valid_bytes),
      static_cast<unsigned long long>(wal_total_bytes),
      torn_tail ? ", torn tail" : "",
      static_cast<unsigned long long>(replayed_shares),
      static_cast<unsigned long long>(replayed_follows),
      static_cast<unsigned long long>(replayed_unfollows),
      static_cast<unsigned long long>(replayed_rate_shifts),
      static_cast<unsigned long long>(replayed_replans),
      static_cast<unsigned long long>(replayed_migration_commits),
      wall_seconds);
}

std::string RecoveryStats::ToJson() const {
  return StrFormat(
      "{\"snapshot_id\":%llu,\"snapshot_events\":%llu,\"wal_records\":%llu,"
      "\"replayed_shares\":%llu,\"replayed_follows\":%llu,"
      "\"replayed_unfollows\":%llu,\"replayed_rate_shifts\":%llu,"
      "\"replayed_replans\":%llu,\"replayed_migration_commits\":%llu,"
      "\"torn_tail\":%s,\"fallback\":%s,\"wal_valid_bytes\":%llu,"
      "\"wal_total_bytes\":%llu,\"wall_seconds\":%.6f}",
      static_cast<unsigned long long>(snapshot_id),
      static_cast<unsigned long long>(snapshot_events),
      static_cast<unsigned long long>(wal_records),
      static_cast<unsigned long long>(replayed_shares),
      static_cast<unsigned long long>(replayed_follows),
      static_cast<unsigned long long>(replayed_unfollows),
      static_cast<unsigned long long>(replayed_rate_shifts),
      static_cast<unsigned long long>(replayed_replans),
      static_cast<unsigned long long>(replayed_migration_commits),
      torn_tail ? "true" : "false", fallback ? "true" : "false",
      static_cast<unsigned long long>(wal_valid_bytes),
      static_cast<unsigned long long>(wal_total_bytes), wall_seconds);
}

void ShardDurability::BindObservability(obs::MetricsRegistry* metrics,
                                        obs::TraceLog* trace,
                                        int32_t trace_shard) {
  options_.metrics = metrics;
  options_.trace = trace;
  options_.trace_shard = trace_shard;
  if (metrics != nullptr) {
    append_us_ = &metrics->GetHistogram("wal.append_us");
    flush_us_ = &metrics->GetHistogram("wal.flush_us");
    snapshot_us_ = &metrics->GetHistogram("snapshot.write_us", 0.5, 1e8, 96);
    cut_us_ = &metrics->GetHistogram("snapshot.cut_us", 0.5, 1e8, 96);
    rotations_ = &metrics->GetCounter("wal.rotations");
    publish_failures_ = &metrics->GetCounter("snapshot.publish_failures");
  } else {
    append_us_ = nullptr;
    flush_us_ = nullptr;
    snapshot_us_ = nullptr;
    cut_us_ = nullptr;
    rotations_ = nullptr;
    publish_failures_ = nullptr;
  }
}

Result<std::unique_ptr<ShardDurability>> ShardDurability::Create(
    const DurabilityOptions& options, const Graph& base_graph) {
  if (!options.enabled()) {
    return Status::InvalidArgument("durability requires a non-empty data_dir");
  }
  std::error_code ec;
  fs::create_directories(options.data_dir, ec);
  if (ec) {
    return Status::IOError("cannot create data dir " + options.data_dir +
                           ": " + ec.message());
  }
  // A dir that already holds durable state belongs to a previous run. Fresh
  // creation must not append to its WALs or leave its higher-id snapshots
  // shadowing the new generation — a later Recover would silently mix the
  // two histories.
  if (!ListIds(options.data_dir, "snapshot-", "").empty() ||
      !ListIds(options.data_dir, "wal-", ".log").empty()) {
    return Status::FailedPrecondition(
        "data dir already holds durable state: " + options.data_dir +
        " (recover it, or point at an empty directory)");
  }
  {
    std::ofstream meta(fs::path(options.data_dir) / kMetaName);
    meta << kMetaLine << "\n";
    if (!meta) {
      return Status::IOError("cannot write meta file in " + options.data_dir);
    }
  }
  const std::string graph_path =
      (fs::path(options.data_dir) / kBaseGraphName).string();
  PIGGY_RETURN_NOT_OK(WriteGraphBinary(base_graph, graph_path));

  std::unique_ptr<ShardDurability> d(new ShardDurability(options));
  PIGGY_ASSIGN_OR_RETURN(d->base_graph_, ReadGraphBinary(graph_path));
  return d;
}

Result<std::unique_ptr<ShardDurability>> ShardDurability::Open(
    const DurabilityOptions& options) {
  if (!options.enabled()) {
    return Status::InvalidArgument("durability requires a non-empty data_dir");
  }
  const fs::path dir(options.data_dir);
  {
    std::ifstream meta(dir / kMetaName);
    std::string line;
    if (!meta || !std::getline(meta, line) || StrTrim(line) != kMetaLine) {
      return Status::IOError("not a durability dir (bad or missing meta): " +
                             options.data_dir);
    }
  }
  std::unique_ptr<ShardDurability> d(new ShardDurability(options));
  PIGGY_ASSIGN_OR_RETURN(d->base_graph_,
                         ReadGraphBinary((dir / kBaseGraphName).string()));
  return d;
}

std::string ShardDurability::SnapshotPath(uint64_t id) const {
  return (fs::path(options_.data_dir) /
          StrFormat("snapshot-%06llu", static_cast<unsigned long long>(id)))
      .string();
}

std::string ShardDurability::WalPath(uint64_t id) const {
  return (fs::path(options_.data_dir) /
          StrFormat("wal-%06llu.log", static_cast<unsigned long long>(id)))
      .string();
}

Status ShardDurability::AppendLocked(const WalRecord& record) {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition(
        "no open WAL (WriteSnapshot/ResumeAppending not called): " +
        options_.data_dir);
  }
  if (append_us_ != nullptr) {
    WallTimer t;
    PIGGY_RETURN_NOT_OK(wal_.Append(record));
    append_us_->Record(t.Seconds() * 1e6);
  } else {
    PIGGY_RETURN_NOT_OK(wal_.Append(record));
  }
  records_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardDurability::LogShare(NodeId producer, uint64_t seq) {
  WalRecord r;
  r.type = WalRecordType::kShare;
  r.user = producer;
  r.seq = seq;
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(r);
}

Status ShardDurability::LogChurn(bool added, NodeId src, NodeId dst) {
  WalRecord r;
  r.type = added ? WalRecordType::kFollow : WalRecordType::kUnfollow;
  r.user = dst;      // the follower (graph edges run producer -> consumer)
  r.producer = src;  // the followee
  std::lock_guard<std::mutex> lock(mu_);
  PIGGY_RETURN_NOT_OK(AppendLocked(r));
  churn_delta_[EdgeKey(src, dst)] = added;
  return Status::OK();
}

Status ShardDurability::LogRateShift(NodeId user, double rp, double rc) {
  WalRecord r;
  r.type = WalRecordType::kRateShift;
  r.user = user;
  r.rp = rp;
  r.rc = rc;
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(r);
}

Status ShardDurability::LogReplanCommit() {
  WalRecord r;
  r.type = WalRecordType::kReplanCommit;
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(r);
}

Status ShardDurability::LogMigrationCommit() {
  WalRecord r;
  r.type = WalRecordType::kMigrationCommit;
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(r);
}

Result<ShardDurability::Cut> ShardDurability::CutLocked(
    SnapshotData data, Clock::time_point started) {
  // Make wal-K durable before anything else: if the next WAL cannot be
  // opened, appends keep flowing to wal-K and the rotation can simply be
  // retried — a transient error must not become a permanent write outage.
  // mu_ is held throughout, so no record can slip in mid-rotation.
  if (wal_.is_open()) {
    WallTimer flush_timer;
    PIGGY_RETURN_NOT_OK(wal_.Flush(options_.use_fsync));
    if (flush_us_ != nullptr) flush_us_->Record(flush_timer.Seconds() * 1e6);
  }
  const uint64_t next_id = has_snapshot_ ? current_id_ + 1 : 0;
  PIGGY_ASSIGN_OR_RETURN(
      WalWriter next_wal,
      WalWriter::Open(WalPath(next_id), options_.flush, options_.group_records,
                      options_.use_fsync, /*truncate=*/true));
  WalWriter old_wal = std::move(wal_);
  wal_ = std::move(next_wal);
  current_id_ = next_id;
  has_snapshot_ = true;
  PIGGY_RETURN_NOT_OK(old_wal.Close());

  Cut cut;
  cut.data = std::move(data);
  cut.data.id = next_id;
  cut.data.churn.clear();
  cut.data.churn.reserve(churn_delta_.size());
  for (const auto& [key, added] : churn_delta_) {
    cut.data.churn.emplace_back(added, EdgeFromKey(key));
  }
  cut.records = records_since_snapshot_.load(std::memory_order_relaxed);
  cut.cut_us =
      std::chrono::duration<double, std::micro>(Clock::now() - started).count();
  if (options_.trace != nullptr) {
    cut.trace_start_us = options_.trace->NowUs() - cut.cut_us;
  }
  if (cut_us_ != nullptr) cut_us_->Record(cut.cut_us);
  if (rotations_ != nullptr) rotations_->Add();
  return cut;
}

void ShardDurability::TraceRotate(uint64_t id, double start_us,
                                  double dur_us) const {
  if (options_.trace == nullptr) return;
  obs::TraceEvent ev;
  ev.kind = obs::TraceEventKind::kWalRotate;
  ev.ts_us = start_us;
  ev.dur_us = dur_us;
  ev.shard = options_.trace_shard;
  ev.args = {{"wal", std::to_string(id)}};
  options_.trace->Emit(std::move(ev));
}

Result<ShardDurability::Cut> ShardDurability::CutSnapshot(
    SnapshotData data, Clock::time_point started) {
  Cut cut;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PIGGY_ASSIGN_OR_RETURN(cut, CutLocked(std::move(data), started));
  }
  TraceRotate(cut.data.id, cut.trace_start_us, cut.cut_us);
  return cut;
}

Status ShardDurability::PublishSnapshot(Cut cut) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const uint64_t id = cut.data.id;
  if (has_published_ && id <= published_id_) return Status::OK();  // superseded
  std::sort(cut.data.churn.begin(), cut.data.churn.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  WallTimer snapshot_timer;
  Status written = WriteSnapshotFile(cut.data, SnapshotPath(id));
  if (!written.ok()) {
    if (publish_failures_ != nullptr) publish_failures_->Add();
    return written;
  }
  if (snapshot_us_ != nullptr) {
    snapshot_us_->Record(snapshot_timer.Seconds() * 1e6);
  }
  const bool had_published = has_published_;
  const uint64_t previous = published_id_;
  has_published_ = true;
  published_id_ = id;
  records_since_snapshot_.fetch_sub(cut.records, std::memory_order_relaxed);

  // Keep the previous published snapshot and every WAL from it on; ignore
  // errors (stray files are harmless, recovery skips invalid names and
  // prefers newer snapshots).
  if (had_published) {
    for (uint64_t old : ListIds(options_.data_dir, "snapshot-", "")) {
      if (old < previous) std::remove(SnapshotPath(old).c_str());
    }
    for (uint64_t old : ListIds(options_.data_dir, "wal-", ".log")) {
      if (old < previous) std::remove(WalPath(old).c_str());
    }
  }
  if (options_.trace != nullptr) {
    options_.trace->Instant(
        obs::TraceEventKind::kSnapshotPublish, options_.trace_shard,
        {{"snapshot", std::to_string(id)},
         {"rotated_records", std::to_string(cut.records)},
         {"write_ms", StrFormat("%.3f", snapshot_timer.Seconds() * 1e3)}});
  }
  return Status::OK();
}

Status ShardDurability::WriteSnapshot(SnapshotData data,
                                      Clock::time_point started) {
  Cut cut;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PIGGY_ASSIGN_OR_RETURN(cut, CutLocked(std::move(data), started));
  }
  // A synchronous snapshot emits its rotate span after the publish: a
  // shard's track reads snapshot_publish, wal_rotate for every control-plane
  // snapshot, the order trace_replay_test pins in its checked-in reference.
  const uint64_t id = cut.data.id;
  const double start_us = cut.trace_start_us;
  const double dur_us = cut.cut_us;
  Status published = PublishSnapshot(std::move(cut));
  TraceRotate(id, start_us, dur_us);
  return published;
}

Result<ShardDurability::RecoveredState> ShardDurability::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_.is_open()) {
    return Status::FailedPrecondition(
        "Recover on an actively logging instance: " + options_.data_dir);
  }

  std::vector<uint64_t> snapshot_ids =
      ListIds(options_.data_dir, "snapshot-", "");
  if (snapshot_ids.empty()) {
    return Status::NotFound("no snapshots in " + options_.data_dir);
  }

  RecoveredState state;
  state.base_graph = base_graph_;
  bool found = false;
  std::string last_error;
  for (auto it = snapshot_ids.rbegin(); it != snapshot_ids.rend(); ++it) {
    auto snap = ReadSnapshotFile(SnapshotPath(*it));
    if (snap.ok()) {
      state.snapshot = std::move(snap).MoveValueOrDie();
      state.fallback = it != snapshot_ids.rbegin();
      found = true;
      break;
    }
    last_error = snap.status().ToString();
  }
  if (!found) {
    return Status::IOError("no valid snapshot in " + options_.data_dir +
                           " (last error: " + last_error + ")");
  }

  churn_delta_.clear();
  for (const auto& [added, edge] : state.snapshot.churn) {
    churn_delta_[EdgeKey(edge)] = added;
  }

  // Replay WALs at or after the recovered snapshot, in id order. A torn tail
  // is only tolerable on the newest WAL; a gap mid-history means later
  // records are not safe to apply.
  std::vector<uint64_t> wal_ids = ListIds(options_.data_dir, "wal-", ".log");
  wal_ids.erase(std::remove_if(wal_ids.begin(), wal_ids.end(),
                               [&](uint64_t id) {
                                 return id < state.snapshot.id;
                               }),
                wal_ids.end());
  uint64_t resume_id = state.snapshot.id;
  uint64_t resume_valid_bytes = 0;
  bool resume_truncate = false;
  for (size_t i = 0; i < wal_ids.size(); ++i) {
    PIGGY_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(WalPath(wal_ids[i])));
    for (const WalRecord& r : wal.records) {
      if (r.type == WalRecordType::kFollow) {
        churn_delta_[EdgeKey(r.producer, r.user)] = true;
      } else if (r.type == WalRecordType::kUnfollow) {
        churn_delta_[EdgeKey(r.producer, r.user)] = false;
      }
      state.wal_records.push_back(r);
    }
    state.wal_valid_bytes += wal.valid_bytes;
    state.wal_total_bytes += wal.total_bytes;
    resume_id = wal_ids[i];
    resume_valid_bytes = wal.valid_bytes;
    resume_truncate = wal.torn_tail;
    if (wal.torn_tail) {
      state.torn_tail = true;
      break;  // later WALs (if any) are beyond a gap — do not apply them
    }
  }

  current_id_ = resume_id;
  has_snapshot_ = true;
  records_since_snapshot_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> publish_lock(publish_mu_);
    has_published_ = true;
    published_id_ = state.snapshot.id;
  }
  resume_wal_id_ = resume_id;
  resume_valid_bytes_ = resume_valid_bytes;
  resume_truncate_ = resume_truncate;
  recovered_ = true;
  return state;
}

Status ShardDurability::ResumeAppending() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!recovered_) {
    return Status::FailedPrecondition("ResumeAppending before Recover: " +
                                      options_.data_dir);
  }
  // Drop any WAL newer than the resume point (only possible after a
  // mid-history gap) so future recoveries never see its stale records.
  for (uint64_t id : ListIds(options_.data_dir, "wal-", ".log")) {
    if (id > resume_wal_id_) std::remove(WalPath(id).c_str());
  }
  if (resume_truncate_) {
    PIGGY_RETURN_NOT_OK(
        TruncateFile(WalPath(resume_wal_id_), resume_valid_bytes_));
  }
  PIGGY_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(WalPath(resume_wal_id_), options_.flush,
                            options_.group_records, options_.use_fsync));
  current_id_ = resume_wal_id_;
  return Status::OK();
}

}  // namespace piggy
