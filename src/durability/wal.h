// Append-only write-ahead log for the serving plane.
//
// Every state-changing operation acked by a FeedService/ClusterService is
// framed into the shard's WAL before the ack:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// The payload is a fixed 33-byte little-endian record:
//
//   u8  type      1=share 2=follow 3=unfollow 4=rate_shift 5=replan_commit
//                 6=migration_commit
//   u32 user      producer (share), follower (churn), user (rate shift)
//   u32 producer  followee for churn records; 0 otherwise
//   u64 seq       event id for shares; 0 otherwise
//   f64 rp        production rate for rate-shift records
//   f64 rc        consumption rate for rate-shift records
//
// The reader walks frames until the file ends or a frame fails validation
// (short header, short payload, impossible length, CRC mismatch, unknown
// type) and reports where the valid prefix ends — a torn tail from a crash
// mid-append is data loss *after* the last ack only, never corruption of
// what came before it. Appends consult the FailPoint registry ("wal.append",
// "wal.sync") so tests can kill the process at any frame boundary.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace piggy {

enum class WalRecordType : uint8_t {
  kShare = 1,
  kFollow = 2,
  kUnfollow = 3,
  kRateShift = 4,
  kReplanCommit = 5,
  // A live user migration finished moving this shard's state: every record
  // after this marker belongs to the shard's post-migration membership. The
  // marker is written to both the source and destination WALs right before
  // the cluster's assignment file is atomically re-pointed, so recovery can
  // tell a committed migration from one the crash rolled back.
  kMigrationCommit = 6,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kShare;
  uint32_t user = 0;
  uint32_t producer = 0;
  uint64_t seq = 0;
  double rp = 0.0;
  double rc = 0.0;

  bool operator==(const WalRecord&) const = default;
};

/// How eagerly WalWriter pushes appended frames toward the disk.
enum class WalFlushPolicy : uint8_t {
  kEveryRecord = 0,  // flush (and optionally fsync) after every append
  kGroup,            // flush after every `group_records` appends (group commit)
};

/// Appends framed records to a log file. Not thread-safe: the owning
/// ShardDurability serializes appends under its own mutex (that mutex is the
/// group-commit point).
class WalWriter {
 public:
  /// Opens `path` for appending, creating it if absent. With `truncate` the
  /// file starts empty — used when a rotation opens a fresh WAL generation,
  /// so a stale file left by an interrupted run cannot leak old frames under
  /// the new snapshot id.
  static Result<WalWriter> Open(std::string path, WalFlushPolicy policy,
                                uint32_t group_records, bool use_fsync,
                                bool truncate = false);

  WalWriter() = default;
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  ~WalWriter();

  /// Frames and appends one record, then applies the flush policy.
  /// FailPoint "wal.append" can fail or tear this write; "wal.sync" the
  /// flush. After a simulated crash every call returns IOError (fail-stop).
  Status Append(const WalRecord& record);

  /// Flushes buffered frames; with `sync` also fsyncs.
  Status Flush(bool sync);

  /// Flushes and closes the file. Safe to call twice.
  Status Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  uint64_t records_appended() const { return records_appended_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  WalFlushPolicy policy_ = WalFlushPolicy::kGroup;
  uint32_t group_records_ = 64;
  bool use_fsync_ = false;
  uint32_t unflushed_ = 0;
  uint64_t records_appended_ = 0;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;  // end of the last intact frame
  uint64_t total_bytes = 0;  // physical file size
  bool torn_tail = false;    // valid_bytes < total_bytes
};

/// Reads every intact frame of `path`. A malformed tail is reported via
/// `torn_tail`, not an error; only open/IO failures return non-OK.
Result<WalReadResult> ReadWal(const std::string& path);

/// Truncates `path` to `size` bytes (used to drop a torn tail before
/// resuming appends).
Status TruncateFile(const std::string& path, uint64_t size);

}  // namespace piggy
