#include "durability/wal.h"

#include <unistd.h>

#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace piggy {

namespace {

constexpr size_t kPayloadSize = 33;  // u8 + 2*u32 + u64 + 2*f64
constexpr size_t kFrameHeaderSize = 8;  // u32 len + u32 crc

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutF64(uint8_t* p, double v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
double GetF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void EncodePayload(const WalRecord& r, uint8_t out[kPayloadSize]) {
  out[0] = static_cast<uint8_t>(r.type);
  PutU32(out + 1, r.user);
  PutU32(out + 5, r.producer);
  PutU64(out + 9, r.seq);
  PutF64(out + 17, r.rp);
  PutF64(out + 25, r.rc);
}

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(WalRecordType::kShare) &&
         t <= static_cast<uint8_t>(WalRecordType::kMigrationCommit);
}

}  // namespace

Result<WalWriter> WalWriter::Open(std::string path, WalFlushPolicy policy,
                                  uint32_t group_records, bool use_fsync,
                                  bool truncate) {
  std::FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open WAL for append: " + path);
  }
  WalWriter w;
  w.path_ = std::move(path);
  w.file_ = f;
  w.policy_ = policy;
  w.group_records_ = group_records == 0 ? 1 : group_records;
  w.use_fsync_ = use_fsync;
  return w;
}

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = std::exchange(other.file_, nullptr);
    policy_ = other.policy_;
    group_records_ = other.group_records_;
    use_fsync_ = other.use_fsync_;
    unflushed_ = other.unflushed_;
    records_appended_ = other.records_appended_;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

Status WalWriter::Append(const WalRecord& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL writer is closed: " + path_);
  }
  uint8_t frame[kFrameHeaderSize + kPayloadSize];
  EncodePayload(record, frame + kFrameHeaderSize);
  PutU32(frame, static_cast<uint32_t>(kPayloadSize));
  PutU32(frame + 4, Crc32(frame + kFrameHeaderSize, kPayloadSize));

  switch (FailPointRegistry::Instance().Hit("wal.append")) {
    case FailPointAction::kOff:
      break;
    case FailPointAction::kError:
      return Status::IOError("injected WAL append failure: " + path_);
    case FailPointAction::kCrashHard:
      return Status::IOError("simulated crash before WAL append: " + path_);
    case FailPointAction::kCrashTornWrite: {
      // Persist a strict prefix of the frame (half the payload) so the tail
      // is torn, then report the crash. The flush makes the torn bytes real.
      size_t partial = kFrameHeaderSize + kPayloadSize / 2;
      std::fwrite(frame, 1, partial, file_);
      std::fflush(file_);
      return Status::IOError("simulated crash mid WAL append: " + path_);
    }
  }

  if (std::fwrite(frame, 1, sizeof(frame), file_) != sizeof(frame)) {
    return Status::IOError("WAL append failed: " + path_);
  }
  ++records_appended_;
  ++unflushed_;
  switch (policy_) {
    case WalFlushPolicy::kEveryRecord:
      return Flush(use_fsync_);
    case WalFlushPolicy::kGroup:
      if (unflushed_ >= group_records_) return Flush(use_fsync_);
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::Flush(bool sync) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL writer is closed: " + path_);
  }
  switch (FailPointRegistry::Instance().Hit("wal.sync")) {
    case FailPointAction::kOff:
      break;
    case FailPointAction::kError:
      return Status::IOError("injected WAL flush failure: " + path_);
    case FailPointAction::kCrashHard:
    case FailPointAction::kCrashTornWrite:
      return Status::IOError("simulated crash before WAL flush: " + path_);
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("WAL flush failed: " + path_);
  }
  if (sync && fsync(fileno(file_)) != 0) {
    return Status::IOError("WAL fsync failed: " + path_);
  }
  unflushed_ = 0;
  return Status::OK();
}

Status WalWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  Status flush = Flush(use_fsync_);
  int rc = std::fclose(file_);
  file_ = nullptr;
  PIGGY_RETURN_NOT_OK(flush);
  if (rc != 0) return Status::IOError("WAL close failed: " + path_);
  return Status::OK();
}

Result<WalReadResult> ReadWal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open WAL for read: " + path);
  }
  WalReadResult result;
  uint8_t header[kFrameHeaderSize];
  uint8_t payload[kPayloadSize];
  for (;;) {
    size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0) break;           // clean EOF at a frame boundary
    if (got < sizeof(header)) break;  // torn header
    uint32_t len = GetU32(header);
    uint32_t crc = GetU32(header + 4);
    if (len != kPayloadSize) break;  // impossible length: corrupt frame
    got = std::fread(payload, 1, kPayloadSize, f);
    if (got < kPayloadSize) break;  // torn payload
    if (Crc32(payload, kPayloadSize) != crc) break;
    if (!ValidType(payload[0])) break;
    WalRecord r;
    r.type = static_cast<WalRecordType>(payload[0]);
    r.user = GetU32(payload + 1);
    r.producer = GetU32(payload + 5);
    r.seq = GetU64(payload + 9);
    r.rp = GetF64(payload + 17);
    r.rc = GetF64(payload + 25);
    result.records.push_back(r);
    result.valid_bytes += kFrameHeaderSize + kPayloadSize;
  }
  // A short read caused by an I/O error is NOT a torn tail: reporting it as
  // one would let ResumeAppending truncate away acked records that are intact
  // on disk. Surface it as a retryable error instead.
  if (std::ferror(f)) {
    std::fclose(f);
    return Status::IOError("WAL read failed: " + path);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("WAL seek failed: " + path);
  }
  long end = std::ftell(f);
  std::fclose(f);
  if (end < 0) return Status::IOError("WAL size query failed: " + path);
  result.total_bytes = static_cast<uint64_t>(end);
  result.torn_tail = result.valid_bytes < result.total_bytes;
  return result;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IOError(
        StrFormat("truncate to %llu bytes failed: %s",
                  static_cast<unsigned long long>(size), path.c_str()));
  }
  return Status::OK();
}

}  // namespace piggy
