#include "durability/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace piggy {

namespace {

constexpr uint64_t kMagic = 0x504E535947474950ULL;  // "PIGGYSNP" LE
constexpr size_t kEventBytes = 4 + 8 + 8;

// Streams a snapshot body to a file through a fixed-size buffer, extending
// the body CRC one chunk at a time. At most `limit` bytes reach the file
// (the torn-write failpoint keeps a prefix); the CRC covers every byte put.
class BodyWriter {
 public:
  BodyWriter(std::FILE* f, uint64_t limit)
      : f_(f), limit_(limit), buf_(new char[kChunk]) {}

  void Put(const void* data, size_t len) {
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
      const size_t n = std::min(len, kChunk - used_);
      std::memcpy(buf_.get() + used_, p, n);
      used_ += n;
      p += n;
      len -= n;
      if (used_ == kChunk) Drain(/*checksum=*/true);
    }
  }
  template <typename T>
  void PutValue(T v) {
    Put(&v, sizeof(v));
  }

  /// Writes the CRC trailer after the body; false if any write failed.
  bool Finish() {
    Drain(/*checksum=*/true);
    const uint32_t crc = crc_;
    std::memcpy(buf_.get(), &crc, sizeof(crc));
    used_ = sizeof(crc);
    Drain(/*checksum=*/false);
    return ok_;
  }

 private:
  static constexpr size_t kChunk = size_t{1} << 16;

  void Drain(bool checksum) {
    if (checksum) crc_ = Crc32(buf_.get(), used_, crc_);
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(used_, limit_ - written_));
    if (n > 0 && std::fwrite(buf_.get(), 1, n, f_) != n) ok_ = false;
    written_ += n;
    used_ = 0;
  }

  std::FILE* f_;
  uint64_t limit_;
  uint64_t written_ = 0;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;
  uint32_t crc_ = 0;
  bool ok_ = true;
};

void PutEvents(BodyWriter& w, const EventTuple* events, size_t n) {
  constexpr size_t kBatch = 512;  // events packed per Put
  char batch[kBatch * kEventBytes];
  while (n > 0) {
    const size_t k = std::min(n, kBatch);
    char* rec = batch;
    for (size_t i = 0; i < k; ++i, rec += kEventBytes) {
      std::memcpy(rec, &events[i].producer, 4);
      std::memcpy(rec + 4, &events[i].event_id, 8);
      std::memcpy(rec + 12, &events[i].timestamp, 8);
    }
    w.Put(batch, k * kEventBytes);
    events += k;
    n -= k;
  }
}

// Encodes `data`'s body (everything after the magic) plus the CRC trailer.
bool EncodeBody(const SnapshotData& data, const std::string& schedule,
                uint64_t event_count, std::FILE* f, uint64_t limit) {
  BodyWriter w(f, limit);
  w.PutValue<uint64_t>(data.id);
  w.PutValue<uint64_t>(data.next_seq);
  w.PutValue<uint64_t>(data.churn.size());
  for (const auto& [added, edge] : data.churn) {
    char rec[9];
    rec[0] = added ? 1 : 0;
    std::memcpy(rec + 1, &edge.src, 4);
    std::memcpy(rec + 5, &edge.dst, 4);
    w.Put(rec, sizeof(rec));
  }
  w.PutValue<uint64_t>(data.production.size());
  for (size_t i = 0; i < data.production.size(); ++i) {
    w.PutValue<double>(data.production[i]);
    w.PutValue<double>(data.consumption[i]);
  }
  w.PutValue<uint64_t>(schedule.size());
  w.Put(schedule.data(), schedule.size());
  w.PutValue<uint64_t>(event_count);
  PutEvents(w, data.events.data(), data.events.size());
  data.shared_events.ForEachRun([&w](const EventTuple* events, size_t n) {
    PutEvents(w, events, n);
  });
  return w.Finish();
}

// Sequential reader over a byte range; every Get checks bounds.
class Cursor {
 public:
  Cursor(const char* data, size_t size, const std::string& path)
      : data_(data), size_(size), path_(path) {}

  Status Get(void* out, size_t len) {
    PIGGY_RETURN_NOT_OK(Need(len));
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  Status Skip(size_t len) {
    PIGGY_RETURN_NOT_OK(Need(len));
    pos_ += len;
    return Status::OK();
  }
  Status GetU8(uint8_t* v) { return Get(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return Get(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return Get(v, sizeof(*v)); }
  Status GetF64(double* v) { return Get(v, sizeof(*v)); }

  const char* here() const { return data_ + pos_; }
  size_t pos() const { return pos_; }
  size_t size() const { return size_; }

 private:
  Status Need(size_t len) const {
    if (len > size_ - pos_) {
      return Status::IOError(
          StrFormat("%s: truncated snapshot at byte %zu (need %zu more bytes)",
                    path_.c_str(), pos_, len));
    }
    return Status::OK();
  }

  const char* data_;
  size_t size_;
  const std::string& path_;
  size_t pos_ = 0;
};

}  // namespace

Status WriteSnapshotFile(const SnapshotData& data, const std::string& path) {
  if (data.production.size() != data.consumption.size()) {
    return Status::InvalidArgument(
        "snapshot rate vectors differ in length: " + path);
  }
  const std::string& schedule = data.shared_schedule_text != nullptr
                                    ? *data.shared_schedule_text
                                    : data.schedule_text;
  const uint64_t event_count = data.events.size() + data.shared_events.size();
  // Body + CRC trailer, the part a torn write cuts in half.
  const uint64_t sealed_bytes = 3 * 8 + data.churn.size() * 9 + 8 +
                                data.production.size() * 16 + 8 +
                                schedule.size() + 8 + event_count * kEventBytes +
                                sizeof(uint32_t);

  const std::string tmp = path + ".tmp";
  switch (FailPointRegistry::Instance().Hit("snapshot.write")) {
    case FailPointAction::kOff:
      break;
    case FailPointAction::kError:
      return Status::IOError("injected snapshot write failure: " + path);
    case FailPointAction::kCrashHard:
      return Status::IOError("simulated crash before snapshot write: " + path);
    case FailPointAction::kCrashTornWrite: {
      // Leave a half-written temp file behind; recovery must ignore it.
      std::FILE* f = std::fopen(tmp.c_str(), "wb");
      if (f != nullptr) {
        std::fwrite(&kMagic, 1, sizeof(kMagic), f);
        EncodeBody(data, schedule, event_count, f, sealed_bytes / 2);
        std::fclose(f);
      }
      return Status::IOError("simulated crash mid snapshot write: " + path);
    }
  }

  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open snapshot temp file: " + tmp);
  }
  bool ok = std::fwrite(&kMagic, 1, sizeof(kMagic), f) == sizeof(kMagic) &&
            EncodeBody(data, schedule, event_count, f, sealed_bytes) &&
            std::fflush(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("snapshot write failed: " + tmp);
  }

  switch (FailPointRegistry::Instance().Hit("snapshot.rename")) {
    case FailPointAction::kOff:
      break;
    case FailPointAction::kError:
      std::remove(tmp.c_str());
      return Status::IOError("injected snapshot rename failure: " + path);
    case FailPointAction::kCrashHard:
    case FailPointAction::kCrashTornWrite:
      // Crash between write and rename: the temp file stays, the target is
      // untouched — recovery falls back to the previous snapshot.
      return Status::IOError("simulated crash before snapshot rename: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("snapshot rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open snapshot: " + path);
  }
  // One read into a buffer sized from the file; decoding runs in place.
  std::string buf;
  bool read_err = std::fseek(f, 0, SEEK_END) != 0;
  const long file_size = read_err ? -1 : std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    read_err = true;
  } else {
    buf.resize(static_cast<size_t>(file_size));
    read_err = std::fread(buf.data(), 1, buf.size(), f) != buf.size() ||
               std::ferror(f) != 0;
  }
  std::fclose(f);
  if (read_err) return Status::IOError("snapshot read failed: " + path);

  if (buf.size() < sizeof(uint64_t) + sizeof(uint32_t)) {
    return Status::IOError(
        StrFormat("%s: snapshot too short (%zu bytes)", path.c_str(),
                  buf.size()));
  }
  uint64_t magic;
  std::memcpy(&magic, buf.data(), sizeof(magic));
  if (magic != kMagic) {
    return Status::IOError("bad snapshot magic: " + path);
  }
  // CRC covers [magic end, crc start).
  const size_t body_end = buf.size() - sizeof(uint32_t);
  uint32_t stored_crc;
  std::memcpy(&stored_crc, buf.data() + body_end, sizeof(stored_crc));
  uint32_t actual_crc =
      Crc32(buf.data() + sizeof(magic), body_end - sizeof(magic));
  if (stored_crc != actual_crc) {
    return Status::IOError(
        StrFormat("%s: snapshot CRC mismatch (stored %08x, computed %08x)",
                  path.c_str(), stored_crc, actual_crc));
  }

  Cursor cur(buf.data() + sizeof(magic), body_end - sizeof(magic), path);
  SnapshotData data;
  PIGGY_RETURN_NOT_OK(cur.GetU64(&data.id));
  PIGGY_RETURN_NOT_OK(cur.GetU64(&data.next_seq));

  uint64_t churn_count = 0;
  PIGGY_RETURN_NOT_OK(cur.GetU64(&churn_count));
  if (churn_count > cur.size()) {  // cheap sanity bound before reserving
    return Status::IOError(
        StrFormat("%s: implausible churn count %llu", path.c_str(),
                  static_cast<unsigned long long>(churn_count)));
  }
  data.churn.reserve(churn_count);
  for (uint64_t i = 0; i < churn_count; ++i) {
    uint8_t added = 0;
    uint32_t src = 0, dst = 0;
    PIGGY_RETURN_NOT_OK(cur.GetU8(&added));
    PIGGY_RETURN_NOT_OK(cur.GetU32(&src));
    PIGGY_RETURN_NOT_OK(cur.GetU32(&dst));
    data.churn.emplace_back(added != 0, Edge{src, dst});
  }

  uint64_t rate_count = 0;
  PIGGY_RETURN_NOT_OK(cur.GetU64(&rate_count));
  if (rate_count > cur.size()) {
    return Status::IOError(
        StrFormat("%s: implausible rate count %llu", path.c_str(),
                  static_cast<unsigned long long>(rate_count)));
  }
  data.production.reserve(rate_count);
  data.consumption.reserve(rate_count);
  for (uint64_t i = 0; i < rate_count; ++i) {
    double rp = 0, rc = 0;
    PIGGY_RETURN_NOT_OK(cur.GetF64(&rp));
    PIGGY_RETURN_NOT_OK(cur.GetF64(&rc));
    data.production.push_back(rp);
    data.consumption.push_back(rc);
  }

  uint64_t schedule_len = 0;
  PIGGY_RETURN_NOT_OK(cur.GetU64(&schedule_len));
  if (schedule_len > cur.size() - cur.pos()) {
    return Status::IOError(
        StrFormat("%s: truncated schedule blob at byte %zu", path.c_str(),
                  cur.pos()));
  }
  data.schedule_text.assign(cur.here(), schedule_len);
  PIGGY_RETURN_NOT_OK(cur.Skip(schedule_len));

  uint64_t event_count = 0;
  PIGGY_RETURN_NOT_OK(cur.GetU64(&event_count));
  if (event_count > cur.size()) {
    return Status::IOError(
        StrFormat("%s: implausible event count %llu", path.c_str(),
                  static_cast<unsigned long long>(event_count)));
  }
  const char* rec = cur.here();
  PIGGY_RETURN_NOT_OK(cur.Skip(event_count * kEventBytes));
  data.events.resize(event_count);
  for (EventTuple& e : data.events) {
    std::memcpy(&e.producer, rec, 4);
    std::memcpy(&e.event_id, rec + 4, 8);
    std::memcpy(&e.timestamp, rec + 12, 8);
    rec += kEventBytes;
  }
  if (cur.pos() != cur.size()) {
    return Status::IOError(
        StrFormat("%s: %zu trailing bytes after snapshot body", path.c_str(),
                  cur.size() - cur.pos()));
  }
  return data;
}

}  // namespace piggy
