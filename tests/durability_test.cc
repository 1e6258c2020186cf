// Unit tests for the durability primitives: CRC32, WAL framing and torn-tail
// detection, snapshot round-trips and corruption rejection, FailPoint crash
// simulation, and the ShardDurability rotation/recovery cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "durability/durable_state.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "graph/graph_builder.h"
#include "store/event_log.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace piggy {
namespace {

constexpr size_t kFrameSize = 8 + 33;  // header + fixed payload

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().ClearAll();
    dir_ = std::filesystem::temp_directory_path() /
           ("piggy_dur_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointRegistry::Instance().ClearAll();
    std::filesystem::remove_all(dir_);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> recs;
  recs.push_back({WalRecordType::kShare, 7, 0, 101, 0, 0});
  recs.push_back({WalRecordType::kFollow, 3, 9, 0, 0, 0});
  recs.push_back({WalRecordType::kUnfollow, 3, 9, 0, 0, 0});
  recs.push_back({WalRecordType::kRateShift, 5, 0, 0, 2.5, 0.25});
  recs.push_back({WalRecordType::kReplanCommit, 0, 0, 0, 0, 0});
  recs.push_back({WalRecordType::kShare, 1, 0, 102, 0, 0});
  return recs;
}

Status WriteRecords(const std::string& path,
                    const std::vector<WalRecord>& recs,
                    WalFlushPolicy policy = WalFlushPolicy::kEveryRecord) {
  PIGGY_ASSIGN_OR_RETURN(WalWriter w, WalWriter::Open(path, policy, 4, false));
  for (const auto& r : recs) PIGGY_RETURN_NOT_OK(w.Append(r));
  return w.Close();
}

TEST(Crc32Test, KnownAnswer) {
  // The IEEE CRC-32 check value for the ASCII digits "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, Incremental) {
  uint32_t partial = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, partial), 0xCBF43926u);
}

// The byte-at-a-time table CRC the slice-by-8 version must reproduce exactly.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  constexpr size_t kMaxLen = 4096;
  std::vector<uint8_t> buf(kMaxLen + 8);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (size_t align = 0; align < 8; ++align) {
      const uint8_t* p = buf.data() + align;
      const uint32_t want = BytewiseCrc32(p, len);
      ASSERT_EQ(Crc32(p, len), want) << "len " << len << " align " << align;
      // Incremental form: any split point gives the same checksum.
      for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                           size_t{9}, len / 3, len / 2, len - len / 5}) {
        if (split > len) continue;
        ASSERT_EQ(Crc32(p + split, len - split, Crc32(p, split)), want)
            << "len " << len << " align " << align << " split " << split;
      }
    }
  }
}

TEST_F(DurabilityTest, WalRoundTrip) {
  auto recs = SampleRecords();
  ASSERT_TRUE(WriteRecords(Path("w.log"), recs).ok());
  auto read = ReadWal(Path("w.log")).ValueOrDie();
  EXPECT_EQ(read.records, recs);
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.valid_bytes, recs.size() * kFrameSize);
  EXPECT_EQ(read.total_bytes, read.valid_bytes);
}

TEST_F(DurabilityTest, WalGroupFlushPersistsOnClose) {
  auto recs = SampleRecords();
  // Groups of 4 against 6 records: the last 2 are flushed only by Close.
  ASSERT_TRUE(WriteRecords(Path("g.log"), recs, WalFlushPolicy::kGroup).ok());
  auto read = ReadWal(Path("g.log")).ValueOrDie();
  EXPECT_EQ(read.records, recs);
}

TEST_F(DurabilityTest, WalTornTailEveryBoundary) {
  auto recs = SampleRecords();
  ASSERT_TRUE(WriteRecords(Path("full.log"), recs).ok());
  std::ifstream in(Path("full.log"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), recs.size() * kFrameSize);

  // Truncate at every frame boundary and at every partial offset inside the
  // following frame: the intact prefix must survive byte-for-byte, the tail
  // must be flagged, and nothing past the cut may surface.
  for (size_t boundary = 0; boundary < recs.size(); ++boundary) {
    for (size_t extra : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{20}, kFrameSize - 1}) {
      size_t cut = boundary * kFrameSize + extra;
      if (cut >= bytes.size()) continue;
      std::string name = "cut_" + std::to_string(cut) + ".log";
      std::ofstream out(Path(name), std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
      out.close();
      auto read = ReadWal(Path(name)).ValueOrDie();
      ASSERT_EQ(read.records.size(), boundary) << "cut at " << cut;
      for (size_t i = 0; i < boundary; ++i) EXPECT_EQ(read.records[i], recs[i]);
      EXPECT_EQ(read.valid_bytes, boundary * kFrameSize);
      EXPECT_EQ(read.total_bytes, cut);
      EXPECT_EQ(read.torn_tail, extra != 0);
    }
  }
}

TEST_F(DurabilityTest, WalBitFlipStopsAtCorruptRecord) {
  auto recs = SampleRecords();
  ASSERT_TRUE(WriteRecords(Path("full.log"), recs).ok());
  std::ifstream in(Path("full.log"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Flip one payload byte in each record in turn: the reader must keep every
  // record before it and reject everything from the flipped record on (frame
  // sync is gone once one CRC fails).
  for (size_t victim = 0; victim < recs.size(); ++victim) {
    std::string corrupt = bytes;
    corrupt[victim * kFrameSize + 8 + 3] ^= 0x40;  // payload byte, not header
    std::string name = "flip_" + std::to_string(victim) + ".log";
    std::ofstream out(Path(name), std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    auto read = ReadWal(Path(name)).ValueOrDie();
    ASSERT_EQ(read.records.size(), victim);
    for (size_t i = 0; i < victim; ++i) EXPECT_EQ(read.records[i], recs[i]);
    EXPECT_TRUE(read.torn_tail);
    EXPECT_EQ(read.valid_bytes, victim * kFrameSize);
  }
}

TEST_F(DurabilityTest, WalFailPointError) {
  auto w = WalWriter::Open(Path("e.log"), WalFlushPolicy::kEveryRecord, 1,
                           false).MoveValueOrDie();
  ASSERT_TRUE(w.Append({WalRecordType::kShare, 1, 0, 1, 0, 0}).ok());
  FailPointRegistry::Instance().Arm("wal.append", FailPointAction::kError);
  Status s = w.Append({WalRecordType::kShare, 2, 0, 2, 0, 0});
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(FailPointRegistry::Instance().crashed());
  FailPointRegistry::Instance().Disarm("wal.append");
  // A plain error is transient: the next append goes through.
  ASSERT_TRUE(w.Append({WalRecordType::kShare, 3, 0, 3, 0, 0}).ok());
  ASSERT_TRUE(w.Close().ok());
  auto read = ReadWal(Path("e.log")).ValueOrDie();
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[1].user, 3u);
}

TEST_F(DurabilityTest, WalFailPointCrashHardIsFailStop) {
  auto w = WalWriter::Open(Path("c.log"), WalFlushPolicy::kEveryRecord, 1,
                           false).MoveValueOrDie();
  ASSERT_TRUE(w.Append({WalRecordType::kShare, 1, 0, 1, 0, 0}).ok());
  FailPointRegistry::Instance().Arm("wal.append", FailPointAction::kCrashHard);
  EXPECT_TRUE(w.Append({WalRecordType::kShare, 2, 0, 2, 0, 0}).IsIOError());
  EXPECT_TRUE(FailPointRegistry::Instance().crashed());
  // Fail-stop: every later append dies too, even with the point disarmed.
  EXPECT_TRUE(w.Append({WalRecordType::kShare, 3, 0, 3, 0, 0}).IsIOError());
  (void)w.Close();
  auto read = ReadWal(Path("c.log")).ValueOrDie();
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_FALSE(read.torn_tail);
}

TEST_F(DurabilityTest, WalFailPointTornWrite) {
  auto w = WalWriter::Open(Path("t.log"), WalFlushPolicy::kEveryRecord, 1,
                           false).MoveValueOrDie();
  ASSERT_TRUE(w.Append({WalRecordType::kShare, 1, 0, 1, 0, 0}).ok());
  FailPointRegistry::Instance().Arm("wal.append",
                                    FailPointAction::kCrashTornWrite);
  EXPECT_TRUE(w.Append({WalRecordType::kShare, 2, 0, 2, 0, 0}).IsIOError());
  (void)w.Close();
  auto read = ReadWal(Path("t.log")).ValueOrDie();
  ASSERT_EQ(read.records.size(), 1u);  // the torn frame must not decode
  EXPECT_TRUE(read.torn_tail);
  EXPECT_EQ(read.valid_bytes, kFrameSize);
  EXPECT_GT(read.total_bytes, read.valid_bytes);
  EXPECT_LT(read.total_bytes, 2 * kFrameSize);
}

SnapshotData SampleSnapshot() {
  SnapshotData d;
  d.id = 3;
  d.next_seq = 42;
  d.churn = {{true, {0, 4}}, {false, {2, 1}}};
  d.production = {0.5, 1.5, 2.5};
  d.consumption = {10.0, 20.0, 30.0};
  d.schedule_text = "fake schedule text\n";
  d.events = {{1, 7, 7}, {2, 9, 9}};
  return d;
}

TEST_F(DurabilityTest, SnapshotRoundTrip) {
  SnapshotData d = SampleSnapshot();
  ASSERT_TRUE(WriteSnapshotFile(d, Path("snap")).ok());
  SnapshotData back = ReadSnapshotFile(Path("snap")).ValueOrDie();
  EXPECT_EQ(back.id, d.id);
  EXPECT_EQ(back.next_seq, d.next_seq);
  EXPECT_EQ(back.churn, d.churn);
  EXPECT_EQ(back.production, d.production);
  EXPECT_EQ(back.consumption, d.consumption);
  EXPECT_EQ(back.schedule_text, d.schedule_text);
  EXPECT_EQ(back.events, d.events);
}

// A fixed snapshot whose encoding is pinned below.
SnapshotData PinnedSnapshot() {
  SnapshotData d;
  d.id = 7;
  d.next_seq = 123457;
  d.churn = {{true, {0, 4}}, {false, {2, 1}}, {true, {65536, 3}}};
  for (int i = 0; i < 5; ++i) {
    d.production.push_back(0.25 * (i + 1));
    d.consumption.push_back(1.5 + 3.0 * i);
  }
  d.schedule_text = "piggy-schedule v1\nnodes 5\npush 0 4\npull 2 1\n";
  for (uint32_t i = 0; i < 5000; ++i) {
    d.events.push_back({i % 97, 3ull * i + 1, 3ull * i + 1 + (i % 2)});
  }
  return d;
}

// FNV-1a 64 of a whole file.
uint64_t FileHash(const std::string& path, size_t* size) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  *size = bytes.size();
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST_F(DurabilityTest, SnapshotEncodingIsPinned) {
  // Size and hash of the file the original append-based encoder wrote for
  // PinnedSnapshot(): snapshots already on disk must stay readable, and
  // every encoder must reproduce them byte for byte.
  constexpr size_t kPinnedSize = 100211;
  constexpr uint64_t kPinnedHash = 0x0b41725a97536bc3ULL;
  const SnapshotData d = PinnedSnapshot();
  size_t size = 0;
  ASSERT_TRUE(WriteSnapshotFile(d, Path("owned")).ok());
  EXPECT_EQ(FileHash(Path("owned"), &size), kPinnedHash);
  EXPECT_EQ(size, kPinnedSize);

  // The shared forms a service's cut hands over encode the same bytes:
  // events split between the owned vector and a segmented view (sealed
  // segments + tail), the schedule text behind a shared pointer.
  SnapshotData shared = d;
  shared.events.assign(d.events.begin(), d.events.begin() + 100);
  SegmentedEventLog log;
  for (size_t i = 100; i < d.events.size(); ++i) log.Insert(d.events[i]);
  shared.shared_events = log.Snapshot();
  ASSERT_NE(shared.shared_events.sealed, nullptr);
  shared.shared_schedule_text =
      std::make_shared<const std::string>(d.schedule_text);
  shared.schedule_text = "ignored when the shared text is set";
  ASSERT_TRUE(WriteSnapshotFile(shared, Path("shared")).ok());
  EXPECT_EQ(FileHash(Path("shared"), &size), kPinnedHash);
  EXPECT_EQ(size, kPinnedSize);

  SnapshotData back = ReadSnapshotFile(Path("shared")).ValueOrDie();
  EXPECT_EQ(back.events, d.events);
  EXPECT_EQ(back.schedule_text, d.schedule_text);
  EXPECT_EQ(back.churn, d.churn);
}

TEST_F(DurabilityTest, SnapshotCorruptionRejected) {
  ASSERT_TRUE(WriteSnapshotFile(SampleSnapshot(), Path("snap")).ok());
  std::ifstream in(Path("snap"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Flip one byte anywhere after the magic: the CRC must catch it.
  for (size_t pos : {size_t{8}, size_t{16}, bytes.size() / 2,
                     bytes.size() - 5}) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x01;
    std::ofstream out(Path("bad"), std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    auto r = ReadSnapshotFile(Path("bad"));
    EXPECT_TRUE(r.status().IsIOError()) << "flip at " << pos;
  }
  // Truncation at any point is rejected too.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{12}, bytes.size() - 1}) {
    std::ofstream out(Path("short"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(ReadSnapshotFile(Path("short")).ok()) << "cut at " << cut;
  }
}

TEST_F(DurabilityTest, SnapshotWriteCrashLeavesPredecessorIntact) {
  SnapshotData first = SampleSnapshot();
  ASSERT_TRUE(WriteSnapshotFile(first, Path("snap")).ok());
  SnapshotData second = SampleSnapshot();
  second.id = 4;
  second.next_seq = 99;
  auto& fp = FailPointRegistry::Instance();
  for (const char* point : {"snapshot.write", "snapshot.rename"}) {
    fp.ClearAll();
    fp.Arm(point, FailPointAction::kCrashHard);
    EXPECT_TRUE(WriteSnapshotFile(second, Path("snap")).IsIOError()) << point;
    fp.ClearAll();
    SnapshotData back = ReadSnapshotFile(Path("snap")).ValueOrDie();
    EXPECT_EQ(back.id, first.id) << point;
  }
  // Torn write mid-snapshot: the temp file is garbage, the target untouched.
  fp.Arm("snapshot.write", FailPointAction::kCrashTornWrite);
  EXPECT_TRUE(WriteSnapshotFile(second, Path("snap")).IsIOError());
  fp.ClearAll();
  EXPECT_EQ(ReadSnapshotFile(Path("snap")).ValueOrDie().id, first.id);
}

Graph TinyGraph() {
  // 0 -> {1, 2}, 3 -> {0}; node 4 isolated.
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(3, 0);
  return std::move(b).Build().ValueOrDie();
}

DurabilityOptions Opts(const std::string& dir) {
  DurabilityOptions o;
  o.data_dir = dir;
  o.flush = WalFlushPolicy::kEveryRecord;
  return o;
}

SnapshotData EmptySnapshot() {
  SnapshotData d;
  d.production = {1, 1, 1, 1, 1};
  d.consumption = {1, 1, 1, 1, 1};
  return d;
}

TEST_F(DurabilityTest, ShardDurabilityCycle) {
  Graph g = TinyGraph();
  {
    auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 0
    ASSERT_TRUE(d->LogShare(0, 1).ok());
    ASSERT_TRUE(d->LogChurn(true, 1, 2).ok());  // 2 follows 1
    ASSERT_TRUE(d->LogRateShift(3, 5.0, 0.5).ok());
    EXPECT_EQ(d->records_since_snapshot(), 3u);
    SnapshotData s1 = EmptySnapshot();
    s1.events = {{0, 1, 1}};
    ASSERT_TRUE(d->WriteSnapshot(std::move(s1)).ok());  // rotate to pair 1
    EXPECT_EQ(d->records_since_snapshot(), 0u);
    ASSERT_TRUE(d->LogShare(3, 2).ok());
    ASSERT_TRUE(d->LogReplanCommit().ok());
  }

  auto d = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.base_graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(rec.base_graph.num_edges(), g.num_edges());
  EXPECT_EQ(rec.snapshot.id, 1u);
  // The snapshot folds the pre-rotation churn into its delta...
  ASSERT_EQ(rec.snapshot.churn.size(), 1u);
  EXPECT_TRUE(rec.snapshot.churn[0].first);
  EXPECT_EQ(rec.snapshot.churn[0].second, (Edge{1, 2}));
  ASSERT_EQ(rec.snapshot.events.size(), 1u);
  // ...and the WAL tail holds exactly the post-rotation records.
  ASSERT_EQ(rec.wal_records.size(), 2u);
  EXPECT_EQ(rec.wal_records[0].type, WalRecordType::kShare);
  EXPECT_EQ(rec.wal_records[0].user, 3u);
  EXPECT_EQ(rec.wal_records[1].type, WalRecordType::kReplanCommit);
  EXPECT_FALSE(rec.torn_tail);

  // After ResumeAppending the pair accepts new records...
  ASSERT_TRUE(d->ResumeAppending().ok());
  ASSERT_TRUE(d->LogShare(1, 3).ok());
  // ...and a second recovery sees old + new tail records.
  auto d2 = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  d.reset();  // close the writer before re-reading
  auto rec2 = d2->Recover().MoveValueOrDie();
  ASSERT_EQ(rec2.wal_records.size(), 3u);
  EXPECT_EQ(rec2.wal_records[2].user, 1u);
}

TEST_F(DurabilityTest, ShardDurabilityDropsTornTailOnResume) {
  Graph g = TinyGraph();
  {
    auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());
    ASSERT_TRUE(d->LogShare(0, 1).ok());
    FailPointRegistry::Instance().Arm("wal.append",
                                      FailPointAction::kCrashTornWrite);
    EXPECT_TRUE(d->LogShare(0, 2).IsIOError());
  }
  FailPointRegistry::Instance().ClearAll();

  auto d = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d->Recover().MoveValueOrDie();
  ASSERT_EQ(rec.wal_records.size(), 1u);
  EXPECT_TRUE(rec.torn_tail);
  ASSERT_TRUE(d->ResumeAppending().ok());
  ASSERT_TRUE(d->LogShare(0, 2).ok());
  d.reset();

  // The resumed log is clean: the torn frame was truncated away before the
  // new append, so a fresh read sees two intact records and no tear.
  auto d2 = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec2 = d2->Recover().MoveValueOrDie();
  ASSERT_EQ(rec2.wal_records.size(), 2u);
  EXPECT_FALSE(rec2.torn_tail);
  EXPECT_EQ(rec2.wal_records[1].seq, 2u);
}

TEST_F(DurabilityTest, ReadWalReportsReadErrors) {
  // A directory opens fine but every fread fails (EISDIR): that is an I/O
  // error, not an empty log — reporting it as a (zero-record) torn tail
  // would let ResumeAppending truncate acked records that are intact.
  std::filesystem::create_directories(Path("not_a_file"));
  auto r = ReadWal(Path("not_a_file"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

TEST_F(DurabilityTest, CreateRefusesExistingDurableState) {
  Graph g = TinyGraph();
  {
    auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());
    ASSERT_TRUE(d->LogShare(0, 1).ok());
  }
  // A second Create on the same dir must refuse rather than append to the
  // old WAL / leave stale higher-id snapshots for recovery to prefer.
  auto again = ShardDurability::Create(Opts(Path("shard")), g);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition())
      << again.status().ToString();
  // The refused dir is untouched: recovery still sees the first run intact.
  auto d = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.snapshot.id, 0u);
  ASSERT_EQ(rec.wal_records.size(), 1u);
  EXPECT_EQ(rec.wal_records[0].seq, 1u);
}

TEST_F(DurabilityTest, FailedRotationKeepsWalAppendable) {
  Graph g = TinyGraph();
  auto& fp = FailPointRegistry::Instance();
  {
    auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 0
    ASSERT_TRUE(d->LogShare(0, 1).ok());
    // A transient snapshot failure must not close the WAL: appends continue
    // and the rotation can be retried.
    for (const char* point : {"snapshot.write", "snapshot.rename"}) {
      fp.Arm(point, FailPointAction::kError);
      EXPECT_TRUE(d->WriteSnapshot(EmptySnapshot()).IsIOError()) << point;
      fp.Disarm(point);
      ASSERT_TRUE(d->LogShare(0, 2).ok()) << point;
      EXPECT_TRUE(d->LogChurn(false, 0, 1).ok()) << point;
    }
    EXPECT_EQ(d->records_since_snapshot(), 5u);
  }
  fp.ClearAll();
  // Nothing acked between the failed rotations was lost: recovery falls
  // back on snapshot 0 and replays every record from wal-0.
  auto d = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.snapshot.id, 0u);
  ASSERT_EQ(rec.wal_records.size(), 5u);
  EXPECT_EQ(rec.wal_records[0].seq, 1u);
  EXPECT_FALSE(rec.torn_tail);
  // And the retried rotation goes through once the fault clears.
  ASSERT_TRUE(d->ResumeAppending().ok());
  ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());
  ASSERT_TRUE(d->LogShare(0, 3).ok());
  EXPECT_EQ(d->records_since_snapshot(), 1u);
}

TEST_F(DurabilityTest, RotationTruncatesStaleWalFile) {
  Graph g = TinyGraph();
  auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
  ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 0, wal-0
  // Plant a stale wal-1 (as an interrupted earlier rotation could): the next
  // rotation must start wal-1 empty, not append after the stale frames.
  ASSERT_TRUE(WriteRecords(Path("shard") + "/wal-000001.log",
                           {{WalRecordType::kShare, 9, 0, 999, 0, 0}})
                  .ok());
  ASSERT_TRUE(d->LogShare(0, 1).ok());
  ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // rotates to pair 1
  ASSERT_TRUE(d->LogShare(0, 2).ok());
  d.reset();

  auto d2 = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d2->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.snapshot.id, 1u);
  ASSERT_EQ(rec.wal_records.size(), 1u);
  EXPECT_EQ(rec.wal_records[0].seq, 2u);  // the stale seq-999 frame is gone
}

TEST_F(DurabilityTest, ShardDurabilityFallsBackToOlderSnapshot) {
  Graph g = TinyGraph();
  {
    auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 0
    ASSERT_TRUE(d->LogShare(0, 1).ok());
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 1
    ASSERT_TRUE(d->LogShare(0, 2).ok());
  }
  // Corrupt the newest snapshot: recovery must fall back to snapshot 0 and
  // replay both WALs (wal-0 then wal-1) to cover the gap.
  {
    std::fstream f(Path("shard") + "/snapshot-000001",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }
  auto d = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.snapshot.id, 0u);
  ASSERT_EQ(rec.wal_records.size(), 2u);
  EXPECT_EQ(rec.wal_records[0].seq, 1u);
  EXPECT_EQ(rec.wal_records[1].seq, 2u);
}

// Which snapshot / WAL ids are on disk.
std::vector<uint64_t> Ids(const std::string& dir, const std::string& prefix,
                          const std::string& suffix) {
  std::vector<uint64_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0 ||
        name.find(".tmp") != std::string::npos) {
      continue;
    }
    ids.push_back(std::stoull(name.substr(prefix.size())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(DurabilityTest, CutWithoutPublishRecoversFromTwoWals) {
  Graph g = TinyGraph();
  {
    auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 0
    ASSERT_TRUE(d->LogShare(0, 1).ok());
    ASSERT_TRUE(d->LogChurn(true, 1, 2).ok());
    // The cut rotates to wal-1 at once; the publish never happens (the
    // process dies first).
    ShardDurability::Cut cut = d->CutSnapshot(EmptySnapshot()).MoveValueOrDie();
    EXPECT_EQ(cut.data.id, 1u);
    EXPECT_EQ(cut.records, 2u);
    ASSERT_EQ(cut.data.churn.size(), 1u);
    ASSERT_TRUE(d->LogShare(3, 2).ok());
    // Until a publish lands, the count runs from snapshot 0's cut.
    EXPECT_EQ(d->records_since_snapshot(), 3u);
  }
  EXPECT_EQ(Ids(Path("shard"), "snapshot-", ""), (std::vector<uint64_t>{0}));
  EXPECT_EQ(Ids(Path("shard"), "wal-", ".log"), (std::vector<uint64_t>{0, 1}));
  auto d = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.snapshot.id, 0u);
  ASSERT_EQ(rec.wal_records.size(), 3u);
  EXPECT_EQ(rec.wal_records[0].seq, 1u);
  EXPECT_EQ(rec.wal_records[1].type, WalRecordType::kFollow);
  EXPECT_EQ(rec.wal_records[2].seq, 2u);
  EXPECT_FALSE(rec.torn_tail);
}

TEST_F(DurabilityTest, PublishAfterCutCountsFromTheCut) {
  Graph g = TinyGraph();
  auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
  ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());
  for (uint64_t seq = 1; seq <= 4; ++seq) ASSERT_TRUE(d->LogShare(0, seq).ok());
  ShardDurability::Cut cut = d->CutSnapshot(EmptySnapshot()).MoveValueOrDie();
  // Appends keep flowing to wal-1 between the cut and the publish.
  ASSERT_TRUE(d->LogShare(0, 5).ok());
  ASSERT_TRUE(d->LogShare(0, 6).ok());
  EXPECT_EQ(d->records_since_snapshot(), 6u);
  ASSERT_TRUE(d->PublishSnapshot(std::move(cut)).ok());
  EXPECT_EQ(d->records_since_snapshot(), 2u);
  d.reset();

  auto d2 = ShardDurability::Open(Opts(Path("shard"))).MoveValueOrDie();
  auto rec = d2->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.snapshot.id, 1u);
  ASSERT_EQ(rec.wal_records.size(), 2u);
  EXPECT_EQ(rec.wal_records[0].seq, 5u);
}

TEST_F(DurabilityTest, SupersededCutIsDropped) {
  Graph g = TinyGraph();
  auto d = ShardDurability::Create(Opts(Path("shard")), g).MoveValueOrDie();
  ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());
  ASSERT_TRUE(d->LogShare(0, 1).ok());
  ShardDurability::Cut older = d->CutSnapshot(EmptySnapshot()).MoveValueOrDie();
  ASSERT_TRUE(d->LogShare(0, 2).ok());
  ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 2
  // Publishing the older cut now would put a stale snapshot-1 on disk.
  ASSERT_TRUE(d->PublishSnapshot(std::move(older)).ok());
  EXPECT_EQ(Ids(Path("shard"), "snapshot-", ""), (std::vector<uint64_t>{0, 2}));
  EXPECT_EQ(d->records_since_snapshot(), 0u);
}

TEST_F(DurabilityTest, FailedPublishNeverPrunesWal) {
  Graph g = TinyGraph();
  auto& fp = FailPointRegistry::Instance();
  const std::string dir = Path("shard");
  {
    auto d = ShardDurability::Create(Opts(dir), g).MoveValueOrDie();
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 0
    ASSERT_TRUE(d->LogShare(0, 1).ok());
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 1
    ASSERT_TRUE(d->LogShare(0, 2).ok());
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());  // snapshot 2
    EXPECT_EQ(Ids(dir, "snapshot-", ""), (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(Ids(dir, "wal-", ".log"), (std::vector<uint64_t>{1, 2}));
    ASSERT_TRUE(d->LogShare(0, 3).ok());
    for (const char* point : {"snapshot.write", "snapshot.rename"}) {
      fp.Arm(point, FailPointAction::kError);
      EXPECT_TRUE(d->WriteSnapshot(EmptySnapshot()).IsIOError()) << point;
      fp.Disarm(point);
      // Cut 3 and 4 rotated the WAL, but nothing was pruned.
      EXPECT_EQ(Ids(dir, "snapshot-", ""), (std::vector<uint64_t>{1, 2}));
      ASSERT_TRUE(d->LogShare(0, 4).ok());
    }
    EXPECT_EQ(Ids(dir, "wal-", ".log"), (std::vector<uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(d->records_since_snapshot(), 3u);
    // The retry publishes snapshot 5; snapshot 2 is the previous published
    // one, so it and every WAL from it on stay.
    ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());
    EXPECT_EQ(Ids(dir, "snapshot-", ""), (std::vector<uint64_t>{2, 5}));
    EXPECT_EQ(Ids(dir, "wal-", ".log"), (std::vector<uint64_t>{2, 3, 4, 5}));
    ASSERT_TRUE(d->LogShare(0, 5).ok());
  }
  // Snapshot 5 torn: the fallback to snapshot 2 replays wal-2 .. wal-5.
  {
    std::fstream f(dir + "/snapshot-000005",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }
  auto d = ShardDurability::Open(Opts(dir)).MoveValueOrDie();
  auto rec = d->Recover().MoveValueOrDie();
  EXPECT_EQ(rec.snapshot.id, 2u);
  EXPECT_TRUE(rec.fallback);
  std::vector<uint64_t> seqs;
  for (const WalRecord& r : rec.wal_records) seqs.push_back(r.seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{3, 4, 4, 5}));
}

TEST_F(DurabilityTest, RetentionKeepsTwoPublishedSnapshots) {
  Graph g = TinyGraph();
  const std::string dir = Path("shard");
  auto d = ShardDurability::Create(Opts(dir), g).MoveValueOrDie();
  ASSERT_TRUE(d->WriteSnapshot(EmptySnapshot()).ok());
  for (uint64_t round = 1; round <= 12; ++round) {
    ASSERT_TRUE(d->LogShare(0, round).ok());
    ShardDurability::Cut cut = d->CutSnapshot(EmptySnapshot()).MoveValueOrDie();
    ASSERT_TRUE(d->LogShare(1, round).ok());
    ASSERT_TRUE(d->PublishSnapshot(std::move(cut)).ok());
    EXPECT_EQ(Ids(dir, "snapshot-", ""),
              (std::vector<uint64_t>{round - 1, round}));
    EXPECT_EQ(Ids(dir, "wal-", ".log"),
              (std::vector<uint64_t>{round - 1, round}));
  }
}

}  // namespace
}  // namespace piggy
