// Point-in-time snapshots of a shard's serving state.
//
// A snapshot captures everything recovery needs to rebuild a FeedService
// without replanning from scratch: the graph churn delta since the base
// graph, the per-user workload rates, the active schedule (serialized via
// schedule_io, so the same footer-checked format guards against torn
// embeds), and the prototype's event log. Binary layout, little-endian:
//
//   u64 magic "PIGGYSNP"            (identifies the file)
//   u64 id                          (monotone snapshot number)
//   u64 next_seq                    (cluster share sequence; 0 for shards)
//   u64 churn_count, then churn_count x (u8 added, u32 src, u32 dst)
//   u64 rate_count,  then rate_count  x (f64 production, f64 consumption)
//   u64 schedule_len, then schedule_len bytes of SerializeSchedule text
//   u64 event_count, then event_count x (u32 producer, u64 id, u64 ts)
//   u32 crc32 of every byte after the magic
//
// Snapshots are written to a temp file and renamed into place, so a crash
// mid-write leaves the previous snapshot intact; the trailing CRC rejects a
// snapshot whose rename survived but whose data did not. FailPoints
// "snapshot.write" and "snapshot.rename" cover both windows.
//
// The writer streams the body through a fixed-size buffer with an
// incremental CRC, so encoding a large event log never materializes the
// file in memory; the reader decodes in place from one read of the file.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "store/event_log.h"
#include "store/view_store.h"
#include "util/status.h"

namespace piggy {

struct SnapshotData {
  uint64_t id = 0;
  uint64_t next_seq = 0;
  // Cumulative churn since the base graph, one entry per edge whose latest
  // state differs from base: true = added, false = removed.
  std::vector<std::pair<bool, Edge>> churn;
  std::vector<double> production;
  std::vector<double> consumption;
  std::string schedule_text;  // SerializeSchedule output; may be empty
  std::vector<EventTuple> events;

  // Shared forms of the two large fields, which let a service hand its
  // state to a background writer without copying it. When set,
  // `shared_schedule_text` is written instead of `schedule_text`, and the
  // events of `shared_events` are written after `events`. Readers always
  // fill the owned fields.
  std::shared_ptr<const std::string> shared_schedule_text;
  SegmentedEventLog::View shared_events;
};

/// Writes `data` to `path` atomically (temp file + rename).
Status WriteSnapshotFile(const SnapshotData& data, const std::string& path);

/// Reads and validates a snapshot. CRC/format violations return IOError.
Result<SnapshotData> ReadSnapshotFile(const std::string& path);

}  // namespace piggy
