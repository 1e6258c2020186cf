// One data-store server holding materialized per-user views.
//
// Mirrors the paper's prototype (Sec. 4.3): memcached plus a thin server-side
// layer that aggregates and filters tuples on queries and trims views on
// insert. A view is a list of (producer, event id, timestamp) tuples — the
// event-stream *index*; rendering (texts, pictures) is out of scope exactly
// as in the paper.
//
// A capped view is a ring: it grows like a vector up to `view_capacity`
// events, then each write overwrites the oldest slot, so an in-order write
// is O(1) whatever the capacity (a late one moves only the newer events).
// Contents and counters are exactly those of "insert in sorted position,
// then drop the oldest".
//
// A query offers its views' records newest-first into the caller's
// NewestKMerge (store/newest_k_merge.h) under the server mutex, so no
// per-batch buffer is filled, sorted or copied out.
//
// Thread safety: each server guards its views, counters and query scratch
// with one internal mutex, so concurrent UpdateBatch / QueryBatchInto calls
// from many client threads are safe and contention is per-server (the fleet
// is the stripe set). Events may arrive slightly out of timestamp order under
// concurrency; UpdateBatch walks back from the newest slot to the sorted
// position (near the tail in practice).

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/u64_containers.h"

namespace piggy {

/// \brief The 24-byte event tuple of the paper's prototype.
struct EventTuple {
  NodeId producer = 0;
  uint64_t event_id = 0;
  uint64_t timestamp = 0;

  bool operator==(const EventTuple&) const = default;
};

/// Orders events newest-first (timestamp desc, then event id desc).
inline bool NewerThan(const EventTuple& a, const EventTuple& b) {
  if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
  return a.event_id > b.event_id;
}

/// \brief Per-server counters (message = one batched client request).
struct ServerMetrics {
  uint64_t update_messages = 0;  ///< batched update requests received
  uint64_t query_messages = 0;   ///< batched query requests received
  uint64_t view_writes = 0;      ///< individual view insertions
  uint64_t view_reads = 0;       ///< individual views scanned by queries
  uint64_t trimmed_events = 0;   ///< events dropped by capacity trimming
};

class NewestKMerge;

/// \brief In-memory view server.
class ViewStore {
 public:
  /// `view_capacity` caps events retained per view (0 = unbounded).
  explicit ViewStore(uint32_t server_id, size_t view_capacity = 128)
      : server_id_(server_id),
        view_capacity_(view_capacity),
        mu_(std::make_unique<std::mutex>()) {}

  uint32_t server_id() const { return server_id_; }

  /// Applies one batched update message: inserts `event` into every view in
  /// `views` (all hosted here). Events usually arrive in nondecreasing
  /// timestamp order; concurrent clients may invert neighbours, so the
  /// insert walks back from the tail to the sorted position. Into a full
  /// view the write replaces the oldest event, and an event older than the
  /// oldest is dropped (both count as trimmed).
  void UpdateBatch(std::span<const NodeId> views, const EventTuple& event);

  /// Applies one batched query message: offers `merge` the newest events of
  /// `views` whose producer appears in the sorted `interest` span, at most
  /// merge->capacity() records per view. The filter is what keeps a pull
  /// from a hub's view from leaking events of producers the querying user
  /// does not follow; AppClient passes the batch's keep set, the followed
  /// producers that can reach these views. A client merges every batch of
  /// a query into one buffer, so a batch only reads the records newer than
  /// what the earlier batches already kept.
  void QueryBatchInto(std::span<const NodeId> views, std::span<const NodeId> interest,
                      NewestKMerge* merge);

  /// Unfiltered batched query with no interest membership test. Only
  /// correct when the caller proved every producer that can appear in these
  /// views is interesting (see AppClient's schedule-implied membership
  /// precompute); the merge is then bit-identical to the filtered overload
  /// without touching the interest set at all.
  void QueryBatchInto(std::span<const NodeId> views, NewestKMerge* merge);

  /// The `k` newest events of one filtered batch (QueryBatchInto into an
  /// empty buffer).
  std::vector<EventTuple> QueryBatch(std::span<const NodeId> views,
                                     std::span<const NodeId> interest, size_t k);

  /// The `k` newest events of one unfiltered batch.
  std::vector<EventTuple> QueryBatch(std::span<const NodeId> views, size_t k);

  /// Direct read of a full view, oldest-first (tests / audits). Empty if
  /// absent.
  std::vector<EventTuple> ReadView(NodeId owner) const;

  size_t num_views() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return views_.size();
  }
  /// Snapshot of the counters (coherent: taken under the server mutex).
  ServerMetrics metrics() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return metrics_;
  }
  void ResetMetrics() {
    std::lock_guard<std::mutex> lock(*mu_);
    metrics_ = ServerMetrics{};
  }

 private:
  uint32_t server_id_;
  size_t view_capacity_;
  // One mutex per server: the fleet is the concurrency stripe set. Boxed so
  // ViewStore stays movable (the fleet lives in a std::vector).
  std::unique_ptr<std::mutex> mu_;
  // One view. Until it holds view_capacity_ events `slots` is sorted
  // oldest-first and `head` is 0; from then on it is a full ring whose
  // oldest event sits at slots[head] (logical event i at slots[(head + i) %
  // size]). Unbounded views never wrap.
  struct View {
    std::vector<EventTuple> slots;
    size_t head = 0;
  };
  void Write(View* view, const EventTuple& event);
  // Both QueryBatchInto overloads; `interest` is ignored unless `filtered`.
  void Query(std::span<const NodeId> views, std::span<const NodeId> interest,
             bool filtered, NewestKMerge* merge);

  U64Map<View> views_;
  ServerMetrics metrics_;
  // Interest-scan scratch reused across calls (guarded by mu_).
  std::vector<uint32_t> sel_;
};

/// Sorts `events` newest-first, drops duplicates and keeps the `k` newest, in
/// place (the buffer keeps its capacity). The sort-based oracle of stream
/// audits and tests; the serving path merges with NewestKMerge instead.
void KeepTopKNewest(std::vector<EventTuple>* events, size_t k);

/// KeepTopKNewest on a copy.
std::vector<EventTuple> TopKNewest(std::vector<EventTuple> events, size_t k);

}  // namespace piggy
