// The audit event log as immutable sealed segments plus a short mutable
// tail.
//
// Prototype keeps every shared event in (timestamp, event id) order. A
// durable service captures that log at every WAL rotation, under its
// exclusive lock, so the capture must not cost O(history). Here the log is
// a list of sealed segments — each a vector of kSegmentEvents events that
// is never written again — plus a tail that takes new events. Snapshot()
// costs one shared_ptr copy and a copy of the tail, whatever the history
// length, and the View it returns stays valid and unchanged while the log
// keeps growing.
//
// Sealing a full tail copies the list of segment pointers (once every
// kSegmentEvents events). A late event that sorts before the tail — a
// cluster writer delivering an externally sequenced share slightly out of
// order — lands in a sealed segment by copy-on-write: the segment and the
// list are copied, so Views taken earlier never see it.
//
// Not thread-safe: Prototype guards its log with its own mutex. Views are
// immutable and may be read from any thread.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "store/view_store.h"

namespace piggy {

class SegmentedEventLog {
 public:
  static constexpr size_t kSegmentEvents = 2048;
  using Segment = std::vector<EventTuple>;
  using SegmentList = std::vector<std::shared_ptr<const Segment>>;

  /// A point-in-time copy of the log that shares the sealed segments.
  struct View {
    std::shared_ptr<const SegmentList> sealed;  // may be null (no segments)
    size_t sealed_events = 0;
    Segment tail;

    size_t size() const { return sealed_events + tail.size(); }
    /// Calls fn(const EventTuple* events, size_t count) for each run of
    /// contiguous events, in log order.
    template <typename Fn>
    void ForEachRun(Fn&& fn) const {
      if (sealed != nullptr) {
        for (const auto& seg : *sealed) fn(seg->data(), seg->size());
      }
      if (!tail.empty()) fn(tail.data(), tail.size());
    }
    std::vector<EventTuple> Flatten() const;
  };

  /// Inserts `e` at its (timestamp, event id) position, walking back from
  /// the newest event (the common case appends).
  void Insert(const EventTuple& e);

  /// Replaces the contents with `events` (already in log order).
  void Assign(const std::vector<EventTuple>& events);

  View Snapshot() const { return View{sealed_, sealed_events_, tail_}; }
  size_t size() const { return sealed_events_ + tail_.size(); }
  bool empty() const { return size() == 0; }

 private:
  /// Moves the full tail into a new sealed segment.
  void SealTail();
  /// Copy-on-write insert into the sealed segments (e sorts before the
  /// tail).
  void InsertSealed(const EventTuple& e);

  std::shared_ptr<const SegmentList> sealed_;
  Segment tail_;
  size_t sealed_events_ = 0;
};

}  // namespace piggy
