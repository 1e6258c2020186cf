// NewestKMerge: the bounded newest-first feed merge of every query path.
//
// A feed is the k newest distinct events across many sources that are each
// already sorted: the view rings of every server a query reaches, and on the
// cluster router the shard-local feed (newest-first), every remote push
// replica and every pulled producer history (both ascending). Rather than
// collecting every candidate and sorting, a query keeps one buffer of at
// most k events ordered by NewerThan and walks each source from its newest
// end. Once the buffer is full, a source stops at its first event that is
// not newer than the buffer's oldest: everything behind it in that source
// is older still. The same event can reach the buffer from several sources
// (two hubs' views both storing a producer's event); it is kept once. The
// buffer therefore equals TopKNewest of everything offered, and the work
// per query follows (sources + k), not the candidate count.
//
//   NewestKMerge merge(k, std::move(local_feed));  // already newest-first
//   merge.OfferAscending(replica_seqs, producer);
//   std::vector<EventTuple> feed = std::move(merge).Take();
//
// Not thread-safe: one merge per query. Callers keep any lock that guards a
// source held while offering it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "store/view_store.h"
#include "util/logging.h"

namespace piggy {

/// \brief Keeps the k newest distinct events offered, newest first.
class NewestKMerge {
 public:
  explicit NewestKMerge(size_t k) : k_(k) { events_.reserve(k); }

  /// Starts from `sorted`, which must already be a merge result: at most k
  /// events, newest first, no repeats (a feed another merge returned). Its
  /// buffer becomes this merge's buffer.
  NewestKMerge(size_t k, std::vector<EventTuple> sorted)
      : k_(k), events_(std::move(sorted)) {
    PIGGY_CHECK_LE(events_.size(), k_);
    events_.reserve(k);
  }

  size_t capacity() const { return k_; }
  bool full() const { return events_.size() == k_; }

  /// Whether Offer(e) would change the buffer or repeat a kept event: true
  /// while the buffer has room, then only for events newer than its oldest.
  bool Admits(const EventTuple& e) const {
    return !full() || (k_ > 0 && NewerThan(e, events_.back()));
  }

  /// Offers one event. Returns false, keeping nothing, when the buffer is
  /// full and `e` is not newer than its oldest event: a caller walking a
  /// source newest-first stops there. An event equal to a kept one is
  /// dropped and the walk goes on (returns true).
  bool Offer(const EventTuple& e) {
    if (!Admits(e)) return false;
    size_t pos = events_.size();
    while (pos > 0 && NewerThan(e, events_[pos - 1])) --pos;
    if (pos > 0 && events_[pos - 1] == e) return true;
    if (full()) events_.pop_back();
    events_.insert(events_.begin() + static_cast<std::ptrdiff_t>(pos), e);
    return true;
  }

  /// Offers the router's event `seq` of `producer`; its timestamp is its
  /// sequence number.
  bool Offer(uint64_t seq, NodeId producer) { return Offer(EventTuple{producer, seq, seq}); }

  /// Offers an ascending run of one producer's seqs, newest end first.
  void OfferAscending(std::span<const uint64_t> seqs, NodeId producer) {
    for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
      if (!Offer(*it, producer)) return;
    }
  }

  /// The merged events, newest first (at most k).
  std::vector<EventTuple> Take() && { return std::move(events_); }

 private:
  size_t k_;
  std::vector<EventTuple> events_;
};

}  // namespace piggy
