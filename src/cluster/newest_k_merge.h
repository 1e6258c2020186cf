// NewestKMerge: the cluster router's bounded newest-first feed merge.
//
// A merged cluster feed is the k newest events across many sources that are
// each already sorted: the shard-local feed (newest-first), every remote push
// replica and every pulled producer history (both ascending). Rather than
// collecting every candidate and sorting, the router keeps a buffer of at
// most k events, newest first, and walks each source from its newest end.
// Once the buffer is full, a source stops at its first event that is not
// newer than the buffer's oldest — everything behind it in that source is
// older still. The work per query follows (sources + k), not the candidate
// count. Since a sequence number names exactly one event, the buffer equals
// the k-prefix of the sorted union.
//
//   NewestKMerge merge(k);
//   for (const EventTuple& e : local) {
//     if (!merge.Offer(e.event_id, e.producer)) break;
//   }
//   merge.OfferAscending(replica_seqs, producer);
//   std::vector<EventTuple> feed = merge.Take();
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

namespace piggy {

/// \brief Keeps the k newest (seq, producer) events offered, newest first.
class NewestKMerge {
 public:
  explicit NewestKMerge(size_t k) : k_(k) { events_.reserve(k); }

  /// Offers one event; its timestamp is its sequence number. Returns false,
  /// keeping nothing, when the buffer is full and `seq` is not newer than its
  /// oldest event: a caller walking a source newest-first stops there.
  bool Offer(uint64_t seq, NodeId producer) {
    if (events_.size() == k_) {
      if (k_ == 0 || seq <= events_.back().event_id) return false;
      events_.pop_back();
    }
    auto pos = events_.end();
    while (pos != events_.begin() && (pos - 1)->event_id < seq) --pos;
    events_.insert(pos, EventTuple{producer, seq, seq});
    return true;
  }

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
