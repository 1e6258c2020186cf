#include "store/view_store.h"

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "simd/kernels.h"
#include "store/newest_k_merge.h"

namespace piggy {

// The gather-based interest filter reads the producer key as the first 32-bit
// word of each stored tuple at a fixed word stride.
static_assert(sizeof(EventTuple) == 24, "EventTuple layout drives the key stride");
static_assert(offsetof(EventTuple, producer) == 0,
              "producer must be the leading key word");

void KeepTopKNewest(std::vector<EventTuple>* events, size_t k) {
  std::sort(events->begin(), events->end(), NewerThan);
  // The same event can arrive from several views (e.g. two hubs both storing
  // a producer's events); streams have set semantics, so drop duplicates.
  events->erase(std::unique(events->begin(), events->end()), events->end());
  if (events->size() > k) events->resize(k);
}

std::vector<EventTuple> TopKNewest(std::vector<EventTuple> events, size_t k) {
  KeepTopKNewest(&events, k);
  return events;
}

void ViewStore::UpdateBatch(std::span<const NodeId> views, const EventTuple& event) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++metrics_.update_messages;
  for (NodeId owner : views) {
    View* view = views_.Find(owner);
    if (view == nullptr) {
      views_.Put(owner, View{{event}, 0});
    } else {
      Write(view, event);
    }
    ++metrics_.view_writes;
  }
}

void ViewStore::Write(View* view, const EventTuple& event) {
  std::vector<EventTuple>& slots = view->slots;
  const size_t n = slots.size();
  if (view_capacity_ == 0 || n < view_capacity_) {
    // Still growing: a sorted vector. Concurrent writers may deliver slightly
    // stale timestamps, so walk back from the tail to the sorted slot (one
    // step at most in the common case). Growth stops at the capacity.
    if (view_capacity_ > 0 && n == slots.capacity()) {
      slots.reserve(std::min(view_capacity_, 2 * n));
    }
    auto pos = slots.end();
    while (pos != slots.begin() && NewerThan(*(pos - 1), event)) --pos;
    slots.insert(pos, event);
    return;
  }
  // Full ring: the write drops the oldest event, either `event` itself or
  // the one at slots[head].
  ++metrics_.trimmed_events;
  const size_t head = view->head;
  if (NewerThan(slots[head], event)) return;  // older than the oldest
  auto at = [&](size_t logical) {
    const size_t i = head + logical;
    return i < n ? i : i - n;
  };
  // The ring advances by one, so logical slot n is the old oldest's. Events
  // newer than `event` move up one slot while walking back to its position;
  // the walk stops at logical 1 because slots[head] is not newer.
  size_t pos = n;
  while (pos > 1 && NewerThan(slots[at(pos - 1)], event)) {
    slots[at(pos)] = slots[at(pos - 1)];
    --pos;
  }
  slots[at(pos)] = event;
  view->head = at(1);
}

void ViewStore::Query(std::span<const NodeId> views, std::span<const NodeId> interest,
                      bool filtered, NewestKMerge* merge) {
  const size_t k = merge->capacity();
  std::lock_guard<std::mutex> lock(*mu_);
  ++metrics_.query_messages;
  metrics_.view_reads += views.size();
  for (NodeId owner : views) {
    const View* view = views_.Find(owner);
    if (view == nullptr) continue;
    // Each view offers at most k records, newest-first: the two contiguous
    // segments slots[0, head) then slots[head, n), each scanned from its
    // end. Each segment is sorted oldest-first, so once the buffer is full a
    // binary search cuts it to the records newer than the buffer's oldest.
    // A rejected record leaves the buffer full, which cuts the rest of the
    // view away.
    const EventTuple* slots = view->slots.data();
    const size_t n = view->slots.size();
    const size_t head = view->head;
    size_t taken = 0;
    for (auto [begin, end] : {std::pair{size_t{0}, head}, std::pair{head, n}}) {
      if (taken == k) break;
      if (merge->full()) {
        begin = static_cast<size_t>(
            std::partition_point(slots + begin, slots + end,
                                 [&](const EventTuple& e) { return !merge->Admits(e); }) -
            slots);
      }
      if (begin == end) continue;
      if (!filtered) {
        for (size_t r = end; r > begin && taken < k; --r, ++taken) {
          if (!merge->Offer(slots[r - 1])) break;
        }
        continue;
      }
      // Vectorized interest scan; indices come back in descending order.
      sel_.clear();
      simd::SelectKeyedNewestInto(reinterpret_cast<const uint32_t*>(slots + begin),
                                  sizeof(EventTuple) / sizeof(uint32_t), end - begin,
                                  interest, k - taken, &sel_);
      for (uint32_t r : sel_) {
        if (!merge->Offer(slots[begin + r])) break;
      }
      taken += sel_.size();
    }
  }
}

void ViewStore::QueryBatchInto(std::span<const NodeId> views,
                               std::span<const NodeId> interest, NewestKMerge* merge) {
  Query(views, interest, /*filtered=*/true, merge);
}

void ViewStore::QueryBatchInto(std::span<const NodeId> views, NewestKMerge* merge) {
  Query(views, {}, /*filtered=*/false, merge);
}

std::vector<EventTuple> ViewStore::QueryBatch(std::span<const NodeId> views,
                                              std::span<const NodeId> interest,
                                              size_t k) {
  NewestKMerge merge(k);
  QueryBatchInto(views, interest, &merge);
  return std::move(merge).Take();
}

std::vector<EventTuple> ViewStore::QueryBatch(std::span<const NodeId> views,
                                              size_t k) {
  NewestKMerge merge(k);
  QueryBatchInto(views, &merge);
  return std::move(merge).Take();
}

std::vector<EventTuple> ViewStore::ReadView(NodeId owner) const {
  std::lock_guard<std::mutex> lock(*mu_);
  const View* view = views_.Find(owner);
  if (view == nullptr) return {};
  // Oldest-first: the ring's tail segment, then its head segment.
  const auto oldest = view->slots.begin() + static_cast<std::ptrdiff_t>(view->head);
  std::vector<EventTuple> out(oldest, view->slots.end());
  out.insert(out.end(), view->slots.begin(), oldest);
  return out;
}

}  // namespace piggy
