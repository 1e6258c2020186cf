#include "store/event_log.h"

#include <algorithm>
#include <utility>

namespace piggy {

std::vector<EventTuple> SegmentedEventLog::View::Flatten() const {
  std::vector<EventTuple> out;
  out.reserve(size());
  ForEachRun([&out](const EventTuple* events, size_t n) {
    out.insert(out.end(), events, events + n);
  });
  return out;
}

void SegmentedEventLog::Insert(const EventTuple& e) {
  auto pos = tail_.end();
  while (pos != tail_.begin() && NewerThan(*(pos - 1), e)) --pos;
  if (pos == tail_.begin() && sealed_ != nullptr &&
      NewerThan(sealed_->back()->back(), e)) {
    InsertSealed(e);
    return;
  }
  if (tail_.capacity() == 0) {
    tail_.reserve(kSegmentEvents);
    pos = tail_.end();  // the tail was empty
  }
  tail_.insert(pos, e);
  if (tail_.size() >= kSegmentEvents) SealTail();
}

void SegmentedEventLog::SealTail() {
  auto list = std::make_shared<SegmentList>();
  list->reserve((sealed_ != nullptr ? sealed_->size() : 0) + 1);
  if (sealed_ != nullptr) list->assign(sealed_->begin(), sealed_->end());
  sealed_events_ += tail_.size();
  list->push_back(std::make_shared<const Segment>(std::move(tail_)));
  sealed_ = std::move(list);
  tail_ = Segment();
}

void SegmentedEventLog::InsertSealed(const EventTuple& e) {
  // The segment whose range covers e: the earliest one whose last event is
  // still newer than e, scanning back from the newest.
  size_t i = sealed_->size() - 1;
  while (i > 0 && NewerThan((*sealed_)[i - 1]->back(), e)) --i;
  auto seg = std::make_shared<Segment>();
  seg->reserve((*sealed_)[i]->size() + 1);
  seg->assign((*sealed_)[i]->begin(), (*sealed_)[i]->end());
  auto pos = seg->end();
  while (pos != seg->begin() && NewerThan(*(pos - 1), e)) --pos;
  seg->insert(pos, e);
  auto list = std::make_shared<SegmentList>(*sealed_);
  (*list)[i] = std::move(seg);
  sealed_ = std::move(list);
  ++sealed_events_;
}

void SegmentedEventLog::Assign(const std::vector<EventTuple>& events) {
  sealed_.reset();
  sealed_events_ = 0;
  tail_ = Segment();
  const size_t full = events.size() / kSegmentEvents * kSegmentEvents;
  if (full > 0) {
    auto list = std::make_shared<SegmentList>();
    list->reserve(full / kSegmentEvents);
    for (size_t at = 0; at < full; at += kSegmentEvents) {
      list->push_back(std::make_shared<const Segment>(
          events.begin() + static_cast<std::ptrdiff_t>(at),
          events.begin() + static_cast<std::ptrdiff_t>(at + kSegmentEvents)));
    }
    sealed_ = std::move(list);
    sealed_events_ = full;
  }
  tail_.reserve(kSegmentEvents);
  tail_.assign(events.begin() + static_cast<std::ptrdiff_t>(full), events.end());
}

}  // namespace piggy
