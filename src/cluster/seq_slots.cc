#include "cluster/seq_slots.h"

#include <algorithm>
#include <thread>

#include "util/logging.h"

namespace piggy {

namespace {

using Word = std::atomic<uint64_t>;
constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
constexpr std::memory_order kAcquire = std::memory_order_acquire;
constexpr std::memory_order kRelease = std::memory_order_release;

// Brackets one write of a slot: the version is odd while the words change,
// and moves on by two once they are all stored. Payload words are stored
// with release, so a reader that acquires any new word also sees the odd
// version (the fence-free variant of the seqlock; on x86 every one of these
// orders is a plain move).
class WriteSection {
 public:
  explicit WriteSection(Word& version)
      : version_(version), before_(version.load(kRelaxed)) {
    version_.store(before_ + 1, kRelaxed);
  }
  ~WriteSection() { version_.store(before_ + 2, kRelease); }

  WriteSection(const WriteSection&) = delete;
  WriteSection& operator=(const WriteSection&) = delete;

 private:
  Word& version_;
  const uint64_t before_;
};

}  // namespace

SeqSlots::SeqSlots(size_t num_producers, size_t depth)
    : num_producers_(num_producers),
      depth_(depth),
      stride_((kSeqs + depth + kWordsPerLine - 1) / kWordsPerLine *
              kWordsPerLine),
      size_(num_producers) {
  PIGGY_CHECK_GT(depth, 0u);
  PIGGY_CHECK_LT(num_producers, size_t{1} << 32);
  while (chunks_.size() * kChunkSlots < num_producers) AddChunk();
}

void SeqSlots::AddChunk() {
  const size_t words = kChunkSlots * stride_;
  auto* p = static_cast<Word*>(
      ::operator new[](words * sizeof(Word), std::align_val_t{kLine}));
  WordArray chunk(p);
  for (size_t i = 0; i < words; ++i) new (p + i) Word(0);  // empty slots
  chunks_.push_back(std::move(chunk));
}

SeqSlots::SlotId SeqSlots::Add() {
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  PIGGY_CHECK_LT(size_, size_t{1} << 32);
  if (size_ == chunks_.size() * kChunkSlots) AddChunk();
  return static_cast<SlotId>(size_++);
}

void SeqSlots::Free(SlotId slot) {
  PIGGY_CHECK_GE(slot, num_producers_);
  PIGGY_CHECK_LT(slot, size_);
  Assign(slot, {});
  free_.push_back(slot);
}

void SeqSlots::Insert(SlotId slot, uint64_t seq) {
  Word* w = Words(slot);
  Word* seqs = w + kSeqs;
  const size_t n = w[kCount].load(kRelaxed);
  size_t pos = n;
  while (pos > 0 && seqs[pos - 1].load(kRelaxed) > seq) --pos;
  const bool full = n == depth_;
  if (full && pos == 0) return;  // older than a full window: trimmed at once
  WriteSection write(w[kVersion]);
  if (full) {
    // Drop the oldest: [1, pos) moves down one and seq lands at pos - 1.
    for (size_t i = 1; i < pos; ++i) {
      seqs[i - 1].store(seqs[i].load(kRelaxed), kRelease);
    }
    seqs[pos - 1].store(seq, kRelease);
  } else {
    for (size_t i = n; i > pos; --i) {
      seqs[i].store(seqs[i - 1].load(kRelaxed), kRelease);
    }
    seqs[pos].store(seq, kRelease);
    w[kCount].store(n + 1, kRelease);
  }
}

void SeqSlots::Assign(SlotId slot, std::span<const uint64_t> ascending) {
  const size_t n = std::min(ascending.size(), depth_);
  const std::span<const uint64_t> newest = ascending.last(n);
  Word* w = Words(slot);
  WriteSection write(w[kVersion]);
  for (size_t i = 0; i < n; ++i) w[kSeqs + i].store(newest[i], kRelease);
  w[kCount].store(n, kRelease);
}

void SeqSlots::Copy(SlotId from, SlotId to) { Assign(to, Snapshot(from)); }

size_t SeqSlots::Read(SlotId slot, uint64_t* out) const {
  const Word* w = Words(slot);
  for (;;) {
    const uint64_t before = w[kVersion].load(kAcquire);
    if ((before & 1) != 0) {
      // A writer is mid-update; it holds its lock only for a few stores,
      // but may have been descheduled.
      std::this_thread::yield();
      continue;
    }
    // Acquire loads: the version re-read below cannot move above them, and
    // seeing any word of a newer write means seeing its odd version.
    const size_t n = std::min<uint64_t>(w[kCount].load(kAcquire), depth_);
    for (size_t i = 0; i < n; ++i) out[i] = w[kSeqs + i].load(kAcquire);
    if (w[kVersion].load(kRelaxed) == before) return n;
  }
}

std::vector<uint64_t> SeqSlots::Snapshot(SlotId slot) const {
  std::vector<uint64_t> seqs(depth_);
  seqs.resize(Read(slot, seqs.data()));
  return seqs;
}

}  // namespace piggy
