// SeqSlots: the router's per-producer share sequence numbers in one
// seqlocked slot store, with no heap block per slot.
//
// A slot holds the newest `depth` global share seqs of one producer,
// ascending (a feed can never surface more than feed_size events of one
// producer, so trimming is lossless for serving and auditing). Slots
// [0, num_producers) are the producers' own histories: slot p is producer
// p's history, the pull and backfill source and the cluster audit oracle.
// Slots past them are the push replicas the cross-shard index materializes
// in consumer shards (Add / Free).
//
// Layout: every slot is a version word, a count word and `depth` seq words,
// padded to a whole number of cache lines, and every word is a
// std::atomic<uint64_t>, so a reader racing a writer is never a data race.
// Slots live in fixed chunks of kChunkSlots that are never reallocated, so
// a slot never moves once added. (Growing one flat array by copying instead
// freed multi-megabyte blocks during setup and recovery, which raised the
// allocator's mmap threshold and cost the cluster-wal benchmark 50-80 MB of
// peak RSS.)
//
// ## Threading contract (enforced by the caller)
//
// Writes to one slot (Insert, Assign, Copy) must be serialized by the caller:
// ClusterService holds the producer's stripe mutex, or its exclusive lock. A
// write makes the version odd, stores the words, and makes it even again.
// Read / Snapshot take no lock: they copy the words and retry when the
// version was odd or moved in between (the seqlock with atomic payload words
// of Boehm, "Can Seqlocks Get Along With Programming Language Memory
// Models?", MSPC 2012, in its fence-free form: payload words are stored with
// release and loaded with acquire, which costs nothing extra on x86 and which
// ThreadSanitizer models exactly). Add and Free change the chunk table
// and the free list, so the caller runs them with no reader or writer present
// (under its exclusive lock).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace piggy {

/// \brief Fixed-depth, seqlocked seq histories in cache-line-strided slots.
class SeqSlots {
 public:
  using SlotId = uint32_t;

  /// `num_producers` history slots (ids 0..num_producers-1), each keeping the
  /// newest `depth` (> 0) seqs.
  SeqSlots(size_t num_producers, size_t depth);

  size_t depth() const { return depth_; }
  size_t num_producers() const { return num_producers_; }

  /// A new empty slot past the histories, reusing a freed one if any.
  /// Requires that no other thread touches the store.
  SlotId Add();

  /// Returns a slot from Add to the free list. Same requirement as Add.
  void Free(SlotId slot);

  /// Inserts `seq` sorted from the tail (a seq drawn earlier but inserted
  /// later still lands in order; O(1) search in the common in-order case)
  /// and keeps the newest depth() seqs. Seqs must be distinct. Writer.
  void Insert(SlotId slot, uint64_t seq);

  /// Replaces the slot with the newest depth() of `ascending`. Writer.
  void Assign(SlotId slot, std::span<const uint64_t> ascending);

  /// Replaces slot `to` with the contents of slot `from`. Writer of `to`.
  void Copy(SlotId from, SlotId to);

  /// Copies the slot's seqs, ascending, into `out` (room for depth() seqs)
  /// and returns their count. Lock-free; safe against a concurrent writer.
  size_t Read(SlotId slot, uint64_t* out) const;

  /// Same, into a fresh vector.
  std::vector<uint64_t> Snapshot(SlotId slot) const;

  /// Hints the cache lines of `slot` into the cache ahead of a Read.
  void Prefetch(SlotId slot) const {
#if defined(__GNUC__)
    const std::atomic<uint64_t>* w = Words(slot);
    for (size_t i = 0; i < stride_; i += kWordsPerLine) {
      __builtin_prefetch(w + i, /*rw=*/0, /*locality=*/3);
    }
#else
    (void)slot;
#endif
  }

 private:
  static constexpr size_t kLine = 64;
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkShift;
  static constexpr size_t kWordsPerLine = kLine / sizeof(uint64_t);
  // Word offsets inside a slot.
  static constexpr size_t kVersion = 0;
  static constexpr size_t kCount = 1;
  static constexpr size_t kSeqs = 2;

  struct AlignedDelete {
    void operator()(std::atomic<uint64_t>* p) const {
      ::operator delete[](p, std::align_val_t{kLine});
    }
  };
  using WordArray = std::unique_ptr<std::atomic<uint64_t>[], AlignedDelete>;

  /// Appends one chunk of empty slots.
  void AddChunk();

  std::atomic<uint64_t>* Words(SlotId slot) const {
    return chunks_[slot >> kChunkShift].get() +
           (slot & (kChunkSlots - 1)) * stride_;
  }

  size_t num_producers_;
  size_t depth_;
  size_t stride_;  // words per slot, a whole number of cache lines
  size_t size_;    // slots handed out, freed ones included
  std::vector<SlotId> free_;
  std::vector<WordArray> chunks_;
};

}  // namespace piggy
