// SeqSlots, the router's seqlocked per-producer seq store: every operation
// against a reference std::vector model (in-order and out-of-order inserts,
// trims at depths 1, 10 and 64, assign/backfill, copy, free and reuse, slots
// across many chunks), and a reader/writer stress case in which lock-free
// readers race writers on a few hot slots and must never observe a torn,
// unsorted or out-of-window history. The CI tsan lane runs this suite
// (label `cluster`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cluster/seq_slots.h"
#include "util/rng.h"

namespace piggy {
namespace {

// The reference: a sorted vector holding the newest `depth` seqs.
struct ModelSlot {
  std::vector<uint64_t> seqs;

  void Insert(uint64_t seq, size_t depth) {
    seqs.insert(std::upper_bound(seqs.begin(), seqs.end(), seq), seq);
    if (seqs.size() > depth) seqs.erase(seqs.begin());
  }
  void Assign(const std::vector<uint64_t>& ascending, size_t depth) {
    const size_t keep = std::min(ascending.size(), depth);
    seqs.assign(ascending.end() - static_cast<std::ptrdiff_t>(keep),
                ascending.end());
  }
};

TEST(SeqSlotsTest, MatchesVectorModel) {
  for (size_t depth : {size_t{1}, size_t{10}, size_t{64}}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    constexpr size_t kProducers = 40;
    SeqSlots slots(kProducers, depth);
    EXPECT_EQ(slots.depth(), depth);
    EXPECT_EQ(slots.num_producers(), kProducers);
    std::vector<ModelSlot> model(kProducers);
    std::vector<SeqSlots::SlotId> live;  // every slot in use, histories first
    for (SeqSlots::SlotId p = 0; p < kProducers; ++p) live.push_back(p);

    Rng rng(depth * 7 + 1);
    uint64_t next_seq = 1;
    std::vector<uint64_t> delayed;  // drawn seqs inserted late, out of order
    auto check = [&](SeqSlots::SlotId slot) {
      ASSERT_EQ(slots.Snapshot(slot), model[slot].seqs) << "slot " << slot;
      std::vector<uint64_t> out(depth);
      const size_t n = slots.Read(slot, out.data());
      out.resize(n);
      ASSERT_EQ(out, model[slot].seqs) << "slot " << slot;
    };
    for (int op = 0; op < 20000; ++op) {
      const SeqSlots::SlotId slot = live[rng.Uniform(live.size())];
      const double dice = rng.UniformDouble();
      if (dice < 0.55) {
        // In order, or a seq drawn earlier that arrives after newer ones.
        uint64_t seq = next_seq++;
        if (rng.Bernoulli(0.3)) {
          delayed.push_back(seq);
          continue;
        }
        if (!delayed.empty() && rng.Bernoulli(0.5)) {
          std::swap(seq, delayed[rng.Uniform(delayed.size())]);
        }
        slots.Insert(slot, seq);
        model[slot].Insert(seq, depth);
      } else if (dice < 0.65 && !delayed.empty()) {
        const uint64_t seq = delayed.back();
        delayed.pop_back();
        slots.Insert(slot, seq);
        model[slot].Insert(seq, depth);
      } else if (dice < 0.72) {
        // Assign, as a backfill from an explicit ascending history: shorter
        // than, equal to or longer than the depth.
        std::vector<uint64_t> ascending(rng.Uniform(2 * depth + 2));
        uint64_t s = rng.Uniform(1000);
        for (uint64_t& x : ascending) x = (s += 1 + rng.Uniform(5));
        slots.Assign(slot, ascending);
        model[slot].Assign(ascending, depth);
      } else if (dice < 0.80) {
        // A new replica backfilled from a producer's history.
        const SeqSlots::SlotId from =
            static_cast<SeqSlots::SlotId>(rng.Uniform(kProducers));
        const SeqSlots::SlotId added = slots.Add();
        ASSERT_GE(added, kProducers);
        if (added >= model.size()) model.resize(added + 1);
        ASSERT_TRUE(slots.Snapshot(added).empty()) << "added slot not empty";
        ASSERT_TRUE(std::find(live.begin(), live.end(), added) == live.end());
        slots.Copy(from, added);
        model[added].seqs = model[from].seqs;
        live.push_back(added);
        check(added);
      } else if (dice < 0.86 && live.size() > kProducers) {
        // Erase: the replica's slot goes back to the free list.
        const size_t i = kProducers + rng.Uniform(live.size() - kProducers);
        const SeqSlots::SlotId freed = live[i];
        slots.Free(freed);
        model[freed].seqs.clear();
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        check(slot);
      }
    }
    for (SeqSlots::SlotId slot : live) check(slot);
  }
}

// Slots live in fixed chunks: adding thousands of replicas (several chunks)
// leaves every earlier slot's contents in place, and freed slots are reused
// empty before any new one is handed out.
TEST(SeqSlotsTest, SlotsSurviveGrowthAcrossChunks) {
  constexpr size_t kDepth = 10;
  SeqSlots slots(3, kDepth);
  std::vector<SeqSlots::SlotId> added;
  std::vector<ModelSlot> histories(3);
  for (uint64_t i = 0; i < 5000; ++i) {
    added.push_back(slots.Add());
    slots.Insert(added.back(), i + 1);
    slots.Insert(static_cast<SeqSlots::SlotId>(i % 3), i + 1);
    histories[i % 3].Insert(i + 1, kDepth);
  }
  for (size_t i = 0; i < added.size(); ++i) {
    EXPECT_EQ(added[i], 3 + i);
    ASSERT_EQ(slots.Snapshot(added[i]), std::vector<uint64_t>{i + 1});
  }
  for (SeqSlots::SlotId p = 0; p < 3; ++p) {
    EXPECT_EQ(slots.Snapshot(p), histories[p].seqs);
  }
  slots.Free(added[17]);
  slots.Free(added[4000]);
  EXPECT_EQ(slots.Add(), added[4000]);
  EXPECT_EQ(slots.Add(), added[17]);
  EXPECT_TRUE(slots.Snapshot(added[17]).empty());
  EXPECT_EQ(slots.Add(), 3 + added.size());
}

// The history a slot holds after a writer inserted the pairs (2, 1), (4, 3),
// ..., (L, L-1) — each pair newest first — or stopped after L: the newest
// `depth` of {1..L}, or of {1..L-2} + {L}. A reader may see nothing else.
bool IsValidHistory(const std::vector<uint64_t>& read, size_t depth) {
  if (read.empty()) return true;
  const uint64_t last = read.back();
  if (last % 2 != 0) return false;
  auto window = [&](bool mid) {
    std::vector<uint64_t> newest;
    for (uint64_t s = last; s >= 1 && newest.size() < depth; --s) {
      if (!(mid && s == last - 1)) newest.push_back(s);
    }
    std::reverse(newest.begin(), newest.end());
    return newest;
  };
  return read == window(false) || read == window(true);
}

TEST(SeqSlotsTest, LockFreeReadersNeverSeeTornHistories) {
  for (size_t depth : {size_t{1}, size_t{10}, size_t{64}}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    constexpr size_t kHot = 3;
    constexpr size_t kReaders = 3;
    constexpr uint64_t kPairs = 100000;
    // Two hot histories and one replica slot, as the router holds them.
    SeqSlots slots(2, depth);
    const std::vector<SeqSlots::SlotId> hot = {0, 1, slots.Add()};
    std::atomic<size_t> writers_left{kHot};
    // Every thread starts together, so the writes overlap the reads.
    std::atomic<size_t> ready{0};
    auto start = [&] {
      ready.fetch_add(1);
      while (ready.load() < kHot + kReaders) std::this_thread::yield();
    };
    std::atomic<uint64_t> bad{0};
    std::atomic<uint64_t> reads{0};
    // Readers that have finished their first read. Writers hold back their
    // second half of inserts until every reader has read once, so reads and
    // writes overlap for certain: even at depth 1 a writer cannot finish
    // before the readers have started.
    std::atomic<size_t> readers_started{0};
    std::vector<std::thread> threads;
    // One writer per slot: the caller's stripe serializes a slot's writers.
    for (size_t h = 0; h < kHot; ++h) {
      threads.emplace_back([&, h] {
        start();
        for (uint64_t pair = 1; pair <= kPairs; ++pair) {
          if (pair == kPairs / 2 + 1) {
            while (readers_started.load() < kReaders) std::this_thread::yield();
          }
          slots.Insert(hot[h], 2 * pair);
          slots.Insert(hot[h], 2 * pair - 1);  // drawn earlier, lands later
        }
        writers_left.fetch_sub(1);
      });
    }
    for (size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        start();
        std::vector<uint64_t> out(depth);
        std::vector<uint64_t> newest(kHot, 0);
        size_t i = r;
        bool first = true;
        while (writers_left.load() > 0) {
          const size_t h = i++ % kHot;
          const size_t n = slots.Read(hot[h], out.data());
          const std::vector<uint64_t> read(out.begin(),
                                           out.begin() + static_cast<std::ptrdiff_t>(n));
          const uint64_t last = read.empty() ? 0 : read.back();
          // Valid shape, and never older than this reader saw before.
          if (n > depth || !IsValidHistory(read, depth) || last < newest[h]) {
            bad.fetch_add(1);
          }
          newest[h] = last;
          reads.fetch_add(1, std::memory_order_relaxed);
          if (first) {
            first = false;
            readers_started.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    for (SeqSlots::SlotId slot : hot) {
      std::vector<uint64_t> expected;
      for (uint64_t s = 2 * kPairs - std::min<uint64_t>(depth, 2 * kPairs) + 1;
           s <= 2 * kPairs; ++s) {
        expected.push_back(s);
      }
      EXPECT_EQ(slots.Snapshot(slot), expected);
    }
  }
}

}  // namespace
}  // namespace piggy
