// Kernel parity suite: every dispatch tier must produce output bit-identical
// to the scalar reference for every kernel, across the input classes the hot
// loops actually see — empty, disjoint, fully overlapping, skewed enough to
// gallop, and lengths that leave vector-width tails.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/rng.h"

namespace piggy {
namespace {

// Every tier the host can run; SetTierForTest clamps, so requesting all three
// is safe everywhere (on a non-AVX2 host avx2 silently degrades and the sweep
// still covers what the hardware has).
std::vector<simd::Tier> TestableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::MaxSupportedTier() >= simd::Tier::kSse42) {
    tiers.push_back(simd::Tier::kSse42);
  }
  if (simd::MaxSupportedTier() >= simd::Tier::kAvx2) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Restores the detected tier when a test scope ends.
class TierGuard {
 public:
  explicit TierGuard(simd::Tier t) { simd::SetTierForTest(t); }
  ~TierGuard() { simd::SetTierForTest(simd::MaxSupportedTier()); }
};

std::vector<NodeId> SortedRandomSet(Rng& rng, size_t n, NodeId universe) {
  std::set<NodeId> s;
  while (s.size() < n) s.insert(static_cast<NodeId>(rng.Uniform(universe)));
  return {s.begin(), s.end()};
}

// The input classes every intersection kernel must agree on. Unaligned
// lengths (odd sizes, sub-block sizes) force tail handling; the skewed pair
// crosses kGallopIntersectRatio so the gallop path runs too.
struct SetPairCase {
  std::string name;
  std::vector<NodeId> a;
  std::vector<NodeId> b;
};

std::vector<SetPairCase> IntersectionCases() {
  std::vector<SetPairCase> cases;
  cases.push_back({"both_empty", {}, {}});
  cases.push_back({"one_empty", {1, 2, 3}, {}});
  cases.push_back({"disjoint", {0, 2, 4, 6, 8, 10, 12}, {1, 3, 5, 7, 9, 11}});
  {
    std::vector<NodeId> same;
    for (NodeId v = 0; v < 100; ++v) same.push_back(v * 3);
    cases.push_back({"fully_overlapping", same, same});
  }
  cases.push_back({"singletons", {42}, {42}});
  cases.push_back({"unaligned_tails", {1, 5, 9, 13, 17}, {0, 1, 2, 5, 9, 10, 17}});
  Rng rng(20260808);
  {
    std::vector<NodeId> small = SortedRandomSet(rng, 13, 1 << 20);
    std::vector<NodeId> large = SortedRandomSet(rng, 10000, 1 << 20);
    // Guarantee some hits on the gallop path.
    for (size_t i = 0; i < small.size(); i += 3) large.push_back(small[i]);
    std::sort(large.begin(), large.end());
    large.erase(std::unique(large.begin(), large.end()), large.end());
    cases.push_back({"skewed_1_vs_10k", small, large});
  }
  for (int round = 0; round < 6; ++round) {
    const size_t na = 1 + rng.Uniform(700);
    const size_t nb = 1 + rng.Uniform(700);
    cases.push_back({"random_" + std::to_string(round),
                     SortedRandomSet(rng, na, 4096), SortedRandomSet(rng, nb, 4096)});
  }
  return cases;
}

TEST(SimdDispatchTest, ParseAndNames) {
  simd::Tier t = simd::Tier::kAvx2;
  EXPECT_TRUE(simd::ParseTier("scalar", &t));
  EXPECT_EQ(t, simd::Tier::kScalar);
  EXPECT_TRUE(simd::ParseTier("sse42", &t));
  EXPECT_EQ(t, simd::Tier::kSse42);
  EXPECT_TRUE(simd::ParseTier("avx2", &t));
  EXPECT_EQ(t, simd::Tier::kAvx2);
  EXPECT_FALSE(simd::ParseTier("quantum", &t));
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kSse42), "sse42");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
}

TEST(SimdDispatchTest, SetTierClampsToHardware) {
  const simd::Tier installed = simd::SetTierForTest(simd::Tier::kAvx2);
  EXPECT_LE(static_cast<int>(installed), static_cast<int>(simd::MaxSupportedTier()));
  EXPECT_EQ(simd::ActiveTier(), installed);
  simd::SetTierForTest(simd::MaxSupportedTier());
}

TEST(SimdIntersectTest, PairsMatchForEachSortedIntersection) {
  // The kernel contract is literally "ForEachSortedIntersection collecting
  // (ia, ib)".
  for (const SetPairCase& c : IntersectionCases()) {
    std::vector<std::pair<size_t, size_t>> reference;
    ForEachSortedIntersection(std::span<const NodeId>(c.a),
                              std::span<const NodeId>(c.b),
                              [&](NodeId, size_t ia, size_t ib) {
                                reference.emplace_back(ia, ib);
                              });
    for (simd::Tier tier : TestableTiers()) {
      TierGuard guard(tier);
      std::vector<simd::IndexPair> got;
      simd::IntersectSortedPairsInto(c.a, c.b, &got);
      std::vector<std::pair<size_t, size_t>> positions;
      for (const simd::IndexPair& pr : got) positions.emplace_back(pr.ia, pr.ib);
      EXPECT_EQ(positions, reference) << c.name << " @ " << simd::TierName(tier);
    }
  }
}

TEST(SimdIntersectTest, PairsMatchScalarOnEveryTier) {
  for (const SetPairCase& c : IntersectionCases()) {
    std::vector<simd::IndexPair> expect;
    {
      TierGuard guard(simd::Tier::kScalar);
      simd::IntersectSortedPairsInto(c.a, c.b, &expect);
    }
    // Positions must actually index the common values.
    for (const simd::IndexPair& pr : expect) {
      ASSERT_EQ(c.a[pr.ia], c.b[pr.ib]) << c.name;
    }
    for (simd::Tier tier : TestableTiers()) {
      TierGuard guard(tier);
      std::vector<simd::IndexPair> got;
      simd::IntersectSortedPairsInto(c.a, c.b, &got);
      ASSERT_EQ(got.size(), expect.size()) << c.name << " @ " << simd::TierName(tier);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].ia, expect[i].ia) << c.name << " @ " << simd::TierName(tier);
        EXPECT_EQ(got[i].ib, expect[i].ib) << c.name << " @ " << simd::TierName(tier);
      }
    }
  }
}

TEST(SimdCoverageTest, NotCoveredFlagsMatchScalarOnEveryTier) {
  Rng rng(99);
  const size_t edges = 1000;
  std::vector<uint8_t> covered(edges + simd::kCoveredPadding, 0);
  for (size_t e = 0; e < edges; ++e) covered[e] = rng.Uniform(2);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{63},
                   size_t{100}, size_t{999}}) {
    std::vector<uint64_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = rng.Uniform(edges);
    std::vector<uint8_t> expect(n, 0xee), got(n, 0xee);
    {
      TierGuard guard(simd::Tier::kScalar);
      simd::NotCoveredFlags(covered.data(), idx.data(), n, expect.data());
    }
    for (simd::Tier tier : TestableTiers()) {
      TierGuard guard(tier);
      std::fill(got.begin(), got.end(), 0xee);
      simd::NotCoveredFlags(covered.data(), idx.data(), n, got.data());
      EXPECT_EQ(got, expect) << "n=" << n << " @ " << simd::TierName(tier);
      std::fill(got.begin(), got.end(), 0xee);
      simd::NotCoveredFlagsContiguous(covered.data(), n, got.data());
      std::vector<uint8_t> contiguous_expect(n);
      for (size_t i = 0; i < n; ++i) contiguous_expect[i] = covered[i] ? 0 : 1;
      EXPECT_EQ(got, contiguous_expect) << "n=" << n << " @ " << simd::TierName(tier);
    }
  }
}

TEST(SimdCoverageTest, FilterUncoveredPairsMatchScalarOnEveryTier) {
  Rng rng(7);
  const size_t edges = 5000;
  std::vector<uint8_t> covered(edges + simd::kCoveredPadding, 0);
  for (size_t e = 0; e < edges; ++e) covered[e] = rng.Uniform(2);
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{8}, size_t{250}}) {
    std::vector<uint32_t> p(n), c(n), edge(n);
    for (size_t i = 0; i < n; ++i) {
      p[i] = static_cast<uint32_t>(rng.Uniform(100));
      c[i] = static_cast<uint32_t>(rng.Uniform(100));
      edge[i] = static_cast<uint32_t>(rng.Uniform(edges));
    }
    std::vector<std::pair<uint32_t, uint32_t>> expect;
    {
      TierGuard guard(simd::Tier::kScalar);
      simd::FilterUncoveredPairsInto(covered.data(), p.data(), c.data(), edge.data(),
                                     n, &expect);
    }
    for (simd::Tier tier : TestableTiers()) {
      TierGuard guard(tier);
      std::vector<std::pair<uint32_t, uint32_t>> got;
      simd::FilterUncoveredPairsInto(covered.data(), p.data(), c.data(), edge.data(),
                                     n, &got);
      EXPECT_EQ(got, expect) << "n=" << n << " @ " << simd::TierName(tier);
    }
  }
}

TEST(SimdSelectTest, NewestFirstSelectionMatchesScalarOnEveryTier) {
  Rng rng(424242);
  constexpr size_t kStride = 6;  // sizeof(EventTuple) / sizeof(uint32_t)
  // Set sizes on both sides of the AVX2 small-set threshold. Keys come from
  // [0, 64); a set is drawn from [0, max(64, 2m)), so large sets still miss.
  constexpr size_t kAtMax = simd::kSmallSetMax;
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{128}, size_t{301}}) {
    std::vector<uint32_t> records(n * kStride, 0);
    for (size_t i = 0; i < n; ++i) {
      records[i * kStride] = static_cast<uint32_t>(rng.Uniform(64));
    }
    for (size_t m : {size_t{0}, size_t{1}, size_t{2}, size_t{8}, size_t{16},
                     size_t{17}, size_t{64}, kAtMax, kAtMax + 1, 2 * kAtMax}) {
      const NodeId universe = static_cast<NodeId>(std::max<size_t>(64, 2 * m));
      const std::vector<NodeId> interest = SortedRandomSet(rng, m, universe);
      for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n + 5}) {
        std::vector<uint32_t> expect;
        {
          TierGuard guard(simd::Tier::kScalar);
          simd::SelectKeyedNewestInto(records.data(), kStride, n, interest, k, &expect);
        }
        // The scalar reference itself must equal the plain reverse scan.
        std::vector<uint32_t> naive;
        for (size_t i = n; i-- > 0 && naive.size() < k;) {
          if (std::binary_search(interest.begin(), interest.end(),
                                 records[i * kStride])) {
            naive.push_back(static_cast<uint32_t>(i));
          }
        }
        ASSERT_EQ(expect, naive) << "n=" << n << " m=" << m << " k=" << k;
        for (simd::Tier tier : TestableTiers()) {
          TierGuard guard(tier);
          std::vector<uint32_t> got;
          simd::SelectKeyedNewestInto(records.data(), kStride, n, interest, k, &got);
          EXPECT_EQ(got, expect) << "n=" << n << " m=" << m << " k=" << k << " @ "
                                 << simd::TierName(tier);
        }
      }
    }
  }
}

}  // namespace
}  // namespace piggy
