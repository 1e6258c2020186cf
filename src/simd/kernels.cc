#include "simd/kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "simd/dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PIGGY_SIMD_X86 1
#endif

namespace piggy::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference paths. Every vector tier must reproduce these outputs
// bit-for-bit; the tails of the vector loops fall through into them.
// ---------------------------------------------------------------------------

void TwoPointerPairs(const NodeId* a, size_t na, const NodeId* b, size_t nb,
                     size_t i, size_t j, std::vector<IndexPair>* out) {
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
      ++i;
      ++j;
    }
  }
}

// Exponential probe + binary search through the larger span, mirroring
// ForEachSortedIntersection's skewed-pair path (graph/graph.h) exactly.
// Emit receives (value, ia, ib).
template <typename Emit>
void GallopIntersect(std::span<const NodeId> a, std::span<const NodeId> b,
                     Emit&& emit) {
  const bool a_is_small = a.size() <= b.size();
  const std::span<const NodeId> small = a_is_small ? a : b;
  const std::span<const NodeId> large = a_is_small ? b : a;
  size_t lo = 0;
  for (size_t i = 0; i < small.size() && lo < large.size(); ++i) {
    const NodeId x = small[i];
    size_t bound = 1;
    while (lo + bound < large.size() && large[lo + bound] < x) bound <<= 1;
    const size_t hi = std::min(lo + bound + 1, large.size());
    lo = static_cast<size_t>(
        std::lower_bound(large.data() + lo, large.data() + hi, x) - large.data());
    if (lo < large.size() && large[lo] == x) {
      emit(x, a_is_small ? i : lo, a_is_small ? lo : i);
      ++lo;
    }
  }
}

bool UseGallop(std::span<const NodeId> a, std::span<const NodeId> b) {
  return a.size() >= kGallopIntersectRatio * b.size() ||
         b.size() >= kGallopIntersectRatio * a.size();
}

void NotCoveredFlagsScalar(const uint8_t* covered, const uint64_t* idx, size_t i,
                           size_t n, uint8_t* out_flags) {
  for (; i < n; ++i) out_flags[i] = covered[idx[i]] ? 0 : 1;
}

void NotCoveredContiguousScalar(const uint8_t* covered_base, size_t i, size_t n,
                                uint8_t* out_flags) {
  for (; i < n; ++i) out_flags[i] = covered_base[i] ? 0 : 1;
}

void FilterUncoveredScalar(const uint8_t* covered, const uint32_t* p,
                           const uint32_t* c, const uint32_t* edge, size_t i,
                           size_t n,
                           std::vector<std::pair<uint32_t, uint32_t>>* out) {
  for (; i < n; ++i) {
    if (!covered[edge[i]]) out->emplace_back(p[i], c[i]);
  }
}

// Newest-first scan over [0, end) in descending record order, appending
// matching record indices until `taken` reaches k.
void SelectKeyedScalar(const uint32_t* keys, size_t stride_u32, size_t end,
                       std::span<const NodeId> interest, size_t k, size_t* taken,
                       std::vector<uint32_t>* out) {
  for (size_t r = end; r > 0 && *taken < k; --r) {
    const uint32_t key = keys[(r - 1) * stride_u32];
    if (std::binary_search(interest.begin(), interest.end(), key)) {
      out->push_back(static_cast<uint32_t>(r - 1));
      ++*taken;
    }
  }
}

#ifdef PIGGY_SIMD_X86

// ---------------------------------------------------------------------------
// SSE4.2 tier: 128-bit block compares for the intersections. The gather
// kernels have no 128-bit gather instruction and stay scalar at this tier
// (still bit-identical by construction).
// ---------------------------------------------------------------------------

__attribute__((target("sse4.2"))) void IntersectPairsSse42(
    const NodeId* a, size_t na, const NodeId* b, size_t nb,
    std::vector<IndexPair>* out) {
  const __m128i idx0 = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i three = _mm_set1_epi32(3);
  size_t i = 0, j = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    const uint32_t amax = a[i + 3], bmax = b[j + 3];
    __m128i match = _mm_setzero_si128();
    __m128i bidx = _mm_setzero_si128();
    for (int r = 0; r < 4; ++r) {
      const __m128i eq = _mm_cmpeq_epi32(va, vb);
      match = _mm_or_si128(match, eq);
      // Lane l of this rotation compares against b[j + ((l + r) & 3)].
      const __m128i lane_b =
          _mm_and_si128(_mm_add_epi32(idx0, _mm_set1_epi32(r)), three);
      bidx = _mm_blendv_epi8(bidx, lane_b, eq);
      vb = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    }
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(match));
    if (mask != 0) {
      alignas(16) uint32_t blane[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(blane), bidx);
      for (int lane = 0; lane < 4; ++lane) {
        if (mask & (1 << lane)) {
          out->push_back({static_cast<uint32_t>(i + lane),
                          static_cast<uint32_t>(j + blane[lane])});
        }
      }
    }
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  TwoPointerPairs(a, na, b, nb, i, j, out);
}

__attribute__((target("sse4.2"))) void NotCoveredContiguousSse42(
    const uint8_t* covered_base, size_t n, uint8_t* out_flags) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi8(1);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(covered_base + i));
    const __m128i flags = _mm_and_si128(_mm_cmpeq_epi8(v, zero), one);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out_flags + i), flags);
  }
  NotCoveredContiguousScalar(covered_base, i, n, out_flags);
}

// ---------------------------------------------------------------------------
// AVX2 tier: 256-bit block compares plus hardware gathers.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void IntersectPairsAvx2(
    const NodeId* a, size_t na, const NodeId* b, size_t nb,
    std::vector<IndexPair>* out) {
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256i idx0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i seven = _mm256_set1_epi32(7);
  size_t i = 0, j = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const uint32_t amax = a[i + 7], bmax = b[j + 7];
    __m256i match = _mm256_setzero_si256();
    __m256i bidx = _mm256_setzero_si256();
    for (int r = 0; r < 8; ++r) {
      const __m256i eq = _mm256_cmpeq_epi32(va, vb);
      match = _mm256_or_si256(match, eq);
      const __m256i lane_b =
          _mm256_and_si256(_mm256_add_epi32(idx0, _mm256_set1_epi32(r)), seven);
      bidx = _mm256_blendv_epi8(bidx, lane_b, eq);
      vb = _mm256_permutevar8x32_epi32(vb, rot1);
    }
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(match));
    if (mask != 0) {
      alignas(32) uint32_t blane[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(blane), bidx);
      for (int lane = 0; lane < 8; ++lane) {
        if (mask & (1 << lane)) {
          out->push_back({static_cast<uint32_t>(i + lane),
                          static_cast<uint32_t>(j + blane[lane])});
        }
      }
    }
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  TwoPointerPairs(a, na, b, nb, i, j, out);
}

__attribute__((target("avx2"))) void NotCoveredFlagsAvx2(
    const uint8_t* covered, const uint64_t* idx, size_t n, uint8_t* out_flags) {
  const __m256i byte_mask = _mm256_set1_epi64x(0xff);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    // 8-byte gathers at byte granularity: reads up to 7 bytes past each
    // index, covered by the kCoveredPadding contract.
    const __m256i raw = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(covered), vidx, 1);
    const __m256i is_zero =
        _mm256_cmpeq_epi64(_mm256_and_si256(raw, byte_mask), zero);
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(is_zero));
    out_flags[i + 0] = static_cast<uint8_t>(mask & 1);
    out_flags[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
    out_flags[i + 2] = static_cast<uint8_t>((mask >> 2) & 1);
    out_flags[i + 3] = static_cast<uint8_t>((mask >> 3) & 1);
  }
  NotCoveredFlagsScalar(covered, idx, i, n, out_flags);
}

__attribute__((target("avx2"))) void NotCoveredContiguousAvx2(
    const uint8_t* covered_base, size_t n, uint8_t* out_flags) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(covered_base + i));
    const __m256i flags = _mm256_and_si256(_mm256_cmpeq_epi8(v, zero), one);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_flags + i), flags);
  }
  NotCoveredContiguousScalar(covered_base, i, n, out_flags);
}

__attribute__((target("avx2"))) void FilterUncoveredAvx2(
    const uint8_t* covered, const uint32_t* p, const uint32_t* c,
    const uint32_t* edge, size_t n,
    std::vector<std::pair<uint32_t, uint32_t>>* out) {
  const __m256i byte_mask = _mm256_set1_epi32(0xff);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vedge =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(edge + i));
    // 4-byte gathers at byte granularity: up to 3 bytes past each index,
    // covered by the kCoveredPadding contract.
    const __m256i raw = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(covered), vedge, 1);
    const __m256i is_zero =
        _mm256_cmpeq_epi32(_mm256_and_si256(raw, byte_mask), zero);
    int mask = _mm256_movemask_ps(_mm256_castsi256_ps(is_zero));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out->emplace_back(p[i + lane], c[i + lane]);
      mask &= mask - 1;
    }
  }
  FilterUncoveredScalar(covered, p, c, edge, i, n, out);
}

// The keys of records [first_record, first_record + 8), one per lane.
__attribute__((target("avx2"))) __m256i GatherKeys8(const uint32_t* keys,
                                                    size_t stride_u32,
                                                    size_t first_record) {
  const __m256i stride = _mm256_set1_epi32(static_cast<int>(stride_u32));
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i base =
      _mm256_set1_epi32(static_cast<int>(first_record * stride_u32));
  const __m256i offsets =
      _mm256_add_epi32(base, _mm256_mullo_epi32(lane_ids, stride));
  return _mm256_i32gather_epi32(reinterpret_cast<const int*>(keys), offsets, 4);
}

// Membership of 8 keys in the sorted `interest` span via a lane-parallel
// lower_bound (every lane descends its own bisection using gathers;
// compares are sign-biased so arbitrary uint32 keys order correctly).
// Returns a lane mask of found keys.
__attribute__((target("avx2"))) int InterestMask8(__m256i vkeys,
                                                  std::span<const NodeId> interest) {
  const int m = static_cast<int>(interest.size());
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i keys_b = _mm256_xor_si256(vkeys, bias);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i vm = _mm256_set1_epi32(m);
  const __m256i vm1 = _mm256_set1_epi32(m - 1);
  const int* idata = reinterpret_cast<const int*>(interest.data());

  __m256i lo = _mm256_setzero_si256();
  __m256i hi = vm;
  while (true) {
    const __m256i active = _mm256_cmpgt_epi32(hi, lo);
    if (_mm256_movemask_ps(_mm256_castsi256_ps(active)) == 0) break;
    __m256i mid = _mm256_srli_epi32(_mm256_add_epi32(lo, hi), 1);
    mid = _mm256_min_epi32(mid, vm1);  // converged lanes: keep gathers in range
    const __m256i vals_b =
        _mm256_xor_si256(_mm256_i32gather_epi32(idata, mid, 4), bias);
    const __m256i lt = _mm256_cmpgt_epi32(keys_b, vals_b);  // interest[mid] < key
    lo = _mm256_blendv_epi8(lo, _mm256_add_epi32(mid, one),
                            _mm256_and_si256(active, lt));
    hi = _mm256_blendv_epi8(hi, mid, _mm256_andnot_si256(lt, active));
  }
  const __m256i in_bounds = _mm256_cmpgt_epi32(vm, lo);
  const __m256i clamped = _mm256_min_epi32(lo, vm1);
  const __m256i found_vals = _mm256_i32gather_epi32(idata, clamped, 4);
  const __m256i eq = _mm256_cmpeq_epi32(found_vals, vkeys);
  return _mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_and_si256(in_bounds, eq)));
}

// Membership of 8 keys in a set of at most kSmallSetMax members, each
// pre-broadcast to all lanes: one compare per member, no gathers.
__attribute__((target("avx2"))) int SmallSetMask8(__m256i vkeys,
                                                  const __m256i* members,
                                                  size_t m) {
  __m256i match = _mm256_setzero_si256();
  for (size_t j = 0; j < m; ++j) {
    match = _mm256_or_si256(match, _mm256_cmpeq_epi32(vkeys, members[j]));
  }
  return _mm256_movemask_ps(_mm256_castsi256_ps(match));
}

__attribute__((target("avx2"))) void SelectKeyedAvx2(
    const uint32_t* keys, size_t stride_u32, size_t n,
    std::span<const NodeId> interest, size_t k, std::vector<uint32_t>* out) {
  // Small sets (a reader's keep set of a hub view) compare each key block
  // against every member; larger ones bisect.
  const bool small = interest.size() <= kSmallSetMax;
  __m256i members[kSmallSetMax];
  if (small) {
    for (size_t j = 0; j < interest.size(); ++j) {
      members[j] = _mm256_set1_epi32(static_cast<int>(interest[j]));
    }
  }
  size_t taken = 0;
  size_t end = n;
  while (end >= 8 && taken < k) {
    const size_t first = end - 8;
    const __m256i vkeys = GatherKeys8(keys, stride_u32, first);
    const int mask = small ? SmallSetMask8(vkeys, members, interest.size())
                           : InterestMask8(vkeys, interest);
    if (mask != 0) {
      for (int lane = 7; lane >= 0 && taken < k; --lane) {
        if (mask & (1 << lane)) {
          out->push_back(static_cast<uint32_t>(first + lane));
          ++taken;
        }
      }
    }
    end = first;
  }
  SelectKeyedScalar(keys, stride_u32, end, interest, k, &taken, out);
}

#endif  // PIGGY_SIMD_X86

}  // namespace

void IntersectSortedPairsInto(std::span<const NodeId> a, std::span<const NodeId> b,
                              std::vector<IndexPair>* out) {
  if (a.empty() || b.empty()) return;
  if (UseGallop(a, b)) {
    GallopIntersect(a, b, [out](NodeId, size_t ia, size_t ib) {
      out->push_back({static_cast<uint32_t>(ia), static_cast<uint32_t>(ib)});
    });
    return;
  }
#ifdef PIGGY_SIMD_X86
  switch (ActiveTier()) {
    case Tier::kAvx2:
      IntersectPairsAvx2(a.data(), a.size(), b.data(), b.size(), out);
      return;
    case Tier::kSse42:
      IntersectPairsSse42(a.data(), a.size(), b.data(), b.size(), out);
      return;
    case Tier::kScalar:
      break;
  }
#endif
  TwoPointerPairs(a.data(), a.size(), b.data(), b.size(), 0, 0, out);
}

void NotCoveredFlags(const uint8_t* covered, const uint64_t* idx, size_t n,
                     uint8_t* out_flags) {
#ifdef PIGGY_SIMD_X86
  // Only AVX2 has gathers; the SSE4.2 tier takes the scalar path.
  if (ActiveTier() == Tier::kAvx2) {
    NotCoveredFlagsAvx2(covered, idx, n, out_flags);
    return;
  }
#endif
  NotCoveredFlagsScalar(covered, idx, 0, n, out_flags);
}

void NotCoveredFlagsContiguous(const uint8_t* covered_base, size_t n,
                               uint8_t* out_flags) {
#ifdef PIGGY_SIMD_X86
  switch (ActiveTier()) {
    case Tier::kAvx2:
      NotCoveredContiguousAvx2(covered_base, n, out_flags);
      return;
    case Tier::kSse42:
      NotCoveredContiguousSse42(covered_base, n, out_flags);
      return;
    case Tier::kScalar:
      break;
  }
#endif
  NotCoveredContiguousScalar(covered_base, 0, n, out_flags);
}

void FilterUncoveredPairsInto(const uint8_t* covered, const uint32_t* p,
                              const uint32_t* c, const uint32_t* edge, size_t n,
                              std::vector<std::pair<uint32_t, uint32_t>>* out) {
#ifdef PIGGY_SIMD_X86
  if (ActiveTier() == Tier::kAvx2) {
    FilterUncoveredAvx2(covered, p, c, edge, n, out);
    return;
  }
#endif
  FilterUncoveredScalar(covered, p, c, edge, 0, n, out);
}

void SelectKeyedNewestInto(const uint32_t* keys, size_t stride_u32, size_t n,
                           std::span<const NodeId> interest, size_t k,
                           std::vector<uint32_t>* out) {
  if (n == 0 || k == 0 || interest.empty()) return;
#ifdef PIGGY_SIMD_X86
  if (ActiveTier() == Tier::kAvx2) {
    SelectKeyedAvx2(keys, stride_u32, n, interest, k, out);
    return;
  }
#endif
  size_t taken = 0;
  SelectKeyedScalar(keys, stride_u32, n, interest, k, &taken, out);
}

}  // namespace piggy::simd
