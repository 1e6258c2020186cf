// Vectorized kernels for the three hot loops of the system, dispatched at
// runtime over the tiers in simd/dispatch.h:
//
//   - sorted-set intersection positions: the CHITCHAT oracle's cross-pair
//     topology build and parallel_nosy's active-edge propagation;
//   - bitmap-filtered counting over the per-edge coverage map: the oracle's
//     instance refreshes;
//   - gather-based newest-first view merging: the serving plane's QueryBatch
//     interest filter.
//
// Contract: every kernel produces output BIT-IDENTICAL to its scalar
// reference at every tier (same elements, same order) — simd_test sweeps all
// tiers against the scalar path. Inputs marked "sorted" must be strictly
// ascending (set semantics, no duplicates), which the graph adjacency and
// interest lists guarantee.
//
// Thread safety: kernels are pure functions of their arguments (plus the
// process-wide dispatch tier) and may run concurrently from any threads on
// distinct outputs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace piggy::simd {

/// Readable bytes every coverage bitmap must keep past its logical end:
/// the AVX2 paths read coverage bytes with 4/8-byte gathers at arbitrary
/// byte indices and mask the tail, so up to 7 bytes past the last valid
/// index are touched (never interpreted). Size bitmaps num_edges + this.
inline constexpr size_t kCoveredPadding = 8;

/// \brief A match position pair: a[ia] == b[ib].
struct IndexPair {
  uint32_t ia;
  uint32_t ib;
};

/// Appends the (ia, ib) position pair of every common value of the sorted
/// spans `a` and `b` to *out, in ascending order of ia (equivalently of the
/// common values). Equivalent to ForEachSortedIntersection collecting
/// (ia, ib). Sizes must fit uint32_t (graph adjacency always does).
void IntersectSortedPairsInto(std::span<const NodeId> a, std::span<const NodeId> b,
                              std::vector<IndexPair>* out);

/// out_flags[i] = covered[idx[i]] ? 0 : 1 for i in [0, n) — the link-in-Z
/// refresh over scattered canonical edge indices. `covered` must have
/// kCoveredPadding readable bytes past its largest addressed index.
void NotCoveredFlags(const uint8_t* covered, const uint64_t* idx, size_t n,
                     uint8_t* out_flags);

/// out_flags[i] = covered_base[i] ? 0 : 1 for i in [0, n) — the contiguous
/// variant for consecutive canonical indices (a node's out-edge block).
void NotCoveredFlagsContiguous(const uint8_t* covered_base, size_t n,
                               uint8_t* out_flags);

/// Appends (p[i], c[i]) for every i in [0, n) with covered[edge[i]] == 0, in
/// ascending i — the coverage filter over a cached cross-pair topology
/// (struct-of-arrays). `covered` needs kCoveredPadding readable bytes past
/// its largest addressed index.
void FilterUncoveredPairsInto(const uint8_t* covered, const uint32_t* p,
                              const uint32_t* c, const uint32_t* edge, size_t n,
                              std::vector<std::pair<uint32_t, uint32_t>>* out);

/// Largest `interest` span SelectKeyedNewestInto's AVX2 path matches by
/// comparing each key against every member; larger spans take a
/// gather-based binary search. Both give the scalar reference's output.
/// The compares beat the bisection up to about 192 members
/// (docs/PERFORMANCE.md, "Interest sets").
inline constexpr size_t kSmallSetMax = 128;

/// Newest-first interest filter over one stored view (the QueryBatch inner
/// loop). `keys` points at the first 32-bit key of `n` records laid out
/// `stride_u32` 32-bit words apart (keys[i * stride_u32] is record i's key);
/// records are stored oldest-first. Appends to *out the indices of up to `k`
/// records whose key appears in the sorted span `interest`, scanning from
/// record n-1 down to 0 (so indices append in descending order). Gathers
/// read only the 4-byte key lane of in-range records; no padding required.
void SelectKeyedNewestInto(const uint32_t* keys, size_t stride_u32, size_t n,
                           std::span<const NodeId> interest, size_t k,
                           std::vector<uint32_t>* out);

}  // namespace piggy::simd
