// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8.
//
// Used by the durability layer to frame WAL records and to seal snapshots:
// a checksum mismatch is how recovery tells a torn or bit-rotted tail from a
// valid record, so this must match the ubiquitous zlib/PNG/ethernet CRC32
// (initial value and final XOR of 0xFFFFFFFF) — any external tool can verify
// the files.
//
// Slice-by-8 folds eight input bytes per step through eight 256-entry
// tables (table k advances a byte's contribution by k further bytes of
// zeros), several times faster than the byte-at-a-time loop and
// bit-identical to it. Big-endian hosts take the bytewise loop.

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace piggy {

namespace internal {

inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32Tables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

}  // namespace internal

/// Extends a running CRC32 over `len` bytes. Start (and finish) with the
/// default `crc` for a whole-buffer checksum; feed the previous return value
/// to checksum incrementally.
inline uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0) {
  const auto& t = internal::kCrc32Tables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; len -= 8, p += 8) {
      uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; len > 0; --len, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace piggy
