#ifndef COCONUT_COMMON_CRC32C_H_
#define COCONUT_COMMON_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define COCONUT_CRC32C_SSE42 1
#endif

namespace coconut {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) over
/// a byte range. The parameterization matches RFC 3720 / iSCSI, so
/// fixtures can be cross-checked against any standard CRC-32C
/// implementation.
///
/// On x86-64 CPUs with SSE4.2 the SSE4.2 `crc32` instruction folds 8 bytes
/// per instruction; elsewhere a table loop does one byte per step. The
/// choice matters: every write-ahead-log commit CRCs its whole batch (a
/// 64-series batch of 256 floats is ~66 KB), and the table loop alone cost
/// ~0.2 ms of a ~0.37 ms commit. Both paths produce the same bytes; the
/// table loop stays as the portable fallback and the test reference.
namespace crc32c_detail {

inline const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

/// The portable byte-at-a-time path (same contract as Crc32cExtend).
inline uint32_t ExtendTable(uint32_t crc, const void* data, size_t size) {
  const auto& table = Table();
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef COCONUT_CRC32C_SSE42
/// The SSE4.2 path; call only when HasSse42() holds.
__attribute__((target("sse4.2"))) inline uint32_t ExtendSse42(
    uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t state = ~crc;
  for (; size >= 8; size -= 8, p += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);  // little-endian: bytes in stream order
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<uint32_t>(state);
  for (; size > 0; --size, ++p) state32 = _mm_crc32_u8(state32, *p);
  return ~state32;
}

inline bool HasSse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace crc32c_detail

/// Extends a running CRC-32C with `size` bytes. Start a fresh computation
/// with `crc = 0`; chained calls over split buffers equal one call over
/// the concatenation.
inline uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
#ifdef COCONUT_CRC32C_SSE42
  if (crc32c_detail::HasSse42()) {
    return crc32c_detail::ExtendSse42(crc, data, size);
  }
#endif
  return crc32c_detail::ExtendTable(crc, data, size);
}

inline uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace coconut

#endif  // COCONUT_COMMON_CRC32C_H_
