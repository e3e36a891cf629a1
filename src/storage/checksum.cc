#include "storage/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define NAVPATH_CRC32C_SSE42 1
#else
#define NAVPATH_CRC32C_SSE42 0
#endif

namespace navpath {
namespace {

// Castagnoli polynomial, reflected.
constexpr std::uint32_t kPoly = 0x82F63B78u;

std::array<std::uint32_t, 256> BuildTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

#if NAVPATH_CRC32C_SSE42
// The SSE4.2 crc32 instruction implements the same reflected Castagnoli
// CRC as the table, eight bytes per step; the ~init/~result inversion is
// done here exactly as in Crc32cPortable.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::byte* data, std::size_t n, std::uint32_t init) {
  std::uint64_t crc = ~init;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<std::uint8_t>(*data));
  }
  return ~crc32;
}
#endif

}  // namespace

std::uint32_t Crc32cPortable(const std::byte* data, std::size_t n,
                             std::uint32_t init) {
  static const std::array<std::uint32_t, 256> kTable = BuildTable();
  std::uint32_t crc = ~init;
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^
          kTable[(crc ^ static_cast<std::uint32_t>(data[i])) & 0xFF];
  }
  return ~crc;
}

std::uint32_t Crc32c(const std::byte* data, std::size_t n,
                     std::uint32_t init) {
#if NAVPATH_CRC32C_SSE42
  static const bool kSse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (kSse42) return Crc32cSse42(data, n, init);
#endif
  return Crc32cPortable(data, n, init);
}

}  // namespace navpath
