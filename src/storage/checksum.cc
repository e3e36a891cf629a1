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

const std::array<std::uint32_t, 256>& Table() {
  static const std::array<std::uint32_t, 256> kTable = BuildTable();
  return kTable;
}

#if NAVPATH_CRC32C_SSE42
// The crc32 instruction has a latency of three cycles and a throughput of
// one per cycle, so a single dependent chain runs at a third of its
// throughput. The kernel instead checksums three adjacent blocks of equal
// length as three independent chains, then joins them: the CRC register
// is linear over GF(2), so the register after A·B equals the register
// after A advanced over |B| zero bytes, XORed with B's own register from
// zero. Advancing over a fixed number of zero bytes is a 32×32 bit
// matrix (zlib's crc32_combine operator), applied here a byte of the
// register at a time through four 256-entry tables (the technique of Mark
// Adler's crc32c.c).
//
// A round of three 2728-byte blocks covers an 8 KiB page but its last 8
// bytes; whatever the rounds leave runs on as one chain.
constexpr std::size_t kBlock = 2728;
static_assert(kBlock % 8 == 0, "each stream steps eight bytes at a time");

/// The operator "advance the raw (uninverted) register over `len` zero
/// bytes", one table per register byte.
struct ZeroShift {
  std::uint32_t byte[4][256];
};

ZeroShift BuildZeroShift(std::size_t len) {
  // Column j: the register holding only bit j, advanced over `len` zero
  // bytes one table step at a time.
  const std::array<std::uint32_t, 256>& table = Table();
  std::uint32_t column[32];
  for (int j = 0; j < 32; ++j) {
    std::uint32_t crc = 1u << j;
    for (std::size_t i = 0; i < len; ++i) crc = (crc >> 8) ^ table[crc & 0xFF];
    column[j] = crc;
  }
  ZeroShift shift{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t image = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) image ^= column[8 * k + bit];
      }
      shift.byte[k][b] = image;
    }
  }
  return shift;
}

std::uint32_t Shift(const ZeroShift& shift, std::uint32_t crc) {
  return shift.byte[0][crc & 0xFF] ^ shift.byte[1][(crc >> 8) & 0xFF] ^
         shift.byte[2][(crc >> 16) & 0xFF] ^ shift.byte[3][crc >> 24];
}

std::uint64_t Load64(const std::byte* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

// The SSE4.2 crc32 instruction implements the same reflected Castagnoli
// CRC as the table; the ~init/~result inversion is done here exactly as
// in Crc32cPortable.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::byte* data, std::size_t n, std::uint32_t init) {
  static const ZeroShift kShift = BuildZeroShift(kBlock);
  std::uint64_t crc = ~init;
  for (; n >= 3 * kBlock; data += 3 * kBlock, n -= 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      crc = _mm_crc32_u64(crc, Load64(data + i));
      crc1 = _mm_crc32_u64(crc1, Load64(data + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(data + 2 * kBlock + i));
    }
    crc = Shift(kShift, static_cast<std::uint32_t>(crc)) ^ crc1;
    crc = Shift(kShift, static_cast<std::uint32_t>(crc)) ^ crc2;
  }
  for (; n >= 8; data += 8, n -= 8) crc = _mm_crc32_u64(crc, Load64(data));
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
  const std::array<std::uint32_t, 256>& table = Table();
  std::uint32_t crc = ~init;
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^
          table[(crc ^ static_cast<std::uint32_t>(data[i])) & 0xFF];
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
