// CRC32C (Castagnoli) page checksums.
//
// Every page image carries a CRC32C trailer maintained out of band by the
// simulated disk (the way T10 DIF keeps 8 protection bytes per sector
// outside the logical payload), so the full page_size stays available to
// records and simulated costs are unaffected. The buffer manager computes
// the checksum over the payload it hands down on write-back and verifies
// it on every miss read, turning silently corrupted page images into
// Status::Corruption instead of undefined navigation behaviour.
//
// On x86-64 CPUs with SSE4.2 the checksum runs on the crc32 instruction,
// eight bytes per step in three interleaved streams, picked once per
// process at run time; elsewhere it falls back to a byte-wise table walk.
// Both paths compute the same values, so page trailers and saved files are
// the same on every machine.
#ifndef NAVPATH_STORAGE_CHECKSUM_H_
#define NAVPATH_STORAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace navpath {

/// CRC32C of `n` bytes, seeded with `init` (chainable: pass a previous
/// result to continue a running checksum).
std::uint32_t Crc32c(const std::byte* data, std::size_t n,
                     std::uint32_t init = 0);

/// The byte-wise table implementation: Crc32c's fallback on CPUs without
/// SSE4.2, and the reference the hardware path is tested against.
std::uint32_t Crc32cPortable(const std::byte* data, std::size_t n,
                             std::uint32_t init = 0);

/// The per-page trailer: checksum plus a reserved word kept for future
/// integrity metadata (epoch / media-error flags). 8 bytes, like a DIF
/// protection-information field.
struct PageTrailer {
  std::uint32_t crc32c = 0;
  std::uint32_t reserved = 0;
};

constexpr std::size_t kPageTrailerBytes = 8;

}  // namespace navpath

#endif  // NAVPATH_STORAGE_CHECKSUM_H_
