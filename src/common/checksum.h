#ifndef HOMP_COMMON_CHECKSUM_H
#define HOMP_COMMON_CHECKSUM_H

/// \file checksum.h
/// Fast payload checksums for the data-integrity layer
/// (docs/RESILIENCE.md "Integrity").
///
/// kMix64 takes 8 bytes per step through the splitmix64 finalizer:
/// cheap enough that verifying every chunk payload stays within the
/// < 3% runtime-overhead budget. It is the only kind.
///
/// Checksums are *error-detection* codes, not cryptographic digests:
/// the adversary is a flipped DMA bit, not an attacker.

#include <cstddef>
#include <cstdint>

namespace homp {

enum class ChecksumKind {
  kMix64,
};

/// splitmix64 finalizer — a cheap, well-distributed 64-bit mixer. Also
/// used to derive corruption seeds and to combine per-array checksums
/// into one value. mix64(x) == 0 has a single preimage, so callers that
/// need a guaranteed-nonzero value OR in a low bit themselves.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Streaming checksummer. Results are independent of how the input is
/// split across update() calls, so a strided region can be fed run by
/// run and compared against a contiguous traversal of the same bytes.
class Checksummer {
 public:
  explicit Checksummer(ChecksumKind /*kind*/) noexcept {}

  void update(const void* data, std::size_t bytes) noexcept;

  /// Final value; includes the total length, so "abc" and "abc\0"
  /// differ. May be called repeatedly (update() between calls is fine).
  std::uint64_t digest() const noexcept;

 private:
  std::uint64_t state_ = 0;
  std::uint64_t total_ = 0;
  unsigned char carry_[8] = {};  ///< partial word between updates
  std::size_t carry_len_ = 0;
};

/// One-shot convenience over a contiguous buffer.
std::uint64_t checksum_bytes(ChecksumKind kind, const void* data,
                             std::size_t bytes) noexcept;

}  // namespace homp

#endif  // HOMP_COMMON_CHECKSUM_H
