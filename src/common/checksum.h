#ifndef HOMP_COMMON_CHECKSUM_H
#define HOMP_COMMON_CHECKSUM_H

/// \file checksum.h
/// Fast payload checksums for the data-integrity layer
/// (docs/RESILIENCE.md "Integrity").
///
/// kMix64, the only kind, runs 8 independent splitmix64 lanes over
/// 64-byte blocks: lane i absorbs word i (bytes 8i..8i+7) of every
/// block, one mix64 step per word, so eight multiply chains overlap
/// instead of queueing behind one another. digest() folds the lanes in
/// lane order, then the words of the partial block (the last one
/// zero-padded), then the total length. On a 4-core Xeon VM (GCC 12.2,
/// -O2) perfbench's `common.checksum_gb_s` probe reads 3.2-3.5 GB/s over
/// 1 MiB and 64 MiB arrays, against 1.2 GB/s for one serial chain; 4
/// lanes read less and 16 no more. The integrity layer only ever
/// compares sums for equality, so no value is meaningful beyond "same
/// bytes, same length".
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
/// split across update() calls — a partial block waits in a 64-byte
/// carry for the next call — so a strided region can be fed run by run
/// and compared against a contiguous traversal of the same bytes.
class Checksummer {
 public:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kBlockBytes = kLanes * 8;

  explicit Checksummer(ChecksumKind /*kind*/) noexcept {}

  void update(const void* data, std::size_t bytes) noexcept;

  /// Final value; includes the total length, so "abc" and "abc\0"
  /// differ. May be called repeatedly (update() between calls is fine).
  std::uint64_t digest() const noexcept;

 private:
  /// Fold `blocks` whole blocks starting at `p` into the lanes.
  void absorb(const unsigned char* p, std::size_t blocks) noexcept;

  std::uint64_t lanes_[kLanes] = {};
  std::uint64_t total_ = 0;
  unsigned char carry_[kBlockBytes] = {};  ///< partial block between updates
  std::size_t carry_len_ = 0;
};

/// One-shot convenience over a contiguous buffer.
std::uint64_t checksum_bytes(ChecksumKind kind, const void* data,
                             std::size_t bytes) noexcept;

}  // namespace homp

#endif  // HOMP_COMMON_CHECKSUM_H
