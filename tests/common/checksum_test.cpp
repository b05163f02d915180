#include "common/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

// Properties the data-integrity layer relies on (docs/RESILIENCE.md
// "Integrity"). No digest value is pinned: a faster checksummer may
// change every value and still keep these.

namespace homp {
namespace {

std::vector<unsigned char> payload(std::size_t n) {
  std::vector<unsigned char> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  return v;
}

std::uint64_t one_shot(const std::vector<unsigned char>& v) {
  return checksum_bytes(ChecksumKind::kMix64, v.data(), v.size());
}

// Two whole 64-byte blocks and a 29-byte partial one (three words and a
// 5-byte tail), so splits fall on and inside block and word boundaries.
constexpr std::size_t kTwoBlocksAndAPart = 2 * Checksummer::kBlockBytes + 29;

TEST(Checksum, DigestDoesNotDependOnHowUpdateSplitsTheInput) {
  const auto v = payload(kTwoBlocksAndAPart);
  const std::uint64_t whole = one_shot(v);
  for (std::size_t i = 0; i <= v.size(); ++i) {
    for (std::size_t j = i; j <= v.size(); ++j) {
      Checksummer c(ChecksumKind::kMix64);
      c.update(v.data(), i);
      c.update(v.data() + i, j - i);
      c.update(v.data() + j, v.size() - j);
      EXPECT_EQ(c.digest(), whole) << "split at " << i << " and " << j;
    }
  }
  Checksummer bytewise(ChecksumKind::kMix64);
  for (unsigned char b : v) bytewise.update(&b, 1);
  EXPECT_EQ(bytewise.digest(), whole);
}

TEST(Checksum, DigestDependsOnLength) {
  const char abc[] = "abc";  // four bytes with the terminating NUL
  EXPECT_NE(checksum_bytes(ChecksumKind::kMix64, abc, 3),
            checksum_bytes(ChecksumKind::kMix64, abc, 4));
  const std::vector<unsigned char> zeros(16, 0);
  EXPECT_NE(checksum_bytes(ChecksumKind::kMix64, zeros.data(), 8),
            checksum_bytes(ChecksumKind::kMix64, zeros.data(), 16));
}

TEST(Checksum, DigestCanBeTakenRepeatedly) {
  const auto v = payload(21);
  Checksummer c(ChecksumKind::kMix64);
  c.update(v.data(), 13);
  const std::uint64_t first = c.digest();
  EXPECT_EQ(c.digest(), first);
  // Updating after a digest continues the same stream.
  c.update(v.data() + 13, v.size() - 13);
  EXPECT_EQ(c.digest(), one_shot(v));
  EXPECT_EQ(c.digest(), one_shot(v));
}

TEST(Checksum, EverySingleBitFlipChangesTheDigest) {
  const auto v = payload(kTwoBlocksAndAPart);
  const std::uint64_t clean = one_shot(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = v;
      flipped[i] = static_cast<unsigned char>(flipped[i] ^ (1u << bit));
      EXPECT_NE(one_shot(flipped), clean) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Checksum, DigestDependsOnWordOrder) {
  // Digest of `v` with the 8-byte words at byte offsets a and b swapped.
  auto swapped = [](std::vector<unsigned char> v, std::size_t a,
                    std::size_t b) {
    std::swap_ranges(v.begin() + static_cast<std::ptrdiff_t>(a),
                     v.begin() + static_cast<std::ptrdiff_t>(a + 8),
                     v.begin() + static_cast<std::ptrdiff_t>(b));
    return one_shot(v);
  };
  // Words 1 and 5 of a single block feed different lanes from the same
  // start, so only the order in which digest() folds the lanes tells
  // the two inputs apart.
  const auto block = payload(Checksummer::kBlockBytes);
  EXPECT_NE(swapped(block, 8, 40), one_shot(block));
  // Word 3 of the first and of the second block feed the same lane.
  const auto v = payload(kTwoBlocksAndAPart);
  EXPECT_NE(swapped(v, 24, Checksummer::kBlockBytes + 24), one_shot(v));

  const std::vector<unsigned char> zeros(2 * Checksummer::kBlockBytes, 0);
  EXPECT_NE(checksum_bytes(ChecksumKind::kMix64, zeros.data(),
                           Checksummer::kBlockBytes),
            checksum_bytes(ChecksumKind::kMix64, zeros.data(), zeros.size()));
}

}  // namespace
}  // namespace homp
