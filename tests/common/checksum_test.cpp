#include "common/checksum.h"

#include <gtest/gtest.h>

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

TEST(Checksum, DigestDoesNotDependOnHowUpdateSplitsTheInput) {
  // 29 bytes: three whole 8-byte words and a 5-byte tail, so the split
  // points fall both on and inside word boundaries.
  const auto v = payload(29);
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
  const auto v = payload(19);
  const std::uint64_t clean = one_shot(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = v;
      flipped[i] = static_cast<unsigned char>(flipped[i] ^ (1u << bit));
      EXPECT_NE(one_shot(flipped), clean) << "byte " << i << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace homp
