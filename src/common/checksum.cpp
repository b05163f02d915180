#include "common/checksum.h"

#include <algorithm>
#include <cstring>

namespace homp {

namespace {

inline std::uint64_t load_word(const unsigned char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

void Checksummer::absorb(const unsigned char* p, std::size_t blocks) noexcept {
  // Named locals keep the eight chains in registers across the loop.
  std::uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2],
                l3 = lanes_[3], l4 = lanes_[4], l5 = lanes_[5],
                l6 = lanes_[6], l7 = lanes_[7];
  for (; blocks > 0; --blocks, p += kBlockBytes) {
    l0 = mix64(l0 ^ load_word(p));
    l1 = mix64(l1 ^ load_word(p + 8));
    l2 = mix64(l2 ^ load_word(p + 16));
    l3 = mix64(l3 ^ load_word(p + 24));
    l4 = mix64(l4 ^ load_word(p + 32));
    l5 = mix64(l5 ^ load_word(p + 40));
    l6 = mix64(l6 ^ load_word(p + 48));
    l7 = mix64(l7 ^ load_word(p + 56));
  }
  lanes_[0] = l0;
  lanes_[1] = l1;
  lanes_[2] = l2;
  lanes_[3] = l3;
  lanes_[4] = l4;
  lanes_[5] = l5;
  lanes_[6] = l6;
  lanes_[7] = l7;
}

void Checksummer::update(const void* data, std::size_t bytes) noexcept {
  if (bytes == 0) return;  // `data` may then be null
  const unsigned char* p = static_cast<const unsigned char*>(data);
  total_ += bytes;
  // Complete a carried partial block first, so digests do not depend on
  // update() segmentation.
  if (carry_len_ != 0) {
    const std::size_t take = std::min(bytes, kBlockBytes - carry_len_);
    std::memcpy(carry_ + carry_len_, p, take);
    carry_len_ += take;
    p += take;
    bytes -= take;
    if (carry_len_ < kBlockBytes) return;
    absorb(carry_, 1);
    carry_len_ = 0;
  }
  absorb(p, bytes / kBlockBytes);
  carry_len_ = bytes % kBlockBytes;
  std::memcpy(carry_, p + (bytes - carry_len_), carry_len_);
}

std::uint64_t Checksummer::digest() const noexcept {
  std::uint64_t h = 0;
  for (std::uint64_t lane : lanes_) h = mix64(h ^ lane);
  // The partial block, word by word; its last word is zero-padded.
  for (std::size_t off = 0; off < carry_len_; off += 8) {
    unsigned char word[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::memcpy(word, carry_ + off, std::min(carry_len_ - off, sizeof word));
    h = mix64(h ^ load_word(word));
  }
  return mix64(h ^ total_);
}

std::uint64_t checksum_bytes(ChecksumKind kind, const void* data,
                             std::size_t bytes) noexcept {
  Checksummer c(kind);
  c.update(data, bytes);
  return c.digest();
}

}  // namespace homp
