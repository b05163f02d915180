#include "common/checksum.h"

#include <cstring>

namespace homp {

namespace {

inline std::uint64_t load_word(const unsigned char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

void Checksummer::update(const void* data, std::size_t bytes) noexcept {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  total_ += bytes;
  // Absorb 8-byte words; buffer the tail so digests do not depend on
  // update() segmentation.
  if (carry_len_ != 0) {
    while (carry_len_ < 8 && bytes > 0) {
      carry_[carry_len_++] = *p++;
      --bytes;
    }
    if (carry_len_ < 8) return;
    state_ = mix64(state_ ^ load_word(carry_));
    carry_len_ = 0;
  }
  std::uint64_t h = state_;
  while (bytes >= 8) {
    h = mix64(h ^ load_word(p));
    p += 8;
    bytes -= 8;
  }
  state_ = h;
  while (bytes > 0) {
    carry_[carry_len_++] = *p++;
    --bytes;
  }
}

std::uint64_t Checksummer::digest() const noexcept {
  std::uint64_t h = state_;
  if (carry_len_ != 0) {
    unsigned char tail[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::memcpy(tail, carry_, carry_len_);
    h = mix64(h ^ load_word(tail));
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
