#include "memory/device_mapping.h"

#include <cstring>

#include "common/checksum.h"

namespace homp::mem {

DeviceMapping::DeviceMapping(const MapSpec& spec, dist::Region owned,
                             dist::Region footprint, bool shared,
                             bool materialize)
    : spec_(&spec),
      owned_(std::move(owned)),
      footprint_(std::move(footprint)),
      shared_(shared),
      materialized_(materialize && !shared) {
  HOMP_REQUIRE(owned_.rank() == spec.region.rank(),
               "owned region rank mismatch for '" + spec.name + "'");
  HOMP_REQUIRE(footprint_.rank() == spec.region.rank(),
               "footprint region rank mismatch for '" + spec.name + "'");
  HOMP_REQUIRE(footprint_.contains(owned_),
               "owned region " + owned_.to_string() +
                   " escapes footprint " + footprint_.to_string() +
                   " for '" + spec.name + "'");
  HOMP_REQUIRE(spec.region.contains(footprint_),
               "footprint " + footprint_.to_string() +
                   " escapes mapped region " + spec.region.to_string() +
                   " for '" + spec.name + "'");
  local_strides_.fill(1);
  for (std::size_t d = footprint_.rank(); d-- > 1;) {
    local_strides_[d - 1] = local_strides_[d] * footprint_.dim(d).size();
  }
  const std::size_t bytes =
      static_cast<std::size_t>(footprint_.volume()) * spec.binding.elem_size;
  if (materialized_ && bytes > 0) {
    storage_ = copies_in(spec.dir)
                   ? std::make_unique_for_overwrite<std::byte[]>(bytes)
                   : std::make_unique<std::byte[]>(bytes);
  }
}

double DeviceMapping::bytes_in() const noexcept {
  if (shared_ || !copies_in(spec_->dir)) return 0.0;
  return static_cast<double>(footprint_.volume()) *
         static_cast<double>(spec_->binding.elem_size);
}

double DeviceMapping::bytes_out() const noexcept {
  if (shared_ || !copies_out(spec_->dir)) return 0.0;
  return static_cast<double>(owned_.volume()) *
         static_cast<double>(spec_->binding.elem_size);
}

void DeviceMapping::copy_in() {
  if (!materialized_ || !copies_in(spec_->dir)) return;
  copy_region(footprint_, /*to_device=*/true);
}

void DeviceMapping::copy_out() {
  if (!materialized_ || !copies_out(spec_->dir)) return;
  copy_region(owned_, /*to_device=*/false);
}

void DeviceMapping::push_to_host(const dist::Region& r) {
  if (!materialized_) return;
  HOMP_REQUIRE(footprint_.contains(r),
               "push_to_host region escapes footprint of '" + spec_->name +
                   "'");
  copy_region(r, /*to_device=*/false);
}

void DeviceMapping::pull_from_host(const dist::Region& r) {
  if (!materialized_) return;
  HOMP_REQUIRE(footprint_.contains(r),
               "pull_from_host region escapes footprint of '" + spec_->name +
                   "'");
  copy_region(r, /*to_device=*/true);
}

template <typename Fn>
void DeviceMapping::for_each_run(const dist::Region& region, Fn&& fn) const {
  if (region.empty()) return;
  const std::size_t esz = spec_->binding.elem_size;
  const auto& hstrides = spec_->binding.strides;
  const std::size_t rank = region.rank();

  // Innermost dimension is contiguous in both layouts (host is row-major,
  // local storage is packed row-major over the footprint), so visit whole
  // innermost runs and loop over the outer dimensions.
  const dist::Range inner = region.dim(rank - 1);
  const std::size_t run_bytes = static_cast<std::size_t>(inner.size()) * esz;

  auto host_off = [&](long long i0, long long i1, long long i2) {
    long long off = 0;
    const long long idx[3] = {i0, i1, i2};
    for (std::size_t d = 0; d < rank; ++d) off += idx[d] * hstrides[d];
    return static_cast<std::size_t>(off) * esz;
  };
  auto local_off = [&](long long i0, long long i1, long long i2) {
    long long off = 0;
    const long long idx[3] = {i0, i1, i2};
    for (std::size_t d = 0; d < rank; ++d) {
      off += (idx[d] - footprint_.dim(d).lo) * local_strides_[d];
    }
    return static_cast<std::size_t>(off) * esz;
  };
  auto visit = [&](long long i0, long long i1, long long i2) {
    fn(host_off(i0, i1, i2), local_off(i0, i1, i2), run_bytes);
  };

  switch (rank) {
    case 1:
      visit(inner.lo, 0, 0);
      break;
    case 2:
      for (long long i = region.dim(0).lo; i < region.dim(0).hi; ++i) {
        visit(i, inner.lo, 0);
      }
      break;
    case 3:
      for (long long i = region.dim(0).lo; i < region.dim(0).hi; ++i) {
        for (long long j = region.dim(1).lo; j < region.dim(1).hi; ++j) {
          visit(i, j, inner.lo);
        }
      }
      break;
    default:
      HOMP_ASSERT(false);
  }
}

void DeviceMapping::copy_region(const dist::Region& region, bool to_device) {
  auto* host = static_cast<std::byte*>(spec_->binding.base);
  for_each_run(region, [&](std::size_t hoff, std::size_t loff,
                           std::size_t run_bytes) {
    std::byte* h = host + hoff;
    std::byte* l = storage_.get() + loff;
    if (to_device) {
      std::memcpy(l, h, run_bytes);
    } else {
      std::memcpy(h, l, run_bytes);
    }
  });
}

std::uint64_t DeviceMapping::checksum_side(const dist::Region& r,
                                           bool device_side) const {
  HOMP_REQUIRE(footprint_.contains(r) || r.empty(),
               "checksum region escapes footprint of '" + spec_->name + "'");
  const std::byte* base = device_side
                              ? storage_.get()
                              : static_cast<const std::byte*>(
                                    spec_->binding.base);
  Checksummer c(ChecksumKind::kMix64);
  for_each_run(r, [&](std::size_t hoff, std::size_t loff,
                      std::size_t run_bytes) {
    c.update(base + (device_side ? loff : hoff), run_bytes);
  });
  return c.digest();
}

std::uint64_t DeviceMapping::checksum_device(const dist::Region& r) const {
  if (shared_ || !materialized_) return 0;
  return checksum_side(r, /*device_side=*/true);
}

std::uint64_t DeviceMapping::checksum_host(const dist::Region& r) const {
  if (shared_) return 0;
  return checksum_side(r, /*device_side=*/false);
}

void DeviceMapping::corrupt_side(const dist::Region& r, std::uint64_t seed,
                                 bool device_side) {
  if (seed == 0 || r.empty()) return;
  HOMP_REQUIRE(footprint_.contains(r),
               "corruption region escapes footprint of '" + spec_->name + "'");
  const std::size_t total =
      static_cast<std::size_t>(r.volume()) * spec_->binding.elem_size;
  std::byte* base = device_side
                        ? storage_.get()
                        : static_cast<std::byte*>(spec_->binding.base);
  const std::size_t flips = 1 + static_cast<std::size_t>(seed % 3);
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t pos = static_cast<std::size_t>(
        mix64(seed ^ (0x517cc1b727220a95ULL * (f + 1))) % total);
    const std::byte mask =
        static_cast<std::byte>((mix64(seed + f) & 0xff) | 1);  // nonzero
    // Locate `pos` within the run walk and flip it in place.
    std::size_t cum = 0;
    for_each_run(r, [&](std::size_t hoff, std::size_t loff,
                        std::size_t run_bytes) {
      const std::size_t off = device_side ? loff : hoff;
      if (pos >= cum && pos < cum + run_bytes) {
        base[off + (pos - cum)] ^= mask;
      }
      cum += run_bytes;
    });
  }
}

void DeviceMapping::corrupt_device(const dist::Region& r, std::uint64_t seed) {
  if (shared_ || !materialized_) return;
  corrupt_side(r, seed, /*device_side=*/true);
}

void DeviceMapping::corrupt_host(const dist::Region& r, std::uint64_t seed) {
  if (shared_) return;  // aliased: the host copy is the only copy
  corrupt_side(r, seed, /*device_side=*/false);
}

}  // namespace homp::mem
