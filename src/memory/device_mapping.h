#ifndef HOMP_MEMORY_DEVICE_MAPPING_H
#define HOMP_MEMORY_DEVICE_MAPPING_H

/// \file device_mapping.h
/// Materialization of one mapped array on one device.
///
/// Discrete-memory devices get their own packed storage holding exactly the
/// footprint subregion; copy_in/copy_out move real bytes between the host
/// array and that storage, so a wrong distribution produces wrong results
/// (not just wrong timing). Shared-memory mappings alias host storage —
/// the "share instead of copy" optimization of §V-C — and transfer nothing.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "dist/range.h"
#include "memory/map_spec.h"
#include "memory/view.h"

namespace homp::mem {

class DeviceMapping {
 public:
  /// \param owned      subregion this device is responsible for writing
  ///                   back (its partition part; whole region if FULL)
  /// \param footprint  subregion that must be readable on the device
  ///                   (owned plus halo; whole region if FULL)
  /// \param shared     alias host memory instead of copying
  /// \param materialize when false, no storage is allocated and copies are
  ///                   no-ops — pure-simulation mode where only the byte
  ///                   accounting is needed
  DeviceMapping(const MapSpec& spec, dist::Region owned,
                dist::Region footprint, bool shared, bool materialize);

  DeviceMapping(DeviceMapping&&) = default;
  DeviceMapping& operator=(DeviceMapping&&) = default;

  const MapSpec& spec() const noexcept { return *spec_; }
  const dist::Region& owned() const noexcept { return owned_; }
  const dist::Region& footprint() const noexcept { return footprint_; }
  bool shared() const noexcept { return shared_; }

  /// Bytes that must cross the interconnect into the device before the
  /// kernel runs (0 for shared mappings or directions without 'to').
  double bytes_in() const noexcept;

  /// Bytes that must cross back after the kernel (0 for shared mappings or
  /// directions without 'from').
  double bytes_out() const noexcept;

  /// Perform the host->device copy of the footprint (no-op when shared or
  /// not materialized).
  void copy_in();

  /// Perform the device->host copy of the owned region.
  void copy_out();

  /// Explicit subregion copies used by halo exchange: move `r` (which must
  /// lie inside the footprint) between local storage and the host array,
  /// regardless of the map direction. No-ops when shared or not
  /// materialized — aliased storage is already coherent.
  void push_to_host(const dist::Region& r);
  void pull_from_host(const dist::Region& r);

  /// Data-integrity hooks (docs/RESILIENCE.md "Integrity"). `r` must lie
  /// inside the footprint. Checksums walk the same innermost-run
  /// traversal as the copies, so device- and host-side sums of intact
  /// data agree. Device-side calls return 0 / no-op when the mapping is
  /// shared or not materialized — aliased or modeled storage has no
  /// separate payload to verify or damage.
  std::uint64_t checksum_device(const dist::Region& r) const;
  std::uint64_t checksum_host(const dist::Region& r) const;

  /// Flip a few seeded bytes of `r` in device storage / the host array,
  /// simulating silent corruption (`seed` != 0 selects which bytes and
  /// masks). Host-side corruption refuses shared mappings: there the
  /// host bytes are the kernel's only copy and no re-transfer could
  /// repair them.
  void corrupt_device(const dist::Region& r, std::uint64_t seed);
  void corrupt_host(const dist::Region& r, std::uint64_t seed);

  /// Global-indexed view for kernel execution. Requires materialization
  /// (or shared aliasing). The view covers the footprint.
  template <typename T>
  ArrayView<T> view() {
    HOMP_REQUIRE(spec_->binding.elem_size == sizeof(T),
                 "view element type size mismatch for '" + spec_->name + "'");
    if (shared_) {
      // Aliased host storage: footprint must be the whole array so that
      // packed-footprint strides coincide with host strides (guaranteed by
      // the runtime for shared mappings of partitioned arrays via
      // whole-array footprints on the host device).
      return ArrayView<T>(static_cast<T*>(spec_->binding.base),
                          dist::Region::of_shape(spec_->binding.shape));
    }
    HOMP_REQUIRE(materialized_,
                 "kernel body execution requested on a non-materialized "
                 "mapping of '" +
                     spec_->name + "'");
    return ArrayView<T>(reinterpret_cast<T*>(storage_.get()), footprint_);
  }

 private:
  /// Copy `region` between host array and packed local storage.
  /// to_device=true: host -> local; false: local -> host.
  void copy_region(const dist::Region& region, bool to_device);

  /// Walk `region` as contiguous innermost runs, calling
  /// fn(host_byte_off, local_byte_off, run_bytes) per run — the single
  /// traversal shared by copies, checksums and corruption so all agree
  /// on byte order.
  template <typename Fn>
  void for_each_run(const dist::Region& region, Fn&& fn) const;

  std::uint64_t checksum_side(const dist::Region& r, bool device_side) const;
  void corrupt_side(const dist::Region& r, std::uint64_t seed,
                    bool device_side);

  const MapSpec* spec_;  // owned by the offload descriptor, outlives this
  dist::Region owned_;
  dist::Region footprint_;
  bool shared_;
  bool materialized_;
  /// Packed footprint; null when empty or not materialized. Zeroed only
  /// for maps that do not copy in: copy_in() overwrites every byte of
  /// the rest before anything reads them.
  std::unique_ptr<std::byte[]> storage_;
  /// Packed strides of the footprint, one per dimension.
  std::array<long long, dist::Region::kMaxRank> local_strides_{};
};

}  // namespace homp::mem

#endif  // HOMP_MEMORY_DEVICE_MAPPING_H
