#ifndef HOMP_MEMORY_DATA_ENV_H
#define HOMP_MEMORY_DATA_ENV_H

/// \file data_env.h
/// Per-device data environment: the set of DeviceMappings a kernel chunk
/// executes against, looked up by variable name — the simulated analogue
/// of the device-resident data environment OpenMP builds around a target
/// region.
///
/// Environments are *views*: the mappings themselves live in a
/// MappingStore owned by the offload execution. With pipelined chunk
/// scheduling, two chunks of the same array can be in flight on one device
/// (one computing, one prefetching), so each chunk gets its own
/// environment combining the device's static mappings with that chunk's
/// slice mappings.

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "memory/device_mapping.h"

namespace homp::mem {

/// Stable-address owner of DeviceMappings (std::deque never relocates).
class MappingStore {
 public:
  template <typename... Args>
  DeviceMapping& create(Args&&... args) {
    return store_.emplace_back(std::forward<Args>(args)...);
  }

 private:
  std::deque<DeviceMapping> store_;
};

class DeviceDataEnv {
 public:
  using Entry = std::pair<std::string, DeviceMapping*>;

  DeviceDataEnv() = default;

  /// Register a mapping under `name`; names must be unique per env.
  void add(const std::string& name, DeviceMapping* mapping);

  /// New env containing this env's mappings, with room for `extra` more
  /// — the base for a per-chunk overlay. It takes over `spare`'s
  /// capacity, so a recycled env forks without allocating.
  DeviceDataEnv fork(std::size_t extra = 0, DeviceDataEnv spare = {}) const {
    spare.maps_.reserve(maps_.size() + extra);
    spare.maps_.assign(maps_.begin(), maps_.end());
    return spare;
  }

  bool contains(const std::string& name) const {
    return find(name) != maps_.end();
  }

  DeviceMapping& mapping(const std::string& name) const;

  /// Global-indexed view of a mapped array for kernel bodies.
  template <typename T>
  ArrayView<T> view(const std::string& name) const {
    return mapping(name).view<T>();
  }

  /// Total interconnect bytes for copy-in / copy-out of all mappings.
  double total_bytes_in() const;
  double total_bytes_out() const;

  void copy_in_all() const;
  void copy_out_all() const;

  /// Every mapping, by name in name order.
  const std::vector<Entry>& mappings() const noexcept { return maps_; }
  std::size_t size() const noexcept { return maps_.size(); }

 private:
  /// First entry whose name is not less than `name`.
  std::vector<Entry>::const_iterator find_slot(const std::string& name) const;
  /// The entry named `name`, or end().
  std::vector<Entry>::const_iterator find(const std::string& name) const;

  std::vector<Entry> maps_;  ///< sorted by name, a handful of entries
};

}  // namespace homp::mem

#endif  // HOMP_MEMORY_DATA_ENV_H
