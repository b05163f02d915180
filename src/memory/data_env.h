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
#include <map>
#include <string>

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
  DeviceDataEnv() = default;

  /// Register a mapping under `name`; names must be unique per env.
  void add(const std::string& name, DeviceMapping* mapping);

  /// New env containing this env's mappings — the base for a per-chunk
  /// overlay.
  DeviceDataEnv fork() const { return *this; }

  bool contains(const std::string& name) const {
    return maps_.count(name) != 0;
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
  const std::map<std::string, DeviceMapping*>& mappings() const noexcept {
    return maps_;
  }
  std::size_t size() const noexcept { return maps_.size(); }

 private:
  std::map<std::string, DeviceMapping*> maps_;
};

}  // namespace homp::mem

#endif  // HOMP_MEMORY_DATA_ENV_H
