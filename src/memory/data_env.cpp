#include "memory/data_env.h"

#include <algorithm>

#include "common/error.h"

namespace homp::mem {

std::vector<DeviceDataEnv::Entry>::const_iterator DeviceDataEnv::find_slot(
    const std::string& name) const {
  return std::lower_bound(
      maps_.begin(), maps_.end(), name,
      [](const Entry& e, const std::string& n) { return e.first < n; });
}

std::vector<DeviceDataEnv::Entry>::const_iterator DeviceDataEnv::find(
    const std::string& name) const {
  const auto it = find_slot(name);
  return it != maps_.end() && it->first == name ? it : maps_.end();
}

void DeviceDataEnv::add(const std::string& name, DeviceMapping* mapping) {
  HOMP_ASSERT(mapping != nullptr);
  const auto it = find_slot(name);
  HOMP_REQUIRE(it == maps_.end() || it->first != name,
               "variable '" + name + "' mapped twice in one environment");
  maps_.emplace(it, name, mapping);
}

DeviceMapping& DeviceDataEnv::mapping(const std::string& name) const {
  const auto it = find(name);
  HOMP_REQUIRE(it != maps_.end(),
               "variable '" + name + "' is not mapped in this offload");
  return *it->second;
}

double DeviceDataEnv::total_bytes_in() const {
  double total = 0.0;
  for (const auto& [_, m] : maps_) total += m->bytes_in();
  return total;
}

double DeviceDataEnv::total_bytes_out() const {
  double total = 0.0;
  for (const auto& [_, m] : maps_) total += m->bytes_out();
  return total;
}

void DeviceDataEnv::copy_in_all() const {
  for (const auto& [_, m] : maps_) m->copy_in();
}

void DeviceDataEnv::copy_out_all() const {
  for (const auto& [_, m] : maps_) m->copy_out();
}

}  // namespace homp::mem
