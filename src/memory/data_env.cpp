#include "memory/data_env.h"

#include "common/error.h"

namespace homp::mem {

void DeviceDataEnv::add(const std::string& name, DeviceMapping* mapping) {
  HOMP_ASSERT(mapping != nullptr);
  HOMP_REQUIRE(maps_.emplace(name, mapping).second,
               "variable '" + name + "' mapped twice in one environment");
}

DeviceMapping& DeviceDataEnv::mapping(const std::string& name) const {
  auto it = maps_.find(name);
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
