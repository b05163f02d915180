#ifndef HOMP_RUNTIME_ARRAY_PLAN_H
#define HOMP_RUNTIME_ARRAY_PLAN_H

/// \file array_plan.h
/// The data half of the offload planner, shared by OffloadExecution and
/// DataRegion: device-list and map-clause validation, ALIGN resolution
/// (§V-D) and the carve of one device's slice of an array.

#include <string>
#include <vector>

#include "dist/distribution.h"
#include "machine/device.h"
#include "memory/map_spec.h"

namespace homp::rt {

/// Throw ConfigError unless `device_ids` is non-empty, names devices of
/// `machine` only and lists none twice.
void check_device_ids(const mach::MachineDescriptor& machine,
                      const std::vector<int>& device_ids);

/// How one mapped array participates in the distribution.
struct ArrayPlan {
  const mem::MapSpec* spec = nullptr;
  int pdim = -1;              ///< partitioned dimension, -1 = FULL
  bool follows_loop = false;  ///< slices derive from the loop's parts
  double ratio = 1.0;         ///< composite ALIGN ratio to the root
  dist::Distribution static_dist;  ///< for partitioned non-following arrays
};

/// Validate `maps` for `num_devices` devices and resolve every ALIGN
/// chain through one dist::AlignmentGraph, whose roots are the BLOCK
/// arrays and `loop_label`.
std::vector<ArrayPlan> plan_arrays(const std::vector<mem::MapSpec>& maps,
                                   std::size_t num_devices,
                                   const std::string& loop_label);

/// One device's slice of an array: what it owns and what it holds (owned
/// plus halo).
struct ArraySlice {
  dist::Region owned;
  dist::Region footprint;
};

/// Slot `slot`'s slice of an array that does not follow the loop: its part
/// of the root's distribution, or the whole array if FULL. A slot that
/// owns nothing holds no halo either.
ArraySlice pinned_slice(const ArrayPlan& plan, std::size_t slot);

/// The slice of a loop-following array that the loop range `loop_part`
/// touches. If that slice is empty, it keeps its halo only with
/// `halo_if_empty` (a chunk's iterations may still read it).
ArraySlice loop_slice(const ArrayPlan& plan, const dist::Range& loop_part,
                      bool halo_if_empty);

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_ARRAY_PLAN_H
