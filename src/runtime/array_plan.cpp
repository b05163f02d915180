#include "runtime/array_plan.h"

#include <set>

#include "common/error.h"
#include "dist/align.h"

namespace homp::rt {

void check_device_ids(const mach::MachineDescriptor& machine,
                      const std::vector<int>& device_ids) {
  HOMP_REQUIRE(!device_ids.empty(), "no target devices");
  for (int id : device_ids) {
    HOMP_REQUIRE(id >= 0 &&
                     static_cast<std::size_t>(id) < machine.devices.size(),
                 "device id " + std::to_string(id) + " out of range");
  }
  for (std::size_t i = 0; i < device_ids.size(); ++i) {
    for (std::size_t j = i + 1; j < device_ids.size(); ++j) {
      HOMP_REQUIRE(device_ids[i] != device_ids[j],
                   "device " + std::to_string(device_ids[i]) +
                       " listed twice");
    }
  }
}

std::vector<ArrayPlan> plan_arrays(const std::vector<mem::MapSpec>& maps,
                                   std::size_t num_devices,
                                   const std::string& loop_label) {
  // ALIGN chains resolve through one graph (§V-D): BLOCK arrays and the
  // loop label are its roots.
  std::set<std::string> names;
  dist::AlignmentGraph align;
  for (const auto& s : maps) {
    s.validate();
    HOMP_REQUIRE(names.insert(s.name).second,
                 "variable '" + s.name + "' mapped twice");
    const int pdim = s.partitioned_dim();
    if (pdim < 0) continue;
    const auto d = static_cast<std::size_t>(pdim);
    const dist::DimPolicy pol = s.partitioned_policy();
    if (pol.kind == dist::PolicyKind::kBlock) {
      align.set_concrete(s.name,
                         dist::Distribution::block(s.region.dim(d),
                                                   num_devices));
    } else {
      HOMP_ASSERT(pol.kind == dist::PolicyKind::kAlign);
      align.set_aligned(s.name, pol.align_target, pol.align_ratio);
    }
  }
  align.set_concrete(loop_label, dist::Distribution());

  std::vector<ArrayPlan> plans;
  plans.reserve(maps.size());
  for (const auto& s : maps) {
    ArrayPlan& plan = plans.emplace_back();
    plan.spec = &s;
    plan.pdim = s.partitioned_dim();
    if (plan.pdim < 0) {
      // FULL replication: multi-device copy-out of a replicated array is
      // ill-defined (every device would write the whole array).
      HOMP_REQUIRE(!mem::copies_out(s.dir) || num_devices == 1,
                   "array '" + s.name +
                       "' is replicated (FULL) but mapped '" +
                       to_string(s.dir) +
                       "' on multiple devices; partition it or use a "
                       "reduction");
      continue;
    }
    // An array whose chain roots at the loop label follows the loop's
    // parts; the rest take their root's BLOCK distribution.
    plan.follows_loop = align.root_of(s.name) == loop_label;
    plan.ratio = align.ratio_to_root(s.name);
    if (!plan.follows_loop) {
      plan.static_dist = align.resolve(s.name);
      HOMP_REQUIRE(
          plan.static_dist.domain() ==
              s.region.dim(static_cast<std::size_t>(plan.pdim)),
          "aligned distribution domain mismatch for '" + s.name + "'");
    }
  }
  return plans;
}

namespace {
/// The slice of `s` whose dimension `d` spans `part` clamped to the array.
ArraySlice carve(const mem::MapSpec& s, std::size_t d,
                 const dist::Range& part, bool halo_if_empty) {
  const dist::Range& extent = s.region.dim(d);
  const dist::Range owned = part.clamped_to(extent);
  const dist::Range held =
      owned.empty() && !halo_if_empty
          ? owned
          : owned.widened(s.halo_before, s.halo_after).clamped_to(extent);
  return {s.region.with_dim(d, owned), s.region.with_dim(d, held)};
}
}  // namespace

ArraySlice pinned_slice(const ArrayPlan& plan, std::size_t slot) {
  const mem::MapSpec& s = *plan.spec;
  if (plan.pdim < 0) return {s.region, s.region};
  return carve(s, static_cast<std::size_t>(plan.pdim),
               plan.static_dist.part(slot), /*halo_if_empty=*/false);
}

ArraySlice loop_slice(const ArrayPlan& plan, const dist::Range& loop_part,
                      bool halo_if_empty) {
  return carve(*plan.spec, static_cast<std::size_t>(plan.pdim),
               loop_part.scaled(plan.ratio), halo_if_empty);
}

}  // namespace homp::rt
