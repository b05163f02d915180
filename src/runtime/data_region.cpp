#include "runtime/data_region.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "runtime/array_plan.h"
#include "runtime/offload_exec.h"
#include "runtime/resilience.h"
#include "sched/partition_sched.h"

namespace homp::rt {

DataRegion::DataRegion(const mach::MachineDescriptor& machine,
                       std::vector<mem::MapSpec> maps, RegionOptions opts)
    : machine_(machine),
      maps_(std::move(maps)),
      opts_(std::move(opts)),
      ctx_(machine_) {
  check_device_ids(machine_, opts_.device_ids);
  HOMP_REQUIRE(!opts_.loop_domain.empty(),
               "data region needs a non-empty loop domain for its label");
  const std::size_t m = opts_.device_ids.size();

  // Fix the label's distribution now; every resident array aligns to it.
  const sched::AlgorithmKind kind = opts_.dist_algorithm;
  HOMP_REQUIRE(kind == sched::AlgorithmKind::kBlock ||
                   kind == sched::AlgorithmKind::kModel1Auto ||
                   kind == sched::AlgorithmKind::kModel2Auto,
               "data regions pin data up front; only BLOCK / MODEL_1_AUTO / "
               "MODEL_2_AUTO can fix the entry distribution");
  const sched::LoopContext ctx{
      opts_.loop_domain, opts_.cost_hint,
      model::prediction_inputs(machine_, opts_.device_ids)};
  loop_dist_ = (kind == sched::AlgorithmKind::kBlock
                    ? sched::PartitionScheduler::block(ctx)
                    : sched::PartitionScheduler::from_model(
                          ctx, kind, opts_.cutoff_ratio))
                   ->distribution();

  const auto plans = plan_arrays(maps_, m, opts_.loop_label);
  envs_.resize(m);
  slot_maps_.resize(m);
  std::vector<double> entry_bytes(m, 0.0);
  double max_alloc = 0.0;

  for (std::size_t slot = 0; slot < m; ++slot) {
    const auto& desc =
        machine_.devices[static_cast<std::size_t>(opts_.device_ids[slot])];
    const bool shared = desc.memory == mach::MemorySpace::kShared;
    if (!shared) {
      max_alloc = std::max(
          max_alloc, desc.alloc_overhead_s * static_cast<double>(maps_.size()));
    }
    for (const auto& plan : plans) {
      ArraySlice slice =
          plan.follows_loop
              ? loop_slice(plan, loop_dist_.part(slot),
                           /*halo_if_empty=*/false)
              : pinned_slice(plan, slot);
      auto& mapping = store_.create(
          *plan.spec, std::move(slice.owned), std::move(slice.footprint),
          shared, opts_.execute_bodies);
      entry_bytes[slot] += mapping.bytes_in();
      envs_[slot].add(plan.spec->name, &mapping);
      slot_maps_[slot].push_back(&mapping);
    }
    if (opts_.execute_bodies) envs_[slot].copy_in_all();
  }

  entry_time_ = max_alloc + concurrent_transfer_time(entry_bytes);
  total_time_ += entry_time_;
}

const mem::DeviceDataEnv& DataRegion::env(std::size_t slot) const {
  HOMP_ASSERT(slot < envs_.size());
  return envs_[slot];
}

double DataRegion::concurrent_transfer_time(
    const std::vector<double>& bytes) const {
  // Processor-sharing completion on each link: with all transfers starting
  // together, the last one on a link finishes at alpha + total_bytes/beta.
  std::map<int, double> per_link;
  for (std::size_t slot = 0; slot < bytes.size(); ++slot) {
    if (bytes[slot] <= 0.0) continue;
    const auto& desc =
        machine_.devices[static_cast<std::size_t>(opts_.device_ids[slot])];
    if (desc.link == mach::kNoLink) continue;  // shared memory: no transfer
    per_link[desc.link] += bytes[slot];
  }
  double t = 0.0;
  for (const auto& [link, total] : per_link) {
    const auto& l = machine_.links[static_cast<std::size_t>(link)];
    t = std::max(t, l.latency_s + total / l.bandwidth_Bps);
  }
  return t;
}

OffloadResult DataRegion::offload(const LoopKernel& kernel, bool parallel) {
  HOMP_REQUIRE(!closed_, "offload on a closed data region");
  OffloadOptions o;
  o.device_ids = opts_.device_ids;
  o.loop_label = opts_.loop_label;
  o.execute_bodies = opts_.execute_bodies;
  o.parallel_offload = parallel;
  o.noise_seed = opts_.noise_seed;
  static const std::vector<mem::MapSpec> kNoMaps;
  ctx_.reset();
  OffloadExecution exec(ctx_, machine_, kernel, kNoMaps, std::move(o),
                        &loop_dist_, &envs_);
  OffloadResult res = exec.run();
  total_time_ += res.total_time;
  return res;
}

double DataRegion::halo_exchange(const std::string& array) {
  HOMP_REQUIRE(!closed_, "halo_exchange on a closed data region");
  const mem::MapSpec* spec = nullptr;
  for (const auto& s : maps_) {
    if (s.name == array) spec = &s;
  }
  HOMP_REQUIRE(spec != nullptr,
               "halo_exchange: '" + array + "' is not mapped in this region");
  const int pd = spec->partitioned_dim();
  HOMP_REQUIRE(pd >= 0 && (spec->halo_before > 0 || spec->halo_after > 0),
               "halo_exchange: '" + array + "' has no halo");
  const auto d = static_cast<std::size_t>(pd);

  const std::size_t m = envs_.size();
  const auto elem_size = static_cast<double>(spec->binding.elem_size);
  std::vector<double> push_bytes(m, 0.0);
  std::vector<double> pull_bytes(m, 0.0);

  // Phase 1: every device publishes the boundary bands of its owned
  // region (the rows neighbouring footprints overlap): its first
  // halo_after rows go to the neighbour above, its last halo_before rows
  // to the neighbour below, clamped to the owned extent.
  for (std::size_t slot = 0; slot < m; ++slot) {
    auto& mp = envs_[slot].mapping(array);
    const dist::Range owned = mp.owned().dim(d);
    const long long top = std::min(owned.lo + spec->halo_after, owned.hi);
    const long long bottom = std::max(owned.hi - spec->halo_before, owned.lo);
    for (const dist::Range band :
         {dist::Range(owned.lo, top), dist::Range(bottom, owned.hi)}) {
      if (band.empty()) continue;
      const dist::Region r = mp.owned().with_dim(d, band);
      mp.push_to_host(r);
      push_bytes[slot] += static_cast<double>(r.volume()) * elem_size;
    }
  }

  // Phase 2: every device refreshes its halo bands (footprint minus
  // owned) from the now-coherent host copy.
  for (std::size_t slot = 0; slot < m; ++slot) {
    auto& mp = envs_[slot].mapping(array);
    const dist::Range owned = mp.owned().dim(d);
    const dist::Range fp = mp.footprint().dim(d);
    for (const dist::Range band :
         {dist::Range(fp.lo, owned.lo), dist::Range(owned.hi, fp.hi)}) {
      if (band.empty()) continue;
      const dist::Region r = mp.footprint().with_dim(d, band);
      mp.pull_from_host(r);
      pull_bytes[slot] += static_cast<double>(r.volume()) * elem_size;
    }
  }

  const double t = concurrent_transfer_time(push_bytes) +
                   concurrent_transfer_time(pull_bytes);
  total_time_ += t;
  return t;
}

double DataRegion::close() {
  if (closed_) return 0.0;
  closed_ = true;
  std::vector<double> exit_bytes(envs_.size(), 0.0);
  for (std::size_t slot = 0; slot < envs_.size(); ++slot) {
    exit_bytes[slot] = envs_[slot].total_bytes_out();
    if (!opts_.execute_bodies) continue;

    // The device copies are the ground truth at exit; snapshot their
    // combined sum before anything crosses the wire.
    const auto& out = slot_maps_[slot];
    const std::uint64_t want =
        opts_.verify_exit ? payload_checksum(out, /*input_side=*/false) : 0;
    envs_[slot].copy_out_all();
    if (opts_.exit_corrupt_seed != 0 &&
        slot == static_cast<std::size_t>(opts_.exit_corrupt_slot)) {
      // Test hook: damage the host copy as if the exit transfer flipped
      // bits on the wire. The device copy stays intact, so a re-copy
      // repairs it.
      for (auto* mp : out) {
        if (mp->shared() || !mem::copies_out(mp->spec().dir) ||
            mp->owned().empty()) {
          continue;
        }
        mp->corrupt_host(mp->owned(), opts_.exit_corrupt_seed);
        break;
      }
    }
    if (!opts_.verify_exit) continue;

    int attempt = 0;
    while (payload_checksum(out, /*input_side=*/false, /*host_side=*/true) !=
           want) {
      HOMP_REQUIRE(attempt < opts_.max_exit_retries,
                   "data region exit verification still failing after " +
                       std::to_string(attempt) +
                       " re-copies — host copy cannot be trusted");
      ++attempt;
      ++exit_retries_;
      // The re-copy re-sends the payload; its bytes join the exit bill.
      exit_bytes[slot] += envs_[slot].total_bytes_out();
      envs_[slot].copy_out_all();
    }
  }
  const double t = concurrent_transfer_time(exit_bytes);
  total_time_ += t;
  return t;
}

}  // namespace homp::rt
