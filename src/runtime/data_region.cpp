#include "runtime/data_region.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/checksum.h"
#include "common/error.h"
#include "dist/align.h"
#include "runtime/offload_exec.h"

namespace homp::rt {

DataRegion::DataRegion(const mach::MachineDescriptor& machine,
                       std::vector<mem::MapSpec> maps, RegionOptions opts)
    : machine_(machine), maps_(std::move(maps)), opts_(std::move(opts)) {
  HOMP_REQUIRE(!opts_.device_ids.empty(), "data region has no devices");
  HOMP_REQUIRE(!opts_.loop_domain.empty(),
               "data region needs a non-empty loop domain for its label");
  const std::size_t m = opts_.device_ids.size();

  // Fix the label's distribution now; every resident array aligns to it.
  switch (opts_.dist_algorithm) {
    case sched::AlgorithmKind::kBlock:
      loop_dist_ = dist::Distribution::block(opts_.loop_domain, m);
      break;
    case sched::AlgorithmKind::kModel1Auto:
    case sched::AlgorithmKind::kModel2Auto: {
      auto inputs = model::prediction_inputs(machine_, opts_.device_ids);
      std::vector<double> w =
          opts_.dist_algorithm == sched::AlgorithmKind::kModel1Auto
              ? model::model1_weights(opts_.cost_hint, inputs)
              : model::model2_weights(opts_.cost_hint, inputs);
      if (opts_.cutoff_ratio > 0.0) {
        w = model::apply_cutoff(w, opts_.cutoff_ratio).weights;
      }
      loop_dist_ = dist::Distribution::by_weights(opts_.loop_domain, w);
      break;
    }
    default:
      throw ConfigError(
          "data regions pin data up front; only BLOCK / MODEL_1_AUTO / "
          "MODEL_2_AUTO can fix the entry distribution");
  }

  // Resolve each array's distribution: ALIGN chains must root at the
  // region label, the one concrete node of the alignment graph.
  std::set<std::string> names;
  dist::AlignmentGraph align;
  for (const auto& s : maps_) {
    s.validate();
    HOMP_REQUIRE(names.insert(s.name).second,
                 "variable '" + s.name + "' mapped twice in data region");
    if (s.partitioned_dim() < 0) {
      HOMP_REQUIRE(!mem::copies_out(s.dir) || m == 1,
                   "replicated array '" + s.name +
                       "' cannot be copied out from multiple devices");
    } else if (s.partitioned_policy().kind == dist::PolicyKind::kAlign) {
      const dist::DimPolicy pol = s.partitioned_policy();
      align.set_aligned(s.name, pol.align_target, pol.align_ratio);
    }
  }
  align.set_concrete(opts_.loop_label, loop_dist_);

  stores_.reserve(m);
  envs_.resize(m);
  std::vector<double> entry_bytes(m, 0.0);
  double max_alloc = 0.0;

  for (std::size_t slot = 0; slot < m; ++slot) {
    stores_.push_back(std::make_unique<mem::MappingStore>());
    const auto& desc =
        machine_.devices[static_cast<std::size_t>(opts_.device_ids[slot])];
    const bool shared = desc.memory == mach::MemorySpace::kShared;
    if (!shared) {
      max_alloc = std::max(
          max_alloc, desc.alloc_overhead_s * static_cast<double>(maps_.size()));
    }
    for (const auto& s : maps_) {
      dist::Region owned = s.region;
      dist::Region footprint = s.region;
      const int pd = s.partitioned_dim();
      if (pd >= 0) {
        const auto d = static_cast<std::size_t>(pd);
        const dist::DimPolicy pol = s.partitioned_policy();
        dist::Range part;
        if (pol.kind == dist::PolicyKind::kBlock) {
          part = dist::Distribution::block(s.region.dim(d), m).part(slot);
        } else {
          HOMP_ASSERT(pol.kind == dist::PolicyKind::kAlign);
          part = loop_dist_.part(slot)
                     .scaled(align.ratio_to_root(s.name))
                     .clamped_to(s.region.dim(d));
        }
        owned = s.region.with_dim(d, part);
        dist::Range fp = part.widened(s.halo_before, s.halo_after)
                             .clamped_to(s.region.dim(d));
        if (part.empty()) fp = part;
        footprint = s.region.with_dim(d, fp);
      }
      auto& mapping = stores_[slot]->create(s, owned, footprint, shared,
                                            opts_.execute_bodies);
      entry_bytes[slot] += mapping.bytes_in();
      envs_[slot].add(s.name, &mapping);
    }
    if (opts_.execute_bodies) envs_[slot].copy_in_all();
  }

  entry_time_ = max_alloc + concurrent_transfer_time(entry_bytes);
  total_time_ += entry_time_;
}

DataRegion::~DataRegion() = default;

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
  HOMP_REQUIRE(kernel.iterations == opts_.loop_domain,
               "kernel loop " + kernel.iterations.to_string() +
                   " does not match region domain " +
                   opts_.loop_domain.to_string());
  OffloadOptions o;
  o.device_ids = opts_.device_ids;
  o.loop_label = opts_.loop_label;
  o.execute_bodies = opts_.execute_bodies;
  o.parallel_offload = parallel;
  o.noise_seed = opts_.noise_seed;
  static const std::vector<mem::MapSpec> kNoMaps;
  OffloadExecution exec(machine_, kernel, kNoMaps, o, &loop_dist_, &envs_);
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
  std::vector<double> push_bytes(m, 0.0);
  std::vector<double> pull_bytes(m, 0.0);

  // Phase 1: every device publishes the boundary bands of its owned
  // region (the rows neighbouring footprints overlap).
  for (std::size_t slot = 0; slot < m; ++slot) {
    auto& mp = envs_[slot].mapping(array);
    const dist::Range owned = mp.owned().dim(d);
    if (owned.empty()) continue;
    const double row_bytes =
        static_cast<double>(mp.owned().volume() / std::max(owned.size(), 1LL)) *
        static_cast<double>(spec->binding.elem_size);
    // First halo_after rows go to the neighbour above; last halo_before
    // rows to the neighbour below. Clamp to the owned extent.
    const long long top = std::min(spec->halo_after, owned.size());
    const long long bottom = std::min(spec->halo_before, owned.size());
    if (top > 0) {
      const dist::Range band(owned.lo, owned.lo + top);
      mp.push_to_host(mp.owned().with_dim(d, band));
      push_bytes[slot] += static_cast<double>(top) * row_bytes;
    }
    if (bottom > 0) {
      const dist::Range band(owned.hi - bottom, owned.hi);
      mp.push_to_host(mp.owned().with_dim(d, band));
      push_bytes[slot] += static_cast<double>(bottom) * row_bytes;
    }
  }

  // Phase 2: every device refreshes its halo bands (footprint minus
  // owned) from the now-coherent host copy.
  for (std::size_t slot = 0; slot < m; ++slot) {
    auto& mp = envs_[slot].mapping(array);
    const dist::Range owned = mp.owned().dim(d);
    const dist::Range fp = mp.footprint().dim(d);
    if (fp.empty()) continue;
    const double row_bytes =
        static_cast<double>(mp.footprint().volume() /
                            std::max(fp.size(), 1LL)) *
        static_cast<double>(spec->binding.elem_size);
    if (fp.lo < owned.lo) {
      const dist::Range band(fp.lo, owned.lo);
      mp.pull_from_host(mp.footprint().with_dim(d, band));
      pull_bytes[slot] += static_cast<double>(band.size()) * row_bytes;
    }
    if (fp.hi > owned.hi) {
      const dist::Range band(owned.hi, fp.hi);
      mp.pull_from_host(mp.footprint().with_dim(d, band));
      pull_bytes[slot] += static_cast<double>(band.size()) * row_bytes;
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
    const std::uint64_t want =
        opts_.verify_exit
            ? envs_[slot].checksum_out_device()
            : 0;
    envs_[slot].copy_out_all();
    if (opts_.exit_corrupt_seed != 0 &&
        slot == static_cast<std::size_t>(opts_.exit_corrupt_slot)) {
      // Test hook: damage the host copy as if the exit transfer flipped
      // bits on the wire. The device copy stays intact, so a re-copy
      // repairs it.
      for (const auto& name : envs_[slot].names()) {
        auto& mp = envs_[slot].mapping(name);
        if (mp.shared() || !mem::copies_out(mp.spec().dir) ||
            mp.owned().empty()) {
          continue;
        }
        mp.corrupt_host(mp.owned(), opts_.exit_corrupt_seed);
        break;
      }
    }
    if (!opts_.verify_exit) continue;

    int attempt = 0;
    while (envs_[slot].checksum_out_host() != want) {
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
