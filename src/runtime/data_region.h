#ifndef HOMP_RUNTIME_DATA_REGION_H
#define HOMP_RUNTIME_DATA_REGION_H

/// \file data_region.h
/// Persistent multi-device data region — the HOMP analogue of
/// `#pragma omp parallel target data device(*) map(...)` in the paper's
/// Jacobi example (Fig. 3).
///
/// At entry the region fixes the distribution of its label ("loop1"),
/// decomposes every partitioned array with the offload planner
/// (array_plan.h), allocates device storage and performs the copy-in: an
/// ALIGN chain roots at the label or at a BLOCK array, as in a plain
/// offload. Offloads executed *inside* the region
/// reuse the resident data and the fixed loop distribution (the paper's
/// runtime re-links AUTO/ALIGN(loop1) loops to the root alignee's
/// distribution, §V-D). halo_exchange() implements the
/// `#pragma omp halo_exchange(array)` directive; close() copies results
/// out. Virtual time for entry/halo/exit transfers is accounted with the
/// same Hockney + fair-share-contention model the offload engine uses.

#include <string>
#include <vector>

#include "dist/distribution.h"
#include "machine/device.h"
#include "memory/data_env.h"
#include "memory/map_spec.h"
#include "runtime/exec_context.h"
#include "runtime/kernel.h"
#include "runtime/options.h"

namespace homp::rt {

struct RegionOptions {
  std::vector<int> device_ids;
  std::string loop_label = "loop";
  dist::Range loop_domain;

  /// Algorithm used to fix the label's distribution at entry: kBlock,
  /// kModel1Auto or kModel2Auto (chunk/profiling algorithms need live
  /// feedback and cannot pin data up front).
  sched::AlgorithmKind dist_algorithm = sched::AlgorithmKind::kBlock;

  /// Cost profile for the model-based entry distributions.
  model::KernelCostProfile cost_hint;

  double cutoff_ratio = 0.0;
  bool execute_bodies = true;
  std::uint64_t noise_seed = 42;

  /// Verified exit (docs/RESILIENCE.md "Integrity"): close() checksums
  /// every device's outgoing payload before the copy-out and compares it
  /// against the host copy after; a mismatch re-copies (the device copy
  /// is the ground truth) and the re-sent bytes are charged to the exit
  /// time. Only meaningful with execute_bodies (there are no real bytes
  /// to verify otherwise).
  bool verify_exit = false;
  /// Re-copies allowed per device before close() gives up (ConfigError).
  int max_exit_retries = 2;
  /// Test hook: after the first exit copy-out of `exit_corrupt_slot`,
  /// flip seeded bytes in its host copy — as if the exit transfer were
  /// silently corrupted. 0 = off.
  std::uint64_t exit_corrupt_seed = 0;
  int exit_corrupt_slot = 0;
};

class DataRegion {
 public:
  /// Takes ownership of `maps`; performs distribution, allocation and
  /// copy-in immediately.
  DataRegion(const mach::MachineDescriptor& machine,
             std::vector<mem::MapSpec> maps, RegionOptions opts);

  DataRegion(const DataRegion&) = delete;
  DataRegion& operator=(const DataRegion&) = delete;

  /// Run one parallel loop against the resident data. The kernel's
  /// iteration domain must equal the region's loop domain; its chunks are
  /// the region's fixed distribution (AUTO and ALIGN(label) both resolve
  /// to it). The result is also accumulated into the region totals. Every
  /// offload runs on the region's one context, reset first, so a kernel
  /// body must not offload into the region it runs in.
  OffloadResult offload(const LoopKernel& kernel, bool parallel = true);

  /// Refresh the halo rows of `array` on every device from the owning
  /// neighbours. Returns the (virtual) exchange time, also accumulated.
  double halo_exchange(const std::string& array);

  /// Copy `from`/`tofrom` arrays back to the host. Idempotent. Returns
  /// the exit-transfer time.
  double close();

  /// Entry-transfer time (alloc + copy-in).
  double entry_time() const noexcept { return entry_time_; }

  /// Exit re-copies forced by verification mismatches (verify_exit).
  int exit_retries() const noexcept { return exit_retries_; }

  /// Entry + all offloads + halo exchanges + exit so far.
  double total_time() const noexcept { return total_time_; }

  const dist::Distribution& loop_distribution() const noexcept {
    return loop_dist_;
  }

  /// Per-device environment (tests peek at mapped footprints).
  const mem::DeviceDataEnv& env(std::size_t slot) const;

 private:
  /// Fair-share Hockney time for a set of per-device transfer byte counts
  /// happening concurrently (devices sharing a link divide its bandwidth).
  double concurrent_transfer_time(const std::vector<double>& bytes) const;

  const mach::MachineDescriptor& machine_;
  std::vector<mem::MapSpec> maps_;
  RegionOptions opts_;
  /// Every offload of the region runs on it, reset before each.
  ExecContext ctx_;
  dist::Distribution loop_dist_;
  mem::MappingStore store_;
  std::vector<mem::DeviceDataEnv> envs_;                     // per slot
  std::vector<std::vector<mem::DeviceMapping*>> slot_maps_;  // per slot
  double entry_time_ = 0.0;
  double total_time_ = 0.0;
  bool closed_ = false;
  int exit_retries_ = 0;
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_DATA_REGION_H
