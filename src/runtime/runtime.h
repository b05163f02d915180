#ifndef HOMP_RUNTIME_RUNTIME_H
#define HOMP_RUNTIME_RUNTIME_H

/// \file runtime.h
/// Public facade of the HOMP runtime: owns the machine description and
/// launches offloads and data regions. One Runtime per simulated node.
///
/// Lifetime: a Runtime builds one execution context (exec_context.h) at
/// its first offload and keeps it, resetting it before every offload, so
/// each offload starts at virtual time 0 on idle lanes without
/// rebuilding the engine and the lanes.
///
/// Typical use (the axpy_homp_v2 pattern of Fig. 2):
///
///   auto rt = homp::rt::Runtime::from_builtin("gpu4");
///   homp::rt::OffloadOptions o;
///   o.device_ids = rt.all_devices();
///   o.sched.kind = homp::sched::AlgorithmKind::kDynamic;
///   auto result = rt.offload(kernel, maps, o);

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "machine/device.h"
#include "memory/map_spec.h"
#include "runtime/data_region.h"
#include "runtime/exec_context.h"
#include "runtime/kernel.h"
#include "runtime/options.h"
#include "sched/extended_sched.h"

namespace homp::rt {

class Runtime {
 public:
  explicit Runtime(mach::MachineDescriptor machine);

  /// Construct over a built-in machine profile ("gpu4", "cpu-mic",
  /// "full", "host-only" — see machine/profiles.h).
  static Runtime from_builtin(const std::string& name);

  /// Construct from a machine-description file (§V: "the HOMP runtime
  /// reads from a given machine description file").
  static Runtime from_machine_file(const std::string& path);

  const mach::MachineDescriptor& machine() const noexcept { return machine_; }

  /// omp_get_num_devices() analogue (includes the host, device 0).
  int num_devices() const noexcept {
    return static_cast<int>(machine_.devices.size());
  }

  /// All device ids, host first — the device(0:*) target list.
  std::vector<int> all_devices() const;

  /// All accelerators, excluding the host — device(1:*).
  std::vector<int> accelerators() const;

  /// All devices of one type — device(0:*:HOMP_DEVICE_NVGPU) etc.
  std::vector<int> devices_of_type(mach::DeviceType t) const;

  /// Execute one multi-device offload. `maps` must outlive the call.
  ///
  /// Every offload also records the per-device throughput it observed
  /// into the runtime's ThroughputHistory, which the HISTORY_AUTO
  /// extension algorithm consumes on later offloads of the same kernel
  /// (Qilin-style adaptive mapping; see sched/extended_sched.h).
  ///
  /// Not re-entrant: one offload at a time per Runtime. A second call
  /// while one is in flight — from another thread, or from a kernel
  /// body calling back into the same Runtime — throws ExecutionError
  /// immediately instead of silently interleaving ThroughputHistory
  /// updates. Concurrent offloads over one machine are what
  /// serve::OffloadServer (docs/SERVING.md) is for.
  OffloadResult offload(const LoopKernel& kernel,
                        const std::vector<mem::MapSpec>& maps,
                        const OffloadOptions& opts) const;

  /// Observed-throughput store fed by offload(); HISTORY_AUTO reads it.
  sched::ThroughputHistory& history() const { return history_; }

  /// Open a persistent data region (the `target data` construct).
  std::unique_ptr<DataRegion> map_data(std::vector<mem::MapSpec> maps,
                                       RegionOptions opts) const;

 private:
  mach::MachineDescriptor machine_;
  mutable sched::ThroughputHistory history_;
  /// The engine and lanes every offload runs on, built at the first.
  mutable std::unique_ptr<ExecContext> ctx_;
  /// In-flight guard for offload()'s single-offload invariant. Held by
  /// shared_ptr so Runtime stays movable (from_builtin returns by
  /// value); the flag itself never moves.
  mutable std::shared_ptr<std::atomic<bool>> offload_in_flight_ =
      std::make_shared<std::atomic<bool>>(false);
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_RUNTIME_H
