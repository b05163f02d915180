#ifndef HOMP_PERFBENCH_LAYERS_H
#define HOMP_PERFBENCH_LAYERS_H

/// \file layers.h
/// Per-layer probes of the traced run. Each probe times calls into one
/// src/ module's public functions, on inputs the traced workload derives
/// from its own seed, and reports one or more per-layer metrics.

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "machine/device.h"
#include "memory/map_spec.h"
#include "runtime/kernel.h"
#include "runtime/options.h"
#include "spans.h"

namespace perfbench {

/// One offload the runtime probe repeats on a fresh Runtime per machine.
struct ProbeOffload {
  const homp::mach::MachineDescriptor* machine = nullptr;
  const homp::rt::LoopKernel* kernel = nullptr;
  const std::vector<homp::mem::MapSpec>* maps = nullptr;
  homp::rt::OffloadOptions opts;
};

struct LayerInputs {
  std::uint64_t seed = 0;
  /// Offloads for the runtime/sim/sched/dist probes.
  std::vector<ProbeOffload> offloads;
  /// Materialized map sets for the memory probes; empty means the small
  /// (<= 1 MiB) real-data kernel set.
  std::vector<const std::vector<homp::mem::MapSpec>*> data;
  /// Serve probe: submissions per round (the soak's own size on
  /// serve-soak, a short round elsewhere).
  std::size_t serve_jobs = 2000;
  /// Fuzz probe: scenario seeds handed to run_oracle.
  std::vector<std::uint64_t> fuzz_seeds;
};

/// Run every probe; checks feed `st` (attempted / failed) and spans go to
/// `rec`. Returns the per-layer metrics in BENCHMARK.json order.
std::vector<Figure> run_layer_probes(const LayerInputs& in, SpanRecorder& rec,
                                     LoopStats& st);

}  // namespace perfbench

#endif  // HOMP_PERFBENCH_LAYERS_H
