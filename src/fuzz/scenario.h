#ifndef HOMP_FUZZ_SCENARIO_H
#define HOMP_FUZZ_SCENARIO_H

/// \file scenario.h
/// Deterministic scenario generation for the homp-fuzz differential
/// harness (docs/FUZZING.md).
///
/// A scenario is everything one oracle run needs: a synthesized machine
/// topology, a kernel case and problem size, scheduler tuning, seeds, a
/// fault script and the resilience toggles. Generation is a pure function
/// of (seed, limits): the same seed always yields byte-identical machine
/// text and scenario serialization, which is what makes a one-line repro
/// (`homp-fuzz --replay file`) possible.
///
/// Scenarios serialize to a TOML-style text format (`[scenario]`,
/// `[sched]`, `[options]`, `[fault.N]` sections) that round-trips exactly
/// — doubles are printed with max_digits10 precision — and the machine
/// is emitted separately through mach::to_text so a repro pairs one
/// `repro-<seed>.ini` with one `repro-<seed>.toml`.

#include <cstdint>
#include <string>
#include <vector>

#include "common/prng.h"
#include "machine/device.h"
#include "sched/scheduler.h"
#include "sim/fault.h"

namespace homp::fuzz {

/// Parameter ranges the generator draws from. The defaults keep scenarios
/// inside the envelope the resilience test-suite exercises; widening them
/// is how the harness explores new territory.
struct GeneratorLimits {
  int max_devices = 6;       ///< total devices including the host (>= 2)
  long long max_trip = 4096;  ///< problem-size cap (per-kernel quantized)
  int max_script_entries = 4;  ///< scripted faults per scenario
  bool allow_faults = true;    ///< false = topology/kernel space only
};

/// One generated (or replayed) harness scenario.
struct ScenarioSpec {
  std::uint64_t seed = 0;  ///< the generation seed; names the scenario

  mach::MachineDescriptor machine;

  std::string kernel = "axpy";  ///< kernels::make_case name
  long long n = 1024;           ///< problem size (kernel-quantized)

  /// Tuning shared by every algorithm family; the oracle overwrites
  /// `sched.kind` as it sweeps all ten algorithms.
  sched::SchedulerConfig sched;

  std::uint64_t noise_seed = 42;
  std::uint64_t fault_seed = 0x5eedfa;
  std::vector<sim::ScriptedFault> faults;

  bool integrity = true;
  bool watchdog = true;
  bool parallel_offload = true;

  /// Engine step budget for each offload (OffloadOptions::harness);
  /// sized from the scenario's device count and trip count so a healthy
  /// run never trips it but a livelock always does.
  long long step_budget = 0;
};

/// Deterministically generate the scenario for `seed` within `limits`.
/// The result always validates: machine.validate() passes, the kernel /
/// size combination is constructible, fault scripts reference existing
/// accelerators only, and corruption entries appear only with integrity
/// enabled. Device 0 (the host) never faults — the anchor device that
/// keeps every scenario completable.
ScenarioSpec generate_scenario(std::uint64_t seed,
                               const GeneratorLimits& limits = {});

/// Clamp `n` to a valid size for `kernel` (bm2d: multiple of 16, >= 32;
/// stencil2d: >= 8; everything else: >= 1).
long long quantize_trip(const std::string& kernel, long long n);

/// Smallest valid problem size for `kernel` — the shrinker's floor.
long long min_trip(const std::string& kernel);

/// Draws both generators share: a uniform integer in [lo, hi], and a
/// fault rate as a multiple of 0.0005 in [0, cap] (exactly representable
/// in the machine text's 6 digits).
long long irange(Prng& rng, long long lo, long long hi);
double rate(Prng& rng, double cap);

/// Mutate `s` into the planted-violation configuration the acceptance
/// test requires: integrity verification disabled plus a scripted
/// silent compute corruption on the first accelerator. The oracle's
/// reference / differential invariants must catch it.
void plant_corrupt_commit(ScenarioSpec& s);

/// Serialize everything except the machine (see file comment). The
/// optional `machine_file` is recorded so replay can find the paired
/// .ini; `invariant` / `algorithm` record the failure being reproduced.
std::string to_toml(const ScenarioSpec& s,
                    const std::string& machine_file = "",
                    const std::string& invariant = "",
                    const std::string& algorithm = "");

/// A parsed repro file: the scenario (machine left empty — load it from
/// `machine_file`) plus the failure it records.
template <class Spec>
struct ParsedRepro {
  Spec scenario;
  std::string machine_file;
  std::string invariant;
  std::string algorithm;  ///< recorded by single-offload repros only
};

using ParsedScenario = ParsedRepro<ScenarioSpec>;

/// Parse to_toml() output. Throws ConfigError with a line number on
/// malformed input.
ParsedScenario parse_scenario(const std::string& text);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_SCENARIO_H
