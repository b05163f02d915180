#ifndef HOMP_FUZZ_SERVE_SCENARIO_H
#define HOMP_FUZZ_SERVE_SCENARIO_H

/// \file serve_scenario.h
/// Serve-mode scenario generation for the homp-fuzz harness
/// (docs/FUZZING.md "--serve").
///
/// A serve scenario is one complete multi-tenant serving run: a
/// synthesized machine, a tenant roster (priorities, weights, queue
/// depths, per-tenant fault scripts — including "poison" tenants whose
/// jobs deterministically lose every granted device), a timed job list
/// (sizes, device asks, deadlines, algorithms) and the server knob
/// combination (shed ladder, circuit breaker, materialization). Like the
/// single-offload scenarios, generation is a pure function of (seed,
/// limits) and the TOML serialization round-trips exactly, so a failing
/// run shrinks to a self-contained `serve-repro-<seed>.toml` +
/// machine `.ini` pair that `homp-fuzz --replay` re-executes bit-for-bit.

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/scenario.h"
#include "machine/device.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace homp::fuzz {

/// Parameter ranges the serve generator draws from.
struct ServeGeneratorLimits {
  int max_devices = 5;    ///< total devices including the host (>= 2)
  int max_tenants = 4;    ///< tenant roster cap (>= 1)
  int max_jobs = 14;      ///< timed submissions per scenario (>= 1)
  long long max_trip = 2048;  ///< problem-size cap (per-kernel quantized)
  bool allow_faults = true;   ///< false = admission/scheduling space only
};

/// One timed job submission.
struct ServeJobEntry {
  int tenant = 0;      ///< index into ServeScenarioSpec::tenants
  double at_s = 0.0;   ///< arrival (virtual seconds)
  serve::JobSpec job;  ///< kernel, n, devices, deadline_s, algorithm
};

/// One generated (or replayed) serve-mode scenario.
struct ServeScenarioSpec {
  std::uint64_t seed = 0;

  mach::MachineDescriptor machine;
  serve::ServeOptions options;
  std::vector<serve::TenantSpec> tenants;
  std::vector<ServeJobEntry> jobs;
};

/// Deterministically generate the serve scenario for `seed`. The result
/// always validates: the machine passes validate(), every job references
/// an existing tenant, sizes are kernel-quantized, and hang-capable
/// faults only appear because the server's base options always arm the
/// watchdog (an unwatched hang would stall the drain — a scenario bug).
ServeScenarioSpec generate_serve_scenario(
    std::uint64_t seed, const ServeGeneratorLimits& limits = {});

/// Serialize everything except the machine ([serve], [tenant.N],
/// [job.N] sections; doubles at %.17g so the file round-trips exactly).
/// `machine_file` pairs the scenario with its .ini; `invariant` records
/// the failure being reproduced.
std::string serve_to_toml(const ServeScenarioSpec& s,
                          const std::string& machine_file = "",
                          const std::string& invariant = "");

using ParsedServeScenario = ParsedRepro<ServeScenarioSpec>;

/// Parse serve_to_toml() output. Throws ConfigError with a line number
/// on malformed input.
ParsedServeScenario parse_serve_scenario(const std::string& text);

/// Whether repro-file text is a serve-mode scenario (its first section is
/// [serve]) — the --replay dispatcher's sniff; malformed text throws.
bool is_serve_scenario(const std::string& text);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_SERVE_SCENARIO_H
