#ifndef HOMP_FUZZ_SHRINK_H
#define HOMP_FUZZ_SHRINK_H

/// \file shrink.h
/// Greedy scenario minimization for homp-fuzz (docs/FUZZING.md).
///
/// Given a scenario that violates an invariant, the shrinker tries ever
/// smaller candidates through its mode's edit passes and keeps a
/// candidate whenever the scenario type's run_oracle() still reports the
/// *same* invariant failing (any algorithm). Single-offload scenarios
/// drop an accelerator, halve the trip count, drop a fault-script entry
/// and zero a device's fault rates; serve scenarios drop a job, drop a
/// tenant with its jobs, halve job sizes and clear a tenant's fault
/// script. The passes repeat until a full sweep makes no progress or the
/// oracle-run budget is exhausted, so a repro file describes the smallest
/// combination that still exhibits the failure.

#include <string>

#include "fuzz/scenario.h"
#include "fuzz/serve_scenario.h"

namespace homp::fuzz {

template <class Spec>
struct Shrunk {
  Spec scenario;        ///< the minimized scenario
  int oracle_runs = 0;  ///< budget spent
};

/// Minimize `failing` while `invariant` keeps failing. `max_oracle_runs`
/// bounds total work (one oracle run sweeps all ten algorithms, or runs a
/// serve scenario twice).
Shrunk<ScenarioSpec> shrink(const ScenarioSpec& failing,
                            const std::string& invariant, int max_oracle_runs);
Shrunk<ServeScenarioSpec> shrink(const ServeScenarioSpec& failing,
                                 const std::string& invariant,
                                 int max_oracle_runs);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_SHRINK_H
