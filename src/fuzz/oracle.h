#ifndef HOMP_FUZZ_ORACLE_H
#define HOMP_FUZZ_ORACLE_H

/// \file oracle.h
/// Differential invariant oracle of the homp-fuzz harness
/// (docs/FUZZING.md).
///
/// One oracle run takes one scenario through *every* algorithm family —
/// the paper's seven plus the three extensions, in every_algorithm()
/// order — each on a fresh Runtime so ThroughputHistory cannot leak
/// between families (HISTORY_AUTO gets its own deliberate priming
/// offload). After each offload the oracle checks the per-run invariants;
/// after the sweep it checks the cross-algorithm (differential) ones.
///
/// Invariant catalog (names appear in reports, repro files and
/// docs/FUZZING.md):
///   progress            offload completes; a step-budget abort or any
///                       unexpected exception is a livelock/deadlock
///   conservation        committed iterations == the loop's trip count
///   reference           results match the kernel's sequential reference
///   differential-results all algorithms produce bit-identical output
///                       buffers (checksums) and tolerance-equal
///                       reductions
///   recovery-legality   quarantine/probation/speculation/vote events
///                       follow the legal state machine
///   audit-consistency   the decision audit trail is self-consistent
///                       (in-domain ranges, monotone time, assignments
///                       present whenever chunks were issued)
///   metrics-consistency the exported metrics registry agrees with the
///                       OffloadResult it was built from
///   imbalance-bounds    imbalance / finish times / total time are
///                       finite, ordered and within [0, 1]

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/scenario.h"
#include "runtime/options.h"

namespace homp::fuzz {

/// One invariant violation observed for one scenario.
struct Violation {
  std::string invariant;  ///< catalog name (see file comment)
  std::string algorithm;  ///< sched notation, or "*" for differential
  std::string detail;     ///< human-readable specifics
};

/// The first entry of `found` that violates `invariant`, or nullptr when
/// the invariant held.
const Violation* find_violation(const std::vector<Violation>& found,
                                const std::string& invariant);

/// Per-algorithm telemetry folded into the deterministic run digest.
struct AlgorithmRun {
  std::string algorithm;
  bool completed = false;
  long long iterations = 0;
  std::size_t chunks_issued = 0;
  std::size_t engine_events = 0;
  std::uint64_t result_checksum = 0;
  bool result_checksum_valid = false;
  double reduction = 0.0;
  double total_time = 0.0;
  bool degraded = false;
};

struct OracleReport {
  std::vector<AlgorithmRun> runs;
  std::vector<Violation> violations;

  bool ok() const noexcept { return violations.empty(); }

  /// Order-sensitive 64-bit digest over every run's result-relevant
  /// fields — two byte-identical harness executions must agree here,
  /// which is what the determinism acceptance test pins.
  std::uint64_t digest() const noexcept;
};

/// The ten invariant names in report order.
const std::vector<std::string>& invariant_names();

/// Run `s` through all algorithm families and check every invariant.
/// Never throws for scenario-induced failures — those become violations;
/// only genuine misuse (unknown kernel name etc.) propagates ConfigError.
OracleReport run_oracle(const ScenarioSpec& s);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_ORACLE_H
