#ifndef HOMP_FUZZ_SERVE_ORACLE_H
#define HOMP_FUZZ_SERVE_ORACLE_H

/// \file serve_oracle.h
/// Serve-mode invariant oracle of the homp-fuzz harness
/// (docs/FUZZING.md "--serve").
///
/// One oracle run executes one serve scenario twice on fresh servers and
/// checks the serve-invariant catalog (names appear in reports, repro
/// files and docs/FUZZING.md):
///   serve-progress      the run drains without an exception or abort —
///                       every contained failure is a record, never a
///                       crash, and no job stalls the drain
///   serve-conservation  completed jobs committed exactly their trip
///                       count; terminal kFail/kCancelled records carry
///                       an error class and agree with their ok flag
///   serve-fifo          per-tenant dispatch order respects admit order
///   serve-audit         the decision audit is time-monotone and every
///                       terminal record has a matching terminal event
///   serve-accounting    admitted == completed + failed + cancelled per
///                       tenant, and the record list agrees with the
///                       per-tenant counters
///   serve-shed-legality shed-ladder transitions are contiguous and stay
///                       within [L0, L3]
///   serve-metrics       the exported metrics registry agrees with the
///                       report it was built from
///   serve-memory-flat   a drained server retains zero job objects and
///                       the engine holds zero pending events and zero
///                       live generations (no graveyard, no orphaned
///                       timers)
///   serve-determinism   both runs produce byte-identical summary JSON

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/serve_scenario.h"

namespace homp::fuzz {

struct ServeOracleReport {
  std::vector<Violation> violations;  ///< algorithm field carries "serve"

  std::size_t completed = 0;
  std::size_t failed = 0;     ///< terminal kFail records
  std::size_t cancelled = 0;  ///< terminal kCancelled records
  std::size_t rejected = 0;
  std::size_t breaker_trips = 0;

  /// First run's deterministic summary JSON.
  std::string summary_json;

  bool ok() const noexcept { return violations.empty(); }

  /// 64-bit digest of the summary JSON — two byte-identical harness
  /// executions must agree here.
  std::uint64_t digest() const noexcept;
};

/// The serve invariant names in report order.
const std::vector<std::string>& serve_invariant_names();

/// Run `s` twice and check every serve invariant. Never throws for
/// scenario-induced failures — those become violations; only genuine
/// misuse (unknown kernel name etc. during generation) propagates. The
/// overload of oracle.h's run_oracle, so the scenario type alone picks
/// the oracle.
ServeOracleReport run_oracle(const ServeScenarioSpec& s);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_SERVE_ORACLE_H
