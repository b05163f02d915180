#ifndef HOMP_FUZZ_DRIVER_H
#define HOMP_FUZZ_DRIVER_H

/// \file driver.h
/// The homp-fuzz pipeline (docs/FUZZING.md), one for both modes: generate
/// scenarios seed, seed+1, ..., run each through the mode's oracle,
/// shrink failures and emit self-contained repro files, and render one
/// deterministic summary — byte-identical for identical (seed, count,
/// limits), which the determinism acceptance test pins. This header holds
/// the single-offload mode and replay; serve_driver.h holds serve mode.

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/scenario.h"

namespace homp::fuzz {

/// Corpus knobs both modes share.
struct CorpusConfig {
  std::uint64_t seed = 1;  ///< first scenario seed; scenario i uses seed+i
  int count = 100;         ///< scenarios to run

  /// Directory for the repro pairs; created on demand.
  std::string repro_dir = "machines/fuzz";

  /// Minimize failing scenarios before emitting their repro.
  bool shrink_failures = true;
  int shrink_budget = 48;  ///< oracle runs the shrinker may spend per failure

  /// Stop emitting repro files (but keep counting) after this many
  /// failures, so a systematically broken build cannot flood the disk.
  int max_repros = 8;
};

struct FuzzConfig : CorpusConfig {
  GeneratorLimits limits;

  /// Deliberately plant the acceptance-test violation into every
  /// scenario: integrity verification off plus a scripted silent compute
  /// corruption (scenario.h plant_corrupt_commit).
  bool plant = false;
};

/// One failing scenario as the summary reports it.
struct FailureRecord {
  std::uint64_t seed = 0;
  std::string invariant;  ///< primary (first-reported) failing invariant
  std::string algorithm;
  std::string detail;
  std::string repro_toml;  ///< empty when max_repros was exhausted
  int shrunk_devices = 0;
  long long shrunk_n = 0;
  int shrunk_faults = 0;
};

struct FuzzSummary {
  int scenarios = 0;
  int offloads = 0;    ///< individual algorithm runs across the corpus
  int violations = 0;  ///< total invariant violations observed
  std::vector<FailureRecord> failures;
  std::string json;  ///< the deterministic summary document
};

/// Run the corpus. Throws ConfigError only for unusable configuration
/// (count < 1, unwritable repro dir); scenario failures are data, not
/// errors.
FuzzSummary run_fuzz(const FuzzConfig& cfg);

/// Re-run the scenario recorded in a repro .toml of either mode (a
/// [serve] section marks a serve repro); the paired machine .ini is
/// resolved relative to the .toml's directory. Returns whether the
/// recorded invariant failed again.
struct ReplayOutcome {
  bool serve = false;  ///< the repro was a serve-mode scenario
  bool reproduced = false;
  std::string recorded_invariant;
  std::string recorded_algorithm;     ///< single-offload repros only
  std::vector<Violation> violations;  ///< what this run actually reported
};

ReplayOutcome replay(const std::string& toml_path);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_DRIVER_H
