#ifndef HOMP_FUZZ_SERVE_DRIVER_H
#define HOMP_FUZZ_SERVE_DRIVER_H

/// \file serve_driver.h
/// Serve mode of the homp-fuzz pipeline (docs/FUZZING.md "--serve"): the
/// corpus loop, shrinker and replay of driver.h, fed with multi-tenant
/// serve scenarios and the serve-invariant oracle. Failures land as
/// serve-repro-<seed>.{ini,toml} pairs; replay them with replay().

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/driver.h"
#include "fuzz/serve_oracle.h"
#include "fuzz/serve_scenario.h"

namespace homp::fuzz {

struct ServeFuzzConfig : CorpusConfig {
  ServeGeneratorLimits limits;
};

/// One failing serve scenario as the summary reports it.
struct ServeFailureRecord {
  std::uint64_t seed = 0;
  std::string invariant;  ///< primary (first-reported) failing invariant
  std::string detail;
  std::string repro_toml;  ///< empty when max_repros was exhausted
  int shrunk_tenants = 0;
  int shrunk_jobs = 0;
  int shrunk_faulty_tenants = 0;  ///< tenants whose fault script survived
};

struct ServeFuzzSummary {
  int scenarios = 0;
  int jobs = 0;  ///< submissions across the corpus (first runs only)
  std::size_t completed = 0;
  std::size_t failed = 0;     ///< contained terminal kFail records
  std::size_t cancelled = 0;  ///< terminal kCancelled records
  std::size_t rejected = 0;
  std::size_t breaker_trips = 0;
  int violations = 0;
  std::vector<ServeFailureRecord> failures;
  std::string json;  ///< the deterministic summary document
};

/// Run the serve corpus. Throws ConfigError only for unusable
/// configuration; scenario failures are data, not errors.
ServeFuzzSummary run_serve_fuzz(const ServeFuzzConfig& cfg);

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_SERVE_DRIVER_H
