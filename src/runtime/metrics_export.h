#ifndef HOMP_RUNTIME_METRICS_EXPORT_H
#define HOMP_RUNTIME_METRICS_EXPORT_H

/// \file metrics_export.h
/// Bridge from OffloadResult telemetry to the obs::MetricsRegistry
/// (docs/OBSERVABILITY.md).
///
/// collect_metrics() registers every catalogued metric
/// (obs/metric_names.h) for one offload: offload-level counters and
/// gauges, then per-device pipeline / resilience / integrity /
/// model-accuracy series labelled `device="<name>"`. Calling it for
/// several results on the same registry aggregates a session: counters
/// accumulate, gauges keep the last offload's value, histograms merge.
///
/// Export is deterministic — identical seeded runs produce byte-identical
/// JSON (the registry's contract), which the test suite asserts.

#include <iosfwd>
#include <string>

#include "obs/metrics.h"
#include "runtime/options.h"

namespace homp::rt {

/// Register all metrics of `res` into `reg` (see file comment).
void collect_metrics(const OffloadResult& res, obs::MetricsRegistry& reg);

/// Write a registry (one offload or a whole aggregated session) to
/// `path` — JSON (the homp-advise CLI's input) unless the path ends in
/// ".prom", which selects the Prometheus text exposition. Throws
/// ConfigError when the file cannot be opened.
void write_registry_file(const obs::MetricsRegistry& reg,
                         const std::string& path);

/// Convenience: collect_metrics into a fresh registry, then
/// write_registry_file.
void write_metrics_file(const OffloadResult& res, const std::string& path);

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_METRICS_EXPORT_H
