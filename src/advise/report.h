#ifndef HOMP_ADVISE_REPORT_H
#define HOMP_ADVISE_REPORT_H

/// \file report.h
/// Rendering and comparison surfaces of the advisor: the ranked finding
/// report (text and JSON), the trace summary rows, and the
/// direction-aware two-artifact diff.
///
/// Both renderers are pure functions of their inputs with deterministic
/// number formatting, so identical sessions produce byte-identical
/// output — the report determinism tests depend on it.

#include <iosfwd>
#include <string>
#include <vector>

#include "advise/attribution.h"
#include "advise/json.h"
#include "advise/session.h"

namespace homp::advise {

/// Human-readable ranked report. `top` == 0 prints every finding.
void write_report(const std::vector<Inspection>& findings, std::ostream& os,
                  std::size_t top = 0);

/// Machine-readable report ("homp_advise_version": 1), same ranking.
void write_report_json(const std::vector<Inspection>& findings,
                       std::ostream& os, std::size_t top = 0);

/// One `key: value` row of a trace summary; keys come from
/// advise/report_keys.h.
struct TraceRow {
  std::string key;
  double value = 0.0;
  std::string text;  ///< value of a non-numeric row, else empty
};

/// The summary rows of one reduced trace: run-wide figures, then the
/// tenant and serve sections when the trace has them.
std::vector<TraceRow> trace_rows(const TraceEvidence& tr);

/// Print a `trace: <origin>` header row, then trace_rows(tr).
void write_trace_rows(const TraceEvidence& tr, std::ostream& os);

/// One scalar that moved between the two compared artifacts.
struct DiffEntry {
  std::string key;  ///< flattened path, e.g. "scenarios/gpu4-axpy1M/..."
  double before = 0.0;
  double after = 0.0;
  /// Relative change (after-before)/before; 0 when before == 0.
  double rel = 0.0;
  char only_in = 0;  ///< 'A' or 'B' when the key exists on that side only
};

/// Verdict of comparing two artifacts of the same kind.
struct DiffResult {
  std::vector<DiffEntry> regressions;  ///< directional moves past tolerance
  std::vector<DiffEntry> changes;      ///< everything else that moved
  bool identical() const noexcept {
    return regressions.empty() && changes.empty();
  }
};

/// Compare two parsed artifacts. Traces compare by their trace_rows();
/// other artifacts have their numeric leaves flattened to path/value
/// pairs. Keys with a known good direction (throughput higher-better,
/// latency/makespan/violations lower-better) become regressions when
/// they move the wrong way by more than `tolerance` (relative); every
/// other move past tolerance is reported as a neutral change. Throws
/// ConfigError when the artifacts are different kinds or a trace is
/// degenerate.
DiffResult diff_artifacts(const Json& before, const Json& after,
                          double tolerance);

/// Render a verdict; `tolerance` is echoed in the header.
void write_diff(const DiffResult& r, double tolerance, std::ostream& os);
void write_diff_json(const DiffResult& r, double tolerance, std::ostream& os);

}  // namespace homp::advise

#endif  // HOMP_ADVISE_REPORT_H
