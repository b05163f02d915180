#ifndef HOMP_ADVISE_ATTRIBUTION_H
#define HOMP_ADVISE_ATTRIBUTION_H

/// \file attribution.h
/// The attribution engine: joins a Session's decision audits,
/// per-device PredictionErrorStats, trace overlap evidence, serve
/// audits, and merged metrics into ranked Inspection findings — each
/// with the evidence trail, an estimated virtual-time saving, and a
/// concrete knob to turn.
///
/// Every formula is deterministic arithmetic over the session
/// (docs/OBSERVABILITY.md "Inspection catalog" documents each one), so
/// the same artifact files always produce byte-identical reports, so
/// advisor output can be diffed across commits.

#include <string>
#include <vector>

#include "advise/session.h"

namespace homp::advise {

/// One finding. `kind` and `severity` take values from
/// advise/report_keys.h; (kind, device, tenant) is the merge identity
/// across runs of a session.
struct Inspection {
  std::string kind;
  std::string severity;
  std::string device;  ///< empty for run-wide findings
  std::string tenant;  ///< serve findings only
  double saving_s = 0.0;  ///< estimated virtual-time saving (mean per run)
  std::string evidence;   ///< human-readable evidence trail
  std::string knob;       ///< the concrete knob to turn
  std::size_t runs_present = 0;  ///< runs of the session that fired this
  std::size_t runs_total = 0;    ///< runs eligible to fire it
  bool persistent = false;       ///< fired in every eligible run
};

/// Attribution options. The default matches docs/OBSERVABILITY.md; the
/// CLI exposes --bias-threshold. The other thresholds are constants in
/// attribution.cpp.
struct AttributionOptions {
  /// Under-prediction fires at bias >= this; over-prediction at
  /// bias <= 1/this, where bias = sum(actual)/sum(model2) per device.
  double bias_threshold = 1.5;
};

/// Rank of a severity string for sorting (critical > warning > info).
int severity_rank(const std::string& severity) noexcept;

/// Run the attribution engine over the whole session. Findings are
/// merged across runs by (kind, device, tenant) — saving is the mean
/// over the runs that fired, evidence says "persistent across k/N
/// runs" — and ranked by (saving desc, severity desc, kind, device,
/// tenant).
std::vector<Inspection> attribute(const Session& session,
                                  const AttributionOptions& opt = {});

}  // namespace homp::advise

#endif  // HOMP_ADVISE_ATTRIBUTION_H
