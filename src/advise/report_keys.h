#ifndef HOMP_ADVISE_REPORT_KEYS_H
#define HOMP_ADVISE_REPORT_KEYS_H

/// \file report_keys.h
/// The rostered string constants of the advisor's public vocabulary:
/// finding kinds, severities, the stable keys of the JSON report, and
/// the trace summary rows.
///
/// Everything the advisor prints that a consumer might match against
/// (CI scripts grepping `homp-advise report --json`, tests asserting
/// exact findings) lives here — never as inline string
/// literals at the emission site. homp-lint HL005 enforces the roster:
/// each constant below must be referenced by the attribution or report
/// code, and emission sites must use the constant.

namespace homp::advise {

// ---- finding kinds ------------------------------------------------------
// One constant per Inspection kind; values are the stable identifiers in
// report JSON and the merge key across runs. docs/OBSERVABILITY.md
// "Inspection catalog" documents the semantics and formulas.

/// Device ran slower than MODEL_2 predicted: bias >= threshold.
inline constexpr char kKindUnderPrediction[] = "under_prediction";
/// Device ran faster than predicted: bias <= 1/threshold (capacity left
/// on the table when chunk sizing trusted the model).
inline constexpr char kKindOverPrediction[] = "over_prediction";
/// CUTOFF dropped a device whose pre-drop share says it would have
/// carried useful work.
inline constexpr char kKindCutoffDropRegret[] = "cutoff_drop_regret";
/// Speculative duplicate chunks that ran but lost the race.
inline constexpr char kKindSpeculationWaste[] = "speculation_waste";
/// One device finishes well after the rest and gates the makespan.
inline constexpr char kKindCriticalPathBlame[] = "critical_path_blame";
/// Transfer time not hidden behind compute (trace evidence).
inline constexpr char kKindOverlapDeficit[] = "overlap_deficit";
/// Too many decisions lack a backfilled actual to attribute reliably.
inline constexpr char kKindActualsCoverage[] = "actuals_coverage";
/// Serving: virtual time spent at shed level >= 1.
inline constexpr char kKindShedPressure[] = "shed_pressure";
/// Serving: a tenant's circuit breaker opened repeatedly.
inline constexpr char kKindBreakerFlap[] = "breaker_flap";

// ---- severities ---------------------------------------------------------

inline constexpr char kSeverityCritical[] = "critical";
inline constexpr char kSeverityWarning[] = "warning";
inline constexpr char kSeverityInfo[] = "info";

// ---- JSON report keys ---------------------------------------------------

/// Version key of `homp-advise report --json` output.
inline constexpr char kReportVersionKey[] = "homp_advise_version";
/// Version key of `homp-advise diff --json` output.
inline constexpr char kDiffVersionKey[] = "homp_advise_diff_version";
/// Array of finding objects, ranked by estimated saving.
inline constexpr char kFindingsKey[] = "findings";
/// Array of regression objects in a diff verdict.
inline constexpr char kRegressionsKey[] = "regressions";
/// Array of non-regression changes in a diff verdict.
inline constexpr char kChangesKey[] = "changes";

// ---- trace summary rows -------------------------------------------------
// The `key: value` rows trace_rows() derives from a chrome trace, which
// `homp-advise report` prints and `homp-advise diff` compares. Times are
// seconds. docs/OBSERVABILITY.md "Trace rows" defines each figure.

/// Header row of one trace's block in the report: the file it came from.
inline constexpr char kRowTrace[] = "trace";
inline constexpr char kRowEvents[] = "events";
inline constexpr char kRowDevices[] = "devices";
inline constexpr char kRowMakespan[] = "makespan_s";
inline constexpr char kRowCriticalDevice[] = "critical_device";
inline constexpr char kRowCriticalPath[] = "critical_path_s";
inline constexpr char kRowCriticalBusy[] = "critical_busy_s";
inline constexpr char kRowBarrierSkew[] = "barrier_skew_s";
inline constexpr char kRowImbalance[] = "imbalance_pct";
inline constexpr char kRowTransfer[] = "transfer_s";
inline constexpr char kRowTransferHidden[] = "transfer_hidden_s";
inline constexpr char kRowOverlapRatio[] = "overlap_ratio";
inline constexpr char kRowFaults[] = "faults";
inline constexpr char kRowRecoveryActions[] = "recovery_actions";
inline constexpr char kRowDecisions[] = "decisions";
/// Serving traces: the tenant count, then `tenant[<name>].<field>` rows
/// with the fields below plus makespan_s, critical_path_s, imbalance_pct.
inline constexpr char kRowTenants[] = "tenants";
inline constexpr char kRowTenant[] = "tenant";
inline constexpr char kRowSpans[] = "spans";
inline constexpr char kRowThreads[] = "threads";
inline constexpr char kRowBusy[] = "busy_s";
/// Serving traces with terminal job outcomes or breaker trips: counts,
/// then `serve.failed[<tenant>/<class>]` per error class and
/// `serve.failed_job[<id>]` per job (likewise for cancelled).
inline constexpr char kRowServeFailedJobs[] = "serve.failed_jobs";
inline constexpr char kRowServeCancelledJobs[] = "serve.cancelled_jobs";
inline constexpr char kRowServeBreakerTrips[] = "serve.breaker_trips";
inline constexpr char kRowServeFailed[] = "serve.failed";
inline constexpr char kRowServeCancelled[] = "serve.cancelled";
inline constexpr char kRowServeFailedJob[] = "serve.failed_job";
inline constexpr char kRowServeCancelledJob[] = "serve.cancelled_job";

}  // namespace homp::advise

#endif  // HOMP_ADVISE_REPORT_KEYS_H
