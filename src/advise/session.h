#ifndef HOMP_ADVISE_SESSION_H
#define HOMP_ADVISE_SESSION_H

/// \file session.h
/// The advisor's session store: every observability artifact of one or
/// more runs, reloaded from disk and merged into a joint view that the
/// attribution engine (advise/attribution.h) consumes.
///
/// A session accepts any mix of the five artifact kinds HOMP writes,
/// sniffed by their version keys (docs/OBSERVABILITY.md "Artifact
/// kinds"):
///   - decision audits       ("homp_audit_version", runtime/audit_export.h)
///   - serve audits          ("homp_serve_audit_version", serve/report.h)
///   - metrics registries    ("homp_metrics_version", obs/metrics.h)
///   - chrome traces         (top-level JSON array, runtime/trace.h)
///   - bench records         ("bench" key; bench/*.cpp)
///
/// Metrics files are folded into one obs::MetricsRegistry with the
/// registry's own merge semantics (counters add, gauges last-wins,
/// histograms bucket-merge); reconstruction from exported JSON is exact,
/// so a reloaded registry re-exports byte-identically. Audits and traces
/// are kept per-run so attribution can distinguish findings persistent
/// across N runs from one-offs.

#include <cstdint>
#include <string>
#include <vector>

#include "advise/json.h"
#include "obs/metrics.h"

namespace homp::advise {

/// What kind of HOMP artifact a parsed JSON document is.
enum class ArtifactKind {
  kAudit = 0,
  kServeAudit,
  kMetrics,
  kTrace,
  kBench,
  kUnknown,
};

const char* to_string(ArtifactKind k) noexcept;

/// Sniff the artifact kind from a parsed document's version keys.
ArtifactKind classify(const Json& doc) noexcept;

/// Reloaded PredictionErrorStats of one device (means precomputed by the
/// exporter; -1 extrema mean "no samples yet").
struct AuditPrediction {
  double model1_mean = -1.0;
  double model2_mean = -1.0;
  double profile_mean = -1.0;
  long long model_samples = 0;
  long long profile_samples = 0;
  double model1_min = -1.0, model1_max = -1.0;
  double model2_min = -1.0, model2_max = -1.0;
  double profile_min = -1.0, profile_max = -1.0;
};

/// One device row of a reloaded decision audit.
struct AuditDevice {
  std::string name;
  int id = -1;
  int slot = -1;
  double finish_time_s = 0.0;
  long long chunks = 0;
  long long iterations = 0;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  long long tardy_chunks = 0;
  long long spec_copies_run = 0;
  long long spec_copies_won = 0;
  long long requeued_iterations = 0;
  long long quarantine_count = 0;
  AuditPrediction prediction;
};

/// One decision row of a reloaded audit. Negative predictions mean "no
/// such predictor for this record"; actual_s < 0 means never backfilled.
struct AuditDecision {
  double time_s = 0.0;
  int slot = -1;
  std::string device;
  std::string kind;  ///< rt::to_string(DecisionKind) value
  long long begin = 0;
  long long end = 0;
  double chunk_bytes = 0.0;
  double model1_s = -1.0;
  double model2_s = -1.0;
  double profile_s = -1.0;
  double ewma_iter_s = -1.0;
  double actual_s = -1.0;
  std::string detail;
};

/// One reloaded offload decision audit (runtime/audit_export.h schema).
struct RunAudit {
  std::string algorithm;
  double total_time_s = 0.0;
  long long chunks_issued = 0;
  bool degraded = false;
  bool has_cutoff = false;
  std::vector<int> cutoff_selected;
  std::vector<double> cutoff_weights;
  std::vector<double> cutoff_pre_weights;
  std::vector<AuditDevice> devices;
  std::vector<AuditDecision> decisions;
};

/// Per-tenant counters of a reloaded serve audit.
struct ServeTenantRow {
  std::string name;
  std::string priority;
  long long submitted = 0;
  long long admitted = 0;
  long long rejected_shed = 0;
  long long rejected_breaker = 0;
  long long completed = 0;
  long long failed = 0;
  long long cancelled = 0;
  long long breaker_trips = 0;
};

/// One event row of a reloaded serve audit.
struct ServeAuditEvent {
  double time_s = 0.0;
  std::string kind;  ///< serve::to_string(ServeEventKind) value
  std::string tenant;
  std::uint64_t job_id = 0;
  std::string detail;
};

/// One reloaded serving-run audit (serve/report.h write_audit_json).
struct ServeAudit {
  double makespan_s = 0.0;
  int final_shed_level = 0;
  long long shed_transitions = 0;
  std::vector<ServeTenantRow> tenants;
  std::vector<ServeAuditEvent> events;
};

/// Per-device figures of one chrome trace, where a trace thread is a
/// device slot: where its time went and when it reached the final
/// barrier.
struct TraceDevice {
  std::string name;  ///< thread_name metadata, else "slot N"
  int slot = -1;
  double transfer_s = 0.0;  ///< total copy-in + copy-out span time
  double hidden_s = 0.0;    ///< transfer time overlapped with own compute
  double compute_s = 0.0;
  double busy_s = 0.0;  ///< time covered by any span but a barrier
  /// Arrival at the final barrier: the start of its "barrier final"
  /// span. reduce_trace() documents the finish of a device without one.
  double finish_s = 0.0;
};

/// Per-tenant figures of a serving trace, which lays each tenant out as
/// a trace process (serve::ServeReport::write_trace_json).
struct TraceTenant {
  std::string name;  ///< process_name metadata, else "pid N"
  long long spans = 0;
  long long threads = 0;  ///< distinct (job, device) trace threads
  double busy_s = 0.0;
  double critical_path_s = 0.0;  ///< latest thread finish
  double makespan_s = 0.0;       ///< critical path minus the first start
  double imbalance_pct = 0.0;    ///< over the per-thread finishes
};

/// A serving job that ended in a "fail" or "cancel" instant.
struct TraceServeJob {
  bool cancelled = false;
  long long job = -1;
  std::string tenant;       ///< "?" when the instant's pid names none
  std::string error_class;  ///< detail up to its first ':'
  std::string detail;       ///< whitespace runs collapsed to one space
};

/// One chrome trace, reduced to the figures attribution and the report
/// rows use. Imbalance and barrier skew run over the finishes of the
/// participating devices, those that ran a compute span: the set
/// OffloadResult::imbalance() uses.
struct TraceEvidence {
  std::string origin;  ///< the file it was loaded from, if any
  std::size_t events = 0;
  double makespan_s = 0.0;  ///< latest span end
  std::vector<TraceDevice> devices;  ///< ascending slot
  /// Index into `devices`: the participating device that finished last
  /// (the lowest slot when none participated).
  std::size_t critical = 0;
  double barrier_skew_s = 0.0;  ///< latest minus earliest finish
  double imbalance_pct = 0.0;   ///< Imbalance::percent() of the finishes
  long long faults = 0;
  long long recovery_actions = 0;
  long long decisions = 0;
  /// Filled when the trace names processes or spans several of them;
  /// empty for a single offload (every span on pid 0).
  std::vector<TraceTenant> tenants;
  std::vector<TraceServeJob> serve_jobs;  ///< in trace order
  long long breaker_trips = 0;
};

/// Reduce a parsed chrome trace array. The runtime writes no zero-length
/// span, so the device that reaches the final barrier last has no
/// final-barrier span: it finishes at the barrier's release. A device
/// quarantined for good has none either and finishes at its quarantine
/// decision. With no final-barrier span in the trace, a device finishes
/// at the end of its last busy span. Throws ConfigError on an empty
/// trace, a trace without spans, an event that is not an object, and a
/// span without an integer tid or pid.
TraceEvidence reduce_trace(const Json& doc);

/// Fold one exported metrics document into `reg` — exact reconstruction
/// (bucket-for-bucket for histograms) followed by registry-semantics
/// merge. Throws ConfigError on a version mismatch.
void load_metrics(const Json& doc, obs::MetricsRegistry& reg);

/// The session store. add() artifacts in any order, then hand the whole
/// thing to attribute().
struct Session {
  std::vector<RunAudit> runs;
  std::vector<ServeAudit> serve_runs;
  std::vector<TraceEvidence> traces;
  obs::MetricsRegistry metrics;
  std::size_t metrics_files = 0;
  std::size_t bench_files = 0;  ///< counted, not attributed (diff input)

  /// Ingest one parsed document; returns its kind. Unknown artifacts
  /// throw ConfigError naming the path (for CLI exit-2 mapping).
  ArtifactKind add(const Json& doc, const std::string& origin);

  /// Json::parse_file + add.
  ArtifactKind load(const std::string& path);
};

}  // namespace homp::advise

#endif  // HOMP_ADVISE_SESSION_H
