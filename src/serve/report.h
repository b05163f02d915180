#ifndef HOMP_SERVE_REPORT_H
#define HOMP_SERVE_REPORT_H

/// \file report.h
/// Per-job records, invariant validation, metrics export and the
/// deterministic summary/trace exporters of the multi-tenant offload
/// server (docs/SERVING.md).
///
/// Everything here is virtual-time only and deterministically ordered,
/// so two same-seed serving runs produce byte-identical summary JSON —
/// the property bench_traffic commits to BENCH_traffic.json and CI
/// re-checks.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/options.h"
#include "serve/tenant.h"

namespace homp::serve {

/// Terminal state of a job record (docs/SERVING.md "Job failure
/// domains"). kFail marks an unrecoverable error contained to the job;
/// kCancelled marks a cooperative revocation (admitted-deadline miss, or
/// a job terminated straight out of the queue/vestibule).
enum class JobOutcome {
  kCompleted = 0,
  kFail,
  kCancelled,
};

const char* to_string(JobOutcome o) noexcept;

/// One job's life, submit to finish. All times are absolute virtual
/// seconds on the server's shared engine.
struct JobRecord {
  std::uint64_t job_id = 0;
  std::string tenant;
  PriorityClass priority = PriorityClass::kSilver;
  std::string kernel;
  long long n = 0;

  double submit_time = 0.0;
  double dispatch_time = 0.0;
  double finish_time = 0.0;
  /// Virtual seconds spent parked in the vestibule (kBlock backpressure)
  /// before entering the bounded queue; included in queue_wait().
  double blocked_s = 0.0;

  /// MODEL_2-predicted run time at admission (fastest eligible devices).
  double predicted_s = 0.0;

  int devices_granted = 0;
  long long iterations_done = 0;
  /// Dispatched at shed level >= 1: speculation was stripped.
  bool speculation_shed = false;

  JobOutcome outcome = JobOutcome::kCompleted;
  /// fail_class_name() of the contained error / cancellation reason
  /// ("quorum_exhausted", "deadline_miss", ...); empty when completed.
  std::string error_class;
  std::string error;  ///< human-readable cause; empty when completed

  /// Per-activity spans of the offload (ServeOptions::collect_trace).
  std::vector<rt::TraceSpan> trace;

  bool ok() const noexcept { return outcome == JobOutcome::kCompleted; }
  double latency() const noexcept { return finish_time - submit_time; }
  double queue_wait() const noexcept { return dispatch_time - submit_time; }
};

/// Per-tenant admission/completion counters, maintained by the server.
struct TenantCounts {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t blocked = 0;  ///< submissions that went through the vestibule
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_deadline = 0;
  std::size_t rejected_shed = 0;
  std::size_t rejected_infeasible = 0;
  std::size_t rejected_breaker = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;     ///< terminal kFail records
  std::size_t cancelled = 0;  ///< terminal kCancelled records
  std::size_t breaker_trips = 0;
  long long iterations = 0;

  std::size_t rejected() const noexcept {
    return rejected_queue_full + rejected_deadline + rejected_shed +
           rejected_infeasible + rejected_breaker;
  }
};

/// Everything one serving run produced. Filled by OffloadServer; the
/// exporters below are pure functions of it.
struct ServeReport {
  /// Tenant names, in server tenant-index order.
  std::vector<std::string> tenants;
  std::vector<PriorityClass> tenant_priority;
  std::vector<TenantCounts> counts;  ///< parallel to `tenants`

  /// Completed/failed jobs, in completion order.
  std::vector<JobRecord> jobs;

  /// Decision audit: every admission verdict, dispatch, completion and
  /// shed transition, in virtual-time order.
  std::vector<ServeEvent> events;

  double makespan_s = 0.0;  ///< engine time when the run drained
  int final_shed_level = 0;
  std::size_t shed_transitions = 0;
  std::size_t speculation_shed_jobs = 0;

  /// Exact percentile (nearest-rank) over completed-job latencies,
  /// optionally restricted to one priority class (pass nullptr for all).
  double latency_percentile(double q, const PriorityClass* cls) const;

  /// Re-derive the run invariants from the records and return every
  /// breach found:
  ///  - iteration conservation: every completed job ran exactly its n
  ///  - per-tenant FIFO: dispatch order matches queue-entry order
  ///  - audit monotonicity: event times never go backwards
  ///  - accounting: admitted == completed + failed + cancelled for a
  ///    drained run, and every kFail/kCancelled record carries a class
  std::vector<std::string> validate() const;

  /// Export tenant-labelled serving metrics into `reg`
  /// (docs/OBSERVABILITY.md naming; see obs/metric_names.h);
  /// homp_serve_violations_total counts validate()'s breaches.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// Deterministic summary JSON (schema "homp-serve-report-v2"):
  /// per-class and per-tenant p50/p99 latency, goodput, admission
  /// counts, shed-ladder summary and violations. Byte-identical across
  /// same-seed runs.
  void write_summary_json(std::ostream& os) const;

  /// Deterministic JSON export of the serve decision audit (`events`)
  /// with the run header and per-tenant counters — the serving-side
  /// input of the offline advisor (src/advise: shed-ladder pressure and
  /// per-tenant breaker attribution). Schema version rides in
  /// "homp_serve_audit_version" so homp-advise can sniff the artifact
  /// kind. Byte-identical across same-seed runs.
  void write_audit_json(std::ostream& os) const;

  /// Combined chrome://tracing export of every job's spans: one trace
  /// "process" per tenant (pid = tenant index + 1, named via
  /// process_name metadata), one "thread" per (job, device slot), plus
  /// the serve decision audit as instant events. Times are absolute, so
  /// concurrent jobs interleave on the timeline.
  void write_trace_json(std::ostream& os) const;
};

}  // namespace homp::serve

#endif  // HOMP_SERVE_REPORT_H
