#ifndef HOMP_SERVE_TENANT_H
#define HOMP_SERVE_TENANT_H

/// \file tenant.h
/// Multi-tenant serving vocabulary (docs/SERVING.md): who submits work
/// (TenantSpec), what one job is (JobSpec), and the admission verdicts
/// and audit events the server emits while deciding.
///
/// Priority classes are strict — a queued gold job always dispatches
/// before silver and bronze — except for the lowest class's starvation
/// floor (ServeOptions::floor_fraction). Within a class, tenants share
/// capacity by weighted-fair queueing over MODEL_2-predicted device
/// seconds.

#include <cstdint>
#include <string>

#include "sched/algorithm.h"
#include "sim/fault.h"

namespace homp::serve {

/// Strict-priority classes, highest first.
enum class PriorityClass { kGold = 0, kSilver = 1, kBronze = 2 };

inline constexpr int kNumClasses = 3;

const char* to_string(PriorityClass c) noexcept;

/// What submit() does when the tenant's bounded queue is full.
enum class BackpressureMode {
  kReject,  ///< fail fast with a retry-after hint
  kBlock,   ///< park the submission; it enters the queue when room opens
};

inline constexpr int kNumBackpressureModes = 2;

const char* to_string(BackpressureMode m) noexcept;

struct TenantSpec {
  std::string name;
  PriorityClass priority = PriorityClass::kSilver;
  /// Weighted-fair share within the priority class (> 0).
  double weight = 1.0;
  BackpressureMode backpressure = BackpressureMode::kReject;
  /// Bounded admission-queue depth; the overflow behavior is
  /// `backpressure`.
  std::size_t max_queue_depth = 64;
  /// Per-tenant fault script applied (on top of the machine's own fault
  /// profile) to every job this tenant runs — a tenant whose kernels
  /// crash devices must not take the cluster down (docs/RESILIENCE.md).
  sim::FaultProfile fault;
};

/// One offload request as a tenant submits it.
struct JobSpec {
  /// Evaluation-kernel name understood by kern::make_case.
  std::string kernel = "axpy";
  /// Problem size (loop iterations).
  long long n = 1 << 14;
  /// Devices requested; the grant may be smaller (shed level >= 2, or
  /// fewer devices free).
  int devices = 2;
  /// Relative completion deadline; 0 disables deadline admission. A job
  /// whose MODEL_2-predicted completion (queue-wait estimate + predicted
  /// run time) exceeds it is rejected at submit.
  double deadline_s = 0.0;
  sched::AlgorithmKind algorithm = sched::AlgorithmKind::kDynamic;
};

enum class AdmitOutcome {
  kAdmitted,
  kBlocked,             ///< parked in the vestibule (kBlock backpressure)
  kRejectedQueueFull,   ///< bounded queue full (kReject backpressure)
  kRejectedDeadline,    ///< predicted completion exceeds the deadline
  kRejectedShed,        ///< shed level 3: lowest class refused at the door
  kRejectedInfeasible,  ///< cannot fit device memory on any device count
  kRejectedBreaker,     ///< tenant circuit breaker open; retry after hint
};

const char* to_string(AdmitOutcome o) noexcept;

/// submit()'s synchronous verdict.
struct SubmitResult {
  AdmitOutcome outcome = AdmitOutcome::kAdmitted;
  /// Assigned id (admitted/blocked outcomes only).
  std::uint64_t job_id = 0;
  /// Queue-drain estimate for kRejectedQueueFull: come back in about
  /// this many virtual seconds.
  double retry_after_s = 0.0;
  std::string detail;

  bool accepted() const noexcept {
    return outcome == AdmitOutcome::kAdmitted ||
           outcome == AdmitOutcome::kBlocked;
  }
};

/// Serve-side decision audit (the serving counterpart of the runtime's
/// SchedDecision stream): every admission verdict, dispatch, completion
/// and shed-ladder transition, in virtual-time order.
enum class ServeEventKind {
  kSubmit,
  kAdmit,
  kReject,
  kBlock,
  kUnblock,   ///< vestibule -> queue (room opened)
  kDispatch,
  kComplete,
  kFail,          ///< terminal kFail record (contained unrecoverable error)
  kCancel,        ///< terminal kCancelled record (deadline miss, revocation)
  kShedLevel,     ///< ladder transition; detail carries "L_old -> L_new"
  kBreakerOpen,   ///< tenant circuit breaker tripped; detail has cooldown
  kBreakerProbe,  ///< half-open: one submission admitted as a probe
  kBreakerClose,  ///< probe succeeded; tenant restored to full admission
};

const char* to_string(ServeEventKind k) noexcept;

struct ServeEvent {
  double time = 0.0;  ///< absolute virtual time
  ServeEventKind kind = ServeEventKind::kSubmit;
  std::string tenant;  ///< empty for server-wide events (kShedLevel)
  std::uint64_t job_id = 0;  ///< 0 when not job-scoped
  PriorityClass priority = PriorityClass::kSilver;
  std::string detail;
};

}  // namespace homp::serve

#endif  // HOMP_SERVE_TENANT_H
