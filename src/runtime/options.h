#ifndef HOMP_RUNTIME_OPTIONS_H
#define HOMP_RUNTIME_OPTIONS_H

/// \file options.h
/// Offload configuration and result/telemetry types.

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "dist/policy.h"
#include "model/loop_model.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "sim/fault.h"

namespace homp::rt {

/// Phases of the offloading procedure a proxy thread walks through
/// (paper Fig. 4); the accumulated per-phase times are the Figure 6
/// breakdown.
enum class Phase : int {
  kScheduling = 0,  ///< loop-distribution bookkeeping, chunk acquisition
  kAlloc,           ///< device buffer allocation
  kCopyIn,          ///< host -> device transfers
  kLaunch,          ///< kernel-launch overhead
  kCompute,         ///< kernel execution
  kCopyOut,         ///< device -> host transfers
  kBarrier,         ///< waiting for other devices (stage + final barriers)
  kRecovery,        ///< fault handling: failed-attempt time + retry backoff
};

inline constexpr int kNumPhases = 8;

const char* to_string(Phase p) noexcept;

/// Fault-injection knobs for one offload. Per-device `fault_*` keys from
/// the machine file are combined with the offload-level `extra` profile
/// (independent fault sources); scripted faults fire regardless of rates.
/// Everything is reproducible: the same seed + plan yields the same fault
/// sequence and the same OffloadResult (docs/RESILIENCE.md). Retry,
/// watchdog and integrity tuning are fixed constants (runtime/resilience.h).
struct FaultInjection {
  /// Seed for the per-device fault streams (independent of noise_seed).
  std::uint64_t seed = 0x5eedfa;

  /// Additional fault profile applied to every participating device on
  /// top of its machine-file profile.
  sim::FaultProfile extra;

  /// Deterministic scripted faults (fire at a given op index or virtual
  /// time, regardless of the random rates).
  std::vector<sim::ScriptedFault> scripted;
};

/// Watchdog, straggler mitigation and probation re-admission switches
/// (docs/RESILIENCE.md). Only consulted while fault injection is active:
/// a fault-free offload runs with zero watchdog machinery, so it stays
/// bit-identical to a run without the subsystem.
struct WatchdogOptions {
  /// Master switch. Off: no deadlines, no speculation, no probation —
  /// a quarantine is permanent.
  bool enabled = true;

  /// Duplicate a tardy chunk onto the fastest idle survivor; the first
  /// copy to commit wins, the loser is discarded before touching host
  /// state (first-commit-wins keeps results bit-identical).
  bool speculation = true;
};

/// End-to-end data-integrity switches (docs/RESILIENCE.md "Integrity").
/// Every chunk payload is checksummed on the device side and verified at
/// commit; a mismatch discards the chunk before it touches host state and
/// re-executes it on a different device, escalating to quorum voting on
/// repeated disagreement. Armed only while fault injection is active
/// (or with `always`), so a fault-free offload pays nothing.
struct IntegrityOptions {
  /// Master switch. Off: injected corruption is committed silently — the
  /// pre-integrity behavior (useful as a negative control in tests).
  bool enabled = true;

  /// Arm verification even without fault injection (overhead
  /// measurement; also catches host-side memory errors in principle).
  bool always = false;
};

/// Differential-harness taps consumed by the scenario fuzzer
/// (src/fuzz, the homp-fuzz driver; docs/FUZZING.md). All off by default:
/// a production offload pays nothing for them.
struct HarnessOptions {
  /// Step-budget watchdog: fail the offload (kStepBudget) once more than
  /// this many of its own events (timers and transfer completions) ran.
  /// A scheduler livelock advances virtual time forever, so only an
  /// event budget — not a deadline — can catch it. 0 disables.
  long long step_budget = 0;

  /// Checksum every copies-out host buffer after the final write-backs
  /// and publish it as OffloadResult::result_checksum — the differential
  /// oracle's bit-exactness probe. Requires execute_bodies (a pure
  /// simulation has no result bytes to hash).
  bool capture_result_checksum = false;
};

struct OffloadOptions {
  /// Global device ids participating in the offload (the `device(...)`
  /// list). Must be non-empty; id 0 is the host.
  std::vector<int> device_ids;

  /// Loop-distribution algorithm and tuning.
  sched::SchedulerConfig sched;

  /// Loop distribution policy from dist_schedule(target:[...]):
  ///  - kAuto: resolve via `sched.kind` (or the selector when
  ///    `auto_select_algorithm`)
  ///  - kAlign: copy the named array's distribution onto the loop
  ///  - kBlock: force BLOCK regardless of sched.kind
  dist::DimPolicy loop_policy = dist::DimPolicy::auto_();

  /// Label under which the loop's distribution is registered for
  /// ALIGN(label) references from map clauses (e.g. "loop1").
  std::string loop_label = "loop";

  /// Resolve AUTO through the §IV-D heuristic instead of sched.kind.
  bool auto_select_algorithm = false;

  /// Execute kernel bodies and perform real copies (tests/examples); when
  /// false, run the pure discrete-event simulation (benchmarks at paper
  /// scale).
  bool execute_bodies = true;

  /// The `parallel target` composite construct (§III-4): offload setup on
  /// all devices concurrently. When false, device setup (alloc + copy-in
  /// issue) is serialized in device order, as plain multi-device target
  /// offloading would be.
  bool parallel_offload = true;

  /// Map data through unified memory instead of explicit transfers
  /// (§V-C ablation).
  bool use_unified_memory = false;

  /// Within-device distribution of a chunk across the device's parallel
  /// units — the dist_schedule(teams:[...]) level of the HOMP extension.
  /// Only BLOCK and CYCLIC are meaningful here. It matters when the
  /// kernel's iterations are indivisible (quantization onto units) or
  /// carry a work_factor skew: BLOCK gives each unit a contiguous
  /// subrange (imbalanced under skew), CYCLIC interleaves (mean-field
  /// balanced).
  dist::PolicyKind teams_policy = dist::PolicyKind::kBlock;

  /// Seed for the per-device execution-time noise streams.
  std::uint64_t noise_seed = 42;

  /// Fault injection (docs/RESILIENCE.md). Faults are active when any
  /// device's machine-file profile, `fault.extra`, or `fault.scripted`
  /// specifies one; otherwise this adds no overhead.
  FaultInjection fault;

  /// Watchdog / straggler-mitigation / probation switches; armed only
  /// while fault injection is active.
  WatchdogOptions watchdog;

  /// Data-integrity verification switches; armed only while fault
  /// injection is active unless `integrity.always`.
  IntegrityOptions integrity;

  /// Fuzz/differential-harness taps (step-budget watchdog, result
  /// checksum capture; docs/FUZZING.md).
  HarnessOptions harness;

  /// Record per-activity spans into OffloadResult::trace (see
  /// runtime/trace.h for the chrome://tracing exporter). Also implies
  /// collect_audit and per-device counter samples so the exported trace
  /// carries decision instants and Perfetto counter tracks.
  bool collect_trace = false;

  /// Record the scheduler decision audit trail into
  /// OffloadResult::decisions (docs/OBSERVABILITY.md) without paying for
  /// full span collection. The always-on prediction-error telemetry in
  /// DeviceStats does not depend on this flag.
  bool collect_audit = false;

  /// All knob-range violations across sched / fault / harness options,
  /// scripted faults included (empty = valid). Centralized here so every
  /// entry point — Runtime::offload, direct OffloadExecution use, tests —
  /// shares one diagnostic.
  std::vector<std::string> validate() const;

  /// Throws ConfigError listing every violation.
  void validate_or_throw() const;
};

/// One injected fault observed by the recovery machinery, in virtual time.
struct FaultEvent {
  double time = 0.0;
  int slot = -1;
  int device_id = -1;
  sim::FaultKind kind = sim::FaultKind::kTransfer;
  bool fatal = false;  ///< true when the fault quarantined the device
  std::string detail;  ///< e.g. "copy-in [0,1024) attempt 2"
};

/// What the watchdog / probation machinery did (as opposed to FaultEvent,
/// which records what the fault *injection* did).
enum class RecoveryAction : int {
  kWatchdogFired = 0,  ///< a chunk missed its soft deadline (tardy)
  kSpeculated,         ///< tardy chunk duplicated onto a survivor
  kSpecCommitted,      ///< a speculative duplicate committed first
  kTardyAbandoned,     ///< the losing copy of a speculated chunk discarded
  kReadmitted,         ///< quarantined device re-entered in probation
  kProbePassed,        ///< a probation probe chunk committed
  kPromoted,           ///< probation device restored to full service
  kCorruptionDetected,  ///< a payload checksum mismatch; chunk discarded
  kReexecuteQueued,     ///< discarded chunk queued for another device
  kReexecuteCommitted,  ///< a re-executed chunk passed and committed
  kVoteOpened,          ///< repeated disagreement escalated to voting
  kVoteCommitted,       ///< a quorum of agreeing ballots committed
};

const char* to_string(RecoveryAction a) noexcept;

/// One watchdog/probation decision, in virtual-time order.
struct RecoveryEvent {
  double time = 0.0;
  int slot = -1;
  int device_id = -1;
  RecoveryAction action = RecoveryAction::kWatchdogFired;
  std::string detail;  ///< e.g. the chunk range and the deadline that fired
};

/// What a scheduler-audit record describes (docs/OBSERVABILITY.md).
enum class DecisionKind : int {
  kChunkAssigned = 0,  ///< scheduler handed a chunk to a device
  kCutoffKept,         ///< CUTOFF retained the device with this weight
  kCutoffDropped,      ///< CUTOFF removed the device from the plan
  kSpeculated,         ///< watchdog duplicated a tardy chunk
  kQuarantined,        ///< device withdrawn from service
  kReadmitted,         ///< device re-entered service in probation
};

const char* to_string(DecisionKind k) noexcept;

/// One scheduler/runtime decision with the inputs it was made on, in
/// virtual-time order. Chunk assignments carry the per-predictor
/// expected chunk seconds current at assignment time; `actual_s` is
/// backfilled when the chunk's compute completes on this device (and
/// stays negative when it never does — requeued, hung, cancelled).
/// Recorded when OffloadOptions::collect_audit or collect_trace is set.
struct SchedDecision {
  double time = 0.0;
  int slot = -1;
  int device_id = -1;
  DecisionKind kind = DecisionKind::kChunkAssigned;
  dist::Range range;  ///< chunk concerned; empty for device-level records

  /// Bytes this chunk moves over the device link (the kernel profile's
  /// per-iteration transfer characteristic times the chunk size); 0 for
  /// device-level records. The advisor's regret estimates divide by it.
  double chunk_bytes = 0.0;

  /// MODEL_1 prediction: pure compute seconds for the chunk.
  double predicted_model1_s = -1.0;
  /// MODEL_2 prediction: compute + Hockney transfer + launch seconds.
  double predicted_model2_s = -1.0;
  /// ThroughputHistory prediction (profiled rate); < 0 when no history.
  double predicted_profile_s = -1.0;
  /// Device per-iteration EWMA at decision time (0 until first chunk).
  double ewma_iter_s = 0.0;

  /// Measured fetch-to-compute-done seconds; < 0 = never completed here.
  double actual_s = -1.0;

  std::string detail;  ///< e.g. "scheduler", "requeue", "weight 0.31"
};

/// Perfetto counter-track ids emitted as "ph":"C" rows by
/// write_chrome_trace (one track per device per counter).
enum class CounterTrack : int {
  kQueueDepth = 0,     ///< chunks resident in the device pipeline
  kOutstandingBytes,   ///< transfer bytes currently in flight
  kIterations,         ///< cumulative committed iterations
  kEwmaThroughput,     ///< iterations/second from the per-device EWMA
};

inline constexpr int kNumCounterTracks = 4;

const char* to_string(CounterTrack t) noexcept;

/// One counter-track sample on one device, in virtual time. Recorded at
/// pipeline transitions when OffloadOptions::collect_trace is set.
struct CounterSample {
  double time = 0.0;
  int slot = -1;
  CounterTrack track = CounterTrack::kQueueDepth;
  double value = 0.0;
};

/// One pipeline activity on one device, in virtual time.
struct TraceSpan {
  int slot = -1;      ///< device slot within the offload
  std::string device;
  Phase phase = Phase::kCompute;
  double t0 = 0.0;    ///< virtual seconds
  double t1 = 0.0;
  std::string label;  ///< e.g. the chunk range
};

/// Accuracy of the model layer's predictions against what one device
/// actually measured, accumulated over its healthy scheduler-issued
/// chunks (requeued/speculative copies excluded — their timings carry
/// recovery noise). Relative error of one chunk = |predicted - actual|
/// / actual. Always collected; it is a handful of adds per chunk.
struct PredictionErrorStats {
  double model1_err_sum = 0.0;   ///< vs measured compute seconds
  double model2_err_sum = 0.0;   ///< vs measured fetch-to-compute-done
  double profile_err_sum = 0.0;  ///< history rate vs fetch-to-compute-done
  std::size_t model_samples = 0;
  std::size_t profile_samples = 0;  ///< chunks with a history rate

  /// Per-predictor relative-error extrema (-1 until the first sample):
  /// the advisor's spread evidence — a mean alone cannot distinguish a
  /// uniformly-wrong model from one wrecked by a single outlier chunk.
  double model1_err_min = -1.0;
  double model1_err_max = -1.0;
  double model2_err_min = -1.0;
  double model2_err_max = -1.0;
  double profile_err_min = -1.0;
  double profile_err_max = -1.0;

  double model1_mean() const noexcept {
    return model_samples == 0 ? 0.0 : model1_err_sum / double(model_samples);
  }
  double model2_mean() const noexcept {
    return model_samples == 0 ? 0.0 : model2_err_sum / double(model_samples);
  }
  double profile_mean() const noexcept {
    return profile_samples == 0 ? 0.0
                                : profile_err_sum / double(profile_samples);
  }
};

/// Per-device telemetry for one offload.
struct DeviceStats {
  std::string device_name;
  int device_id = -1;
  double phase_time[kNumPhases] = {};
  std::size_t chunks = 0;
  long long iterations = 0;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  /// Virtual time the device arrived at the final barrier.
  double finish_time = 0.0;

  /// Fault/recovery telemetry (all zero on a fault-free run).
  std::size_t faults = 0;   ///< injected faults observed on this device
  std::size_t retries = 0;  ///< stage attempts retried after a transient
  long long requeued_iterations = 0;  ///< iterations taken FROM this device
  bool quarantined = false;     ///< still quarantined at offload end
  double quarantined_at = 0.0;  ///< virtual time of (last) quarantine

  /// Watchdog / straggler / probation telemetry (docs/RESILIENCE.md).
  std::size_t tardy_chunks = 0;   ///< own chunks that missed the deadline
  std::size_t spec_copies_run = 0;  ///< duplicates executed ON this device
  std::size_t spec_copies_won = 0;  ///< duplicates that committed first
  std::size_t probe_chunks = 0;     ///< chunks served while in probation
  std::size_t readmissions = 0;     ///< probation re-entries
  std::size_t quarantine_count = 0;  ///< total quarantines (>=1 can heal)

  /// Data-integrity telemetry (docs/RESILIENCE.md "Integrity").
  std::size_t corruptions_injected = 0;  ///< payloads/results bit-flipped
  std::size_t integrity_checks = 0;      ///< payload verifications run
  std::size_t integrity_failures = 0;    ///< checksum mismatches caught
  std::size_t integrity_reexecutions = 0;  ///< discarded chunks re-run here
  std::size_t vote_rounds = 0;           ///< ballot executions served here

  /// Model-accuracy telemetry (docs/OBSERVABILITY.md).
  PredictionErrorStats prediction;

  /// End-to-end (fetch to compute-done) seconds of every chunk computed
  /// on this device, including requeued/speculative copies.
  obs::Histogram chunk_seconds;

  double busy_time() const noexcept {
    double t = 0.0;
    for (int p = 0; p < kNumPhases; ++p) {
      if (p != static_cast<int>(Phase::kBarrier)) t += phase_time[p];
    }
    return t;
  }
};

struct OffloadResult {
  /// Offload wall time in virtual seconds (start to last device done).
  double total_time = 0.0;

  std::vector<DeviceStats> devices;  ///< per slot, in device_ids order

  double reduction = 0.0;

  /// Scheduler introspection.
  std::vector<double> planned_weights;
  model::CutoffResult cutoff;
  bool has_cutoff = false;
  sched::AlgorithmKind algorithm_used = sched::AlgorithmKind::kBlock;
  std::size_t chunks_issued = 0;

  /// Per-activity spans (only when OffloadOptions::collect_trace).
  std::vector<TraceSpan> trace;

  /// Every injected fault the recovery machinery observed, in time order.
  std::vector<FaultEvent> fault_events;

  /// Every watchdog / speculation / probation decision, in time order.
  std::vector<RecoveryEvent> recovery_events;

  /// Scheduler decision audit trail (only when collect_audit or
  /// collect_trace), in decision order.
  std::vector<SchedDecision> decisions;

  /// Counter-track samples (only when collect_trace), in time order per
  /// device; write_chrome_trace turns them into Perfetto counter rows.
  std::vector<CounterSample> counters;

  /// True when at least one device was quarantined at some point (even if
  /// later re-admitted): the offload ran degraded for a while.
  bool degraded = false;

  /// DES engine events processed from launch to the offload's completion
  /// decision, on a shared engine other jobs' events among them.
  std::size_t engine_events = 0;

  /// Combined checksum over every copies-out host buffer after the final
  /// write-backs (only when OffloadOptions::harness.capture_result_checksum
  /// and the buffers are real and contiguous — `result_checksum_valid`
  /// says so). Two algorithms distributing the same loop must agree here
  /// bit for bit; the fuzz oracle's differential invariant.
  std::uint64_t result_checksum = 0;
  bool result_checksum_valid = false;

  /// Failure-domain outcome, delivered by start() (run() rethrows a
  /// failure as OffloadError). `failed` marks an unrecoverable error captured
  /// by the execution's containment guard; `cancelled` marks cooperative
  /// cancellation (e.g. the serving layer revoking a job that blew its
  /// admitted deadline). When either is set the result carries whatever
  /// partial statistics were gathered — iteration coverage is NOT
  /// guaranteed and the checksum is never valid.
  bool failed = false;
  bool cancelled = false;
  FailClass fail_class = FailClass::kUnspecified;
  std::string error;  ///< empty unless failed/cancelled

  /// Load imbalance over per-device finish times (Figure 6 curve).
  Imbalance imbalance() const;

  /// Aggregate fraction of device-seconds spent in `p` across devices.
  double phase_fraction(Phase p) const;

  long long total_iterations() const;
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_OPTIONS_H
