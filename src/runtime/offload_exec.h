#ifndef HOMP_RUNTIME_OFFLOAD_EXEC_H
#define HOMP_RUNTIME_OFFLOAD_EXEC_H

/// \file offload_exec.h
/// Execution of one multi-device offload on the discrete-event engine.
///
/// Each participating device is driven by a proxy actor — the simulated
/// counterpart of the paper's per-device host pthread proxies (§V, Fig. 4).
/// A proxy walks the offloading pipeline:
///
///   acquire chunk -> (alloc +) copy-in -> launch + compute -> copy-out
///        ^                                    |
///        +--------- prefetch next chunk ------+   (double buffering)
///
/// Input transfer of chunk k+1 overlaps computation of chunk k, which is
/// the mechanism behind the paper's observation that SCHED_DYNAMIC wins on
/// data-intensive kernels (§VI-A). Host->device and device->host
/// directions are independent full-duplex PCIe lanes; dies sharing a card
/// contend on the same lane pair.
///
/// Data movement is real: unless `execute_bodies` is off, mapped
/// subregions are memcpy'd between host arrays and per-device storage and
/// kernel bodies run against the device copies, so distribution bugs
/// corrupt results instead of hiding in the timing model.
///
/// The pipeline is fault-tolerant (docs/RESILIENCE.md): transient
/// transfer/launch faults injected by the sim::FaultPlan are retried with
/// capped exponential backoff; a device that exhausts its retry budget or
/// is permanently lost is quarantined, and its in-flight plus unissued
/// iterations are requeued and redistributed to the survivors. Host
/// commits (copy-out, reduction, iteration counts) ride the copy-out
/// completion, so a quarantined chunk never half-writes host arrays.
///
/// On top of retry/quarantine sits a watchdog (armed only while fault
/// injection is active): every compute gets a soft deadline derived from
/// the model-predicted chunk time, and a hard deadline a fixed multiple
/// beyond it. A chunk past its soft deadline is *tardy* — it may be
/// speculatively duplicated onto the fastest idle survivor, with
/// first-commit-wins deciding which copy's host effects land (the loser
/// is discarded before touching host state, keeping results
/// bit-identical). A chunk past its hard deadline is presumed hung
/// (FaultKind::kHang) and its device is quarantined. Quarantine is no
/// longer necessarily permanent: unless the device is really lost, it is
/// re-admitted after an exponentially growing cooldown into a probation
/// state that feeds it small probe chunks until it either proves itself
/// (promotion) or fails again (re-quarantine).
///
/// The third resilience leg is end-to-end data integrity
/// (docs/RESILIENCE.md "Integrity"): chunk payloads are checksummed on
/// the device side and verified before their host commit, so silently
/// corrupted transfers or kernel results (FaultKind::kCorruptTransfer /
/// kCorruptCompute) are discarded before touching host state,
/// re-executed on a different device, and escalated to quorum voting on
/// repeated disagreement. Devices that repeatedly fail verification trip
/// a circuit breaker into the same quarantine + probation machinery.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dist/distribution.h"
#include "machine/device.h"
#include "memory/data_env.h"
#include "memory/map_spec.h"
#include "runtime/exec_context.h"
#include "runtime/kernel.h"
#include "runtime/options.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/link.h"

namespace homp::rt {

class OffloadExecution {
 public:
  /// \param forced_loop_dist non-null inside a `target data` region whose
  ///        entry already fixed the loop distribution (DataRegion).
  /// \param region_envs per-slot data environments of an enclosing data
  ///        region; when given, data is already device-resident, so the
  ///        offload moves no bytes (entry/halo/exit transfers are the
  ///        region's) and `maps` should be empty.
  /// \param ctx non-null to run on a *shared* engine + link lanes
  ///        (exec_context.h): the execution schedules relative to the
  ///        engine's current time and delivers its result through the
  ///        callback given to start() instead of returning from run().
  ///        The context must outlive this object.
  OffloadExecution(const mach::MachineDescriptor& machine,
                   const LoopKernel& kernel,
                   const std::vector<mem::MapSpec>& maps,
                   const OffloadOptions& opts,
                   const dist::Distribution* forced_loop_dist = nullptr,
                   const std::vector<mem::DeviceDataEnv>* region_envs =
                       nullptr,
                   const ExecContext* ctx = nullptr);

  ~OffloadExecution();  // out-of-line: Proxy/SpecPlan are private types

  /// Run the offload to completion on the *owned* engine; single use.
  /// Standalone mode only (no ExecContext).
  OffloadResult run();

  /// Shared-engine mode: enqueue the offload's first events on the
  /// context's engine and return immediately. `on_complete` fires (as an
  /// engine event) once every device is done or quarantined and all
  /// redistribution/integrity work has settled; the caller drives the
  /// shared engine. Times inside the result (total_time, per-device
  /// finish_time) are relative to launch; trace spans and event streams
  /// keep absolute virtual time so multi-tenant traces interleave
  /// correctly. Single use, requires a context.
  ///
  /// Shared-mode executions are their own *failure domain*
  /// (docs/SERVING.md): an unrecoverable OffloadError raised inside any
  /// of this execution's events is captured, every timer the execution
  /// armed is revoked (cancel_generation), and on_complete receives a
  /// result with `failed` set instead of the exception unwinding the
  /// caller's engine drain. After on_complete returns the caller may
  /// destroy the execution immediately — nothing it scheduled can fire
  /// afterwards.
  void start(std::function<void(OffloadResult&&)> on_complete);

  /// Cooperative cancellation (shared mode; no-op standalone or once the
  /// result is already on its way). New work stops being fetched, idle
  /// proxies park immediately, busy ones drain their in-flight transfer
  /// or compute and then park — no final static write-back is paid. The
  /// result arrives through on_complete with `cancelled` set, carrying
  /// `cls`/`reason` and whatever partial statistics accrued.
  void request_cancel(FailClass cls, std::string reason);

  /// Shared mode: the cancellation generation every timer this execution
  /// arms belongs to; 0 standalone. After the completion callback fires
  /// the generation has no pending events — the serving layer's
  /// memory-flatness invariant checks this via Engine::live_generations.
  sim::Engine::GenTag generation() const noexcept { return gen_; }

  /// The effective cost profile (kernel FLOPs/memory plus transfer bytes
  /// per iteration derived from the actual map footprints) used for model
  /// predictions.
  const model::KernelCostProfile& effective_profile() const noexcept {
    return effective_profile_;
  }

 private:
  struct SpecPlan;
  struct SpecToken;
  struct PendingChunk;
  struct OutRecord;
  struct Proxy;
  struct IntegrityState;
  struct WireFault;

  void validate_and_plan();
  void build_proxies();
  void build_fault_plan();
  /// Schedule the offload's opening events (fetches, loss timers) at the
  /// engine's current time; shared front half of run()/start().
  void launch();
  /// Collect the OffloadResult once every proxy has settled; shared back
  /// half of run()/start().
  OffloadResult harvest();
  /// Shared-engine completion probe: when every proxy is done or lost
  /// and no mandatory work remains, fire the start() callback exactly
  /// once (as a fresh engine event, so it never runs inside a commit
  /// chain). No-op in standalone mode.
  void maybe_finish();

  // Failure domain (shared mode; docs/SERVING.md "Job failure domains").
  /// Event trampoline: every engine event and link-completion callback
  /// this execution arms goes through here. Standalone it is the
  /// identity (exceptions propagate out of run(), as ever). Shared, it
  /// (a) goes inert once the owner destroyed the execution or the
  /// domain is sealed by a failure, (b) charges the per-job step budget,
  /// and (c) converts an escaping OffloadError/ExecutionError into
  /// fail() instead of unwinding the shared engine.
  sim::Engine::Callback guard(sim::Engine::Callback fn);
  /// schedule_after through guard(), tagged with this job's generation.
  std::uint64_t sched_after(double dt, sim::Engine::Callback fn);
  /// Seal the domain: record the error, revoke every pending timer and
  /// deliver the failed result. Idempotent.
  void fail(FailClass cls, std::string what);
  /// Common terminal path: cancel the generation and schedule the
  /// (untagged, lifetime-guarded) delivery event.
  void finish_now();
  /// Cancellation parking: retire an idle / barrier-waiting proxy; busy
  /// proxies drain back through try_fetch and park there.
  void park_proxy(int slot);
  double compute_seconds(Proxy& p, const dist::Range& chunk) const;
  void make_chunk_mappings(Proxy& p, const dist::Range& chunk,
                           std::vector<mem::DeviceMapping*>* out) const;
  void make_static_mappings(Proxy& p);

  // Proxy state machine.
  void try_fetch(int slot);
  void issue_input(int slot, int attempt);
  void on_input_done(int slot, int attempt, std::uint64_t wire_seed);
  void input_ready(int slot);
  void try_start_compute(int slot);
  void start_launch(int slot, int attempt);
  void on_compute_done(int slot);
  void issue_output(int slot, std::shared_ptr<OutRecord> rec, int attempt);
  /// The one commit: the first-commit-wins claim (plus probation
  /// bookkeeping), then, for the winning copy, the host effects: copy-out,
  /// partial reduction, iteration count and counter sample.
  void commit(int slot, const OutRecord& rec);
  void check_stage_barrier();
  /// End `p`'s stage-barrier wait, if any: the wait is barrier time, and
  /// `label` (if non-null) names its trace span.
  void leave_stage(Proxy& p, const char* label);
  void check_completion(int slot);
  void finalize_device(int slot);
  void issue_finalize(int slot, double bytes, int attempt);
  void complete_finalize(int slot);
  void pass_serial_token(int slot);

  // Fault recovery (docs/RESILIENCE.md).
  void on_device_lost(int slot);
  /// The one wire-fault draw of a transfer attempt (copy-in, copy-out or
  /// final write-back), made when the attempt is issued.
  WireFault draw_wire_fault(const Proxy& p);
  /// The one lost-attempt path of a transfer the wire lost: its time is
  /// recovery time, the fault is noted, and handle_transient retries it.
  /// `what` names the transfer; `chunk` is null for the write-back.
  void lose_attempt(int slot, double start, int attempt, const char* what,
                    const dist::Range* chunk, std::function<void()> retry);
  void handle_transient(int slot, int attempt, sim::FaultKind kind,
                        std::function<void()> retry);
  void quarantine(int slot, sim::FaultKind kind, const std::string& detail);
  void note_fault(int slot, sim::FaultKind kind, bool fatal,
                  std::string detail);
  dist::Range take_requeue();
  /// Append `range` to the requeue; returns the iterations it added.
  long long requeue(const dist::Range& range);
  /// Mandatory work no proxy holds: requeued iterations or unsettled
  /// integrity re-executions.
  bool owed_work() const;
  void kick_survivors();

  // Watchdog, speculation, probation (docs/RESILIENCE.md).
  double predicted_chunk_seconds(const Proxy& p,
                                 const dist::Range& chunk) const;
  void watchdog_soft(int slot, std::uint64_t serial);
  void watchdog_hard(int slot, std::uint64_t serial);
  /// The one release rule for a copy that will not commit: it leaves its
  /// speculation race (drops its runner count; a queued offer is
  /// withdrawn). True when its range is owed again: not when it
  /// committed, another copy still races, or its integrity state is
  /// settled or already back on the integrity queue.
  bool release(const std::shared_ptr<SpecToken>& token,
               const std::shared_ptr<IntegrityState>& integ);
  /// Anything (mandatory requeue or a speculative duplicate another
  /// device originated) this slot could usefully fetch right now?
  bool has_work_for(int slot) const;
  /// Wake an idle / done / barrier-waiting proxy to fetch work.
  void rouse(Proxy& q);
  void schedule_readmission(int slot);
  void readmit(int slot);
  void note_recovery(int slot, RecoveryAction action, std::string detail);

  // Data integrity (docs/RESILIENCE.md "Integrity").
  /// Device-side (or host-side) combined checksum over the chunk's
  /// mappings in the given direction. 0 in pure-simulation mode.
  std::uint64_t payload_checksum(
      const std::vector<mem::DeviceMapping*>& maps, bool input_side,
      bool host_side = false) const;
  /// Flip seeded bytes in one of the chunk's mappings (device storage).
  void apply_corruption(const std::vector<mem::DeviceMapping*>& maps,
                        bool input_side, std::uint64_t seed) const;
  /// Virtual time to checksum `bytes` on the device (device memory scan).
  double integrity_delay(double bytes, const Proxy& p) const;
  /// May `slot` serve this troubled chunk? Suspect and already-balloted
  /// devices are excluded, with graduated fallback so the queue can
  /// always drain (docs/RESILIENCE.md).
  bool integrity_slot_allowed(const IntegrityState& st, int slot) const;
  /// Deferred half of the output-commit path: verify the payload
  /// checksums, ballot when voting, then commit().
  void finish_commit(int slot, std::shared_ptr<OutRecord> rec);
  /// A commit-side checksum mismatch: discard, queue a re-execution,
  /// maybe open a vote, maybe trip the integrity circuit breaker.
  void handle_corrupt_commit(int slot, const std::shared_ptr<OutRecord>& rec,
                             bool wire_only);
  /// check_completion for every slot — used when the integrity queue
  /// drains, since earlier refusals may have parked idle proxies.
  void sweep_completion();

  // Observability (docs/OBSERVABILITY.md).
  /// Decision-audit recording armed? (collect_audit or collect_trace.)
  bool audit_on() const noexcept {
    return opts_.collect_audit || opts_.collect_trace;
  }
  /// Append a decision record; returns its index (for actual_s backfill).
  /// Chunk records (assigned, speculated) also get the chunk's bytes and
  /// the per-predictor expected seconds.
  std::size_t note_decision(int slot, DecisionKind kind,
                            const dist::Range& range, std::string detail);
  /// Record a trace span on `p` (no-op unless collect_trace). `label` is
  /// a C string or a callable returning the label, called only then.
  template <class Label>
  void span(Proxy& p, Phase phase, double t0, double t1, const Label& label);
  /// One counter-track sample (no-op unless collect_trace).
  void record_counter(const Proxy& p, CounterTrack track, double value);
  /// Sample the proxy's pipeline occupancy onto the queue-depth track.
  void sample_queue_depth(const Proxy& p);
  /// Adjust + sample the proxy's in-flight transfer byte count.
  void adjust_outstanding_bytes(Proxy& p, double delta);
  /// Fold one healthy chunk's measured times into the per-device
  /// MODEL_1/MODEL_2/PROFILE relative-error accumulators (always on).
  void accumulate_prediction_error(Proxy& p, const dist::Range& chunk,
                                   double compute_s, double chunk_s);
  /// Per-predictor expected seconds for `chunk` on `p`, at current state.
  void predict_chunk(const Proxy& p, const dist::Range& chunk,
                     double* model1_s, double* model2_s,
                     double* profile_s) const;

  const mach::MachineDescriptor& machine_;
  const LoopKernel& kernel_;
  const std::vector<mem::MapSpec>& maps_;
  OffloadOptions opts_;

  /// Shared-engine mode (exec_context.h) when non-null: engine_ and the
  /// link lanes are borrowed from the context, and completion is
  /// delivered through on_complete_ instead of run()'s return.
  const ExecContext* ctx_ = nullptr;
  std::unique_ptr<sim::Engine> owned_engine_;  // standalone mode only
  sim::Engine& engine_;  // the engine this execution schedules on
  /// Owned lanes (standalone) feeding the borrowed-or-owned views below.
  std::vector<std::unique_ptr<sim::SharedLink>> owned_down_links_;
  std::vector<std::unique_ptr<sim::SharedLink>> owned_up_links_;
  std::vector<sim::SharedLink*> down_links_;  // per machine link
  std::vector<sim::SharedLink*> up_links_;
  /// Engine time at launch(); all result times are reported relative to
  /// it (zero standalone, so nothing changes there).
  double start_time_ = 0.0;
  std::size_t events_at_launch_ = 0;
  std::function<void(OffloadResult&&)> on_complete_;
  bool finished_ = false;  // completion callback already scheduled

  /// Failure-domain state (shared mode). `alive_` is the lifetime
  /// sentinel captured (weakly) by link-completion callbacks, which live
  /// inside the server's SharedLinks and cannot be generation-tagged; it
  /// dying with the execution makes them inert. `events_used_` is the
  /// per-job step-budget meter — run_bounded() guards standalone runs,
  /// but on a shared engine only a per-domain budget can pin a livelock
  /// on the job that spins.
  sim::Engine::GenTag gen_ = 0;
  std::shared_ptr<bool> alive_;
  bool failed_ = false;
  bool cancelled_ = false;
  FailClass fail_class_ = FailClass::kUnspecified;
  std::string fail_error_;
  std::size_t events_used_ = 0;

  std::vector<SpecPlan> plans_;
  model::KernelCostProfile effective_profile_;
  sched::LoopContext loop_context_;
  std::unique_ptr<sched::LoopScheduler> scheduler_;
  sched::AlgorithmKind algorithm_used_ = sched::AlgorithmKind::kBlock;

  std::vector<std::unique_ptr<Proxy>> proxies_;
  const std::vector<mem::DeviceDataEnv>* region_envs_ = nullptr;
  int serial_token_ = 0;  // !parallel_offload: next slot allowed to set up
  bool ran_ = false;

  sim::FaultPlan fault_plan_;
  bool fault_active_ = false;
  /// Orphaned iterations of quarantined devices, redistributed to the
  /// survivors in dynamic grains ahead of the scheduler's own chunks.
  std::deque<dist::Range> requeue_;
  long long requeue_grain_ = 1;
  std::vector<FaultEvent> fault_events_;

  /// Tardy chunks offered for speculative duplication (optional work:
  /// completion never waits on it; a hung original converts its entry
  /// into mandatory requeue work at quarantine).
  std::deque<std::shared_ptr<SpecToken>> spec_queue_;
  long long probe_grain_ = 1;
  std::vector<RecoveryEvent> recovery_events_;

  /// Chunks discarded after a checksum mismatch, awaiting re-execution
  /// (served ahead of everything else; completion waits on it).
  std::deque<std::shared_ptr<IntegrityState>> integrity_queue_;
  bool integrity_armed_ = false;

  /// Scheduler decision audit trail (collect_audit / collect_trace) and
  /// counter-track samples (collect_trace), in virtual-time order.
  std::vector<SchedDecision> decisions_;
  std::vector<CounterSample> counters_;
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_OFFLOAD_EXEC_H
