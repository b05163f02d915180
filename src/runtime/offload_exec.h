#ifndef HOMP_RUNTIME_OFFLOAD_EXEC_H
#define HOMP_RUNTIME_OFFLOAD_EXEC_H

/// \file offload_exec.h
/// Execution of one multi-device offload on the discrete-event engine.
/// It runs on an ExecContext's engine (exec_context.h) through start();
/// run() is start() plus a drain of that engine.
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
/// Recovery from injected faults (retry, quarantine, watchdog,
/// probation, integrity) is the Resilience module's (resilience.h). It is
/// built only when fault injection is active or integrity is armed, and
/// the pipeline reaches it at commit(), at a loss and at the few points
/// where a fault can land.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/prng.h"
#include "dist/distribution.h"
#include "machine/device.h"
#include "memory/data_env.h"
#include "memory/map_spec.h"
#include "runtime/array_plan.h"
#include "runtime/exec_context.h"
#include "runtime/kernel.h"
#include "runtime/options.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "sim/link.h"

namespace homp::rt {

class Resilience;
struct ChunkRecovery;

class OffloadExecution {
 public:
  /// \param forced_loop_dist non-null inside a `target data` region whose
  ///        entry already fixed the loop distribution (DataRegion).
  /// \param region_envs per-slot data environments of an enclosing data
  ///        region; when given, data is already device-resident, so the
  ///        offload moves no bytes (entry/halo/exit transfers are the
  ///        region's) and `maps` should be empty.
  /// \param ctx the engine + link lanes to run on (exec_context.h): the
  ///        execution schedules relative to the engine's current time.
  ///        The context must outlive this object.
  /// \param opts taken by value: callers move their copy in.
  OffloadExecution(ExecContext& ctx, const mach::MachineDescriptor& machine,
                   const LoopKernel& kernel,
                   const std::vector<mem::MapSpec>& maps, OffloadOptions opts,
                   const dist::Distribution* forced_loop_dist = nullptr,
                   const std::vector<mem::DeviceDataEnv>* region_envs =
                       nullptr);

  /// Retires the timer generation; out-of-line: Proxy is a private type.
  ~OffloadExecution();

  /// start() plus a drain of the context's engine; single use. A
  /// contained failure is rethrown as OffloadError(error, fail_class).
  OffloadResult run();

  /// Enqueue the offload's first events on the
  /// context's engine and return immediately. `on_complete` fires (as an
  /// engine event) once every device is done or quarantined and all
  /// redistribution/integrity work has settled; the caller drives the
  /// engine. Times inside the result (total_time, per-device
  /// finish_time) are relative to launch; trace spans and event streams
  /// keep absolute virtual time so multi-tenant traces interleave
  /// correctly. Single use.
  ///
  /// Every execution is its own *failure domain*
  /// (docs/SERVING.md): an unrecoverable OffloadError raised inside any
  /// of this execution's events is captured, every timer the execution
  /// armed is revoked (cancel_generation), and on_complete receives a
  /// result with `failed` set instead of the exception unwinding the
  /// caller's engine drain. After on_complete returns the caller may
  /// destroy the execution immediately — nothing it scheduled can fire
  /// afterwards.
  void start(std::function<void(OffloadResult&&)> on_complete);

  /// Cooperative cancellation (no-op once the result is already on its
  /// way). New work stops being fetched, idle
  /// proxies park immediately, busy ones drain their in-flight transfer
  /// or compute and then park — no final static write-back is paid. The
  /// result arrives through on_complete with `cancelled` set, carrying
  /// `cls`/`reason` and whatever partial statistics accrued.
  void request_cancel(FailClass cls, std::string reason);

 private:
  friend class Resilience;
  struct PendingChunk;
  struct OutRecord;
  struct Proxy;
  struct WireAttempt;

  void validate_and_plan();
  void build_proxies(const ExecContext& ctx);
  /// Collect the OffloadResult once every proxy has settled.
  OffloadResult harvest();
  /// Completion probe: when every proxy is done or lost
  /// and no mandatory work remains, fire the start() callback exactly
  /// once (as a fresh engine event, so it never runs inside a commit
  /// chain).
  void maybe_finish();

  // Failure domain (docs/SERVING.md "Job failure domains").
  /// Event trampoline: every engine event and link-completion callback
  /// this execution arms goes through here. It (a) goes inert once the
  /// domain is sealed by a failure, (b) charges the per-job step budget,
  /// and (c) converts an escaping OffloadError/ExecutionError into fail()
  /// instead of unwinding the engine. The wrapper keeps `fn`'s own type,
  /// so a small continuation stays in the Callback's inline buffer.
  template <class F>
  auto guard(F fn);
  /// guard()'s entry test: false once the domain is sealed, or when this
  /// event exhausts the step budget, which seals it.
  bool admit_event();
  /// schedule_after through guard(), tagged with this job's generation,
  /// which finish_now() and the destructor revoke.
  template <class F>
  std::uint64_t sched_after(double dt, F fn);
  /// `link`->transfer through guard(). A transfer is the lane's, not the
  /// generation's, so its completion first checks the alive_ sentinel.
  template <class F>
  void transfer(sim::SharedLink* link, double bytes, F fn);
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
  /// A pooled WireAttempt for one transfer attempt; its index is what the
  /// completion captures, so the guarded continuation stays inline.
  std::uint32_t open_attempt(WireAttempt a);
  /// The attempt's record, handed back to the pool.
  WireAttempt close_attempt(std::uint32_t a);
  /// The one commit: the first-commit-wins claim (plus probation
  /// bookkeeping) when recovering, then, for the winning copy, the host
  /// effects: copy-out, partial reduction, iteration count and counter
  /// sample. Every caller is done with `rec` afterwards, so its map list
  /// goes back to the proxy for the next fetch.
  void commit(int slot, OutRecord& rec);
  void check_stage_barrier();
  /// End `p`'s stage-barrier wait, if any: the wait is barrier time, and
  /// `label` (if non-null) names its trace span.
  void leave_stage(Proxy& p, const char* label);
  void check_completion(int slot);
  /// check_completion for every slot — used when integrity work settles,
  /// since earlier refusals may have parked idle proxies.
  void sweep_completion();
  void finalize_device(int slot);
  void issue_finalize(int slot, double bytes, int attempt);
  void complete_finalize(int slot);
  void pass_serial_token(int slot);
  /// Wake an idle / done / barrier-waiting proxy to fetch work.
  void rouse(Proxy& q);

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

  sim::Engine& engine_;  // the engine this execution schedules on
  /// Engine time at launch; all result times are reported relative to
  /// it (zero on a reset context).
  double start_time_ = 0.0;
  std::size_t events_at_launch_ = 0;
  std::size_t engine_events_ = 0;  // launch to finish_now()
  std::function<void(OffloadResult&&)> on_complete_;
  bool finished_ = false;  // completion callback already scheduled

  /// Failure-domain state. `alive_` is the lifetime
  /// sentinel captured (weakly) by link-completion callbacks, which live
  /// inside the context's SharedLinks and cannot be generation-tagged; it
  /// dying with the execution makes them inert. `events_used_` is the
  /// per-job step-budget meter: on a shared engine only a per-domain
  /// budget can pin a livelock on the job that spins.
  sim::Engine::GenTag gen_ = 0;
  std::shared_ptr<bool> alive_;
  bool failed_ = false;
  bool cancelled_ = false;
  FailClass fail_class_ = FailClass::kUnspecified;
  std::string fail_error_;
  std::size_t events_used_ = 0;

  std::vector<ArrayPlan> plans_;
  model::KernelCostProfile effective_profile_;
  sched::LoopContext loop_context_;
  std::unique_ptr<sched::LoopScheduler> scheduler_;
  sched::AlgorithmKind algorithm_used_ = sched::AlgorithmKind::kBlock;

  std::vector<std::unique_ptr<Proxy>> proxies_;
  const std::vector<mem::DeviceDataEnv>* region_envs_ = nullptr;
  int serial_token_ = 0;  // !parallel_offload: next slot allowed to set up
  bool ran_ = false;

  /// The recovery policy; null on a fault-free offload (resilience.h).
  std::unique_ptr<Resilience> res_;

  /// Transfer attempts in flight, and the indices free for reuse.
  std::vector<WireAttempt> attempts_;
  std::vector<std::uint32_t> free_attempts_;

  /// Scheduler decision audit trail (collect_audit / collect_trace) and
  /// counter-track samples (collect_trace), in virtual-time order.
  std::vector<SchedDecision> decisions_;
  std::vector<CounterSample> counters_;
};

/// A chunk moving through a proxy's pipeline.
struct OffloadExecution::PendingChunk {
  dist::Range range;
  std::vector<mem::DeviceMapping*> chunk_maps;
  mem::DeviceDataEnv env;      ///< statics + chunk slices
  double fetch_start = 0.0;    ///< virtual time the chunk was acquired
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  /// Recovery state; null unless recovery touched the chunk.
  std::shared_ptr<ChunkRecovery> recovery;
  /// Index of this chunk's kChunkAssigned audit record (actual_s is
  /// backfilled at compute completion); npos when audit is off.
  std::size_t decision_index = static_cast<std::size_t>(-1);
};

/// A computed chunk awaiting its host commit. On a discrete device its
/// results are still device-resident while the output transfer is in
/// flight (possibly retrying): host-visible effects — copy_out into host
/// arrays, the partial reduction, the iteration count — commit only when
/// the transfer succeeds, so a device quarantined mid-copy-out leaves the
/// host bit-identical and its chunk free to requeue. A shared-memory
/// chunk commits the instant its compute completes.
struct OffloadExecution::OutRecord {
  dist::Range range;
  std::vector<mem::DeviceMapping*> maps;
  double bytes_out = 0.0;
  double reduction = 0.0;  ///< body result, committed on success
  /// The chunk's recovery state, carried over from its PendingChunk.
  std::shared_ptr<ChunkRecovery> recovery;
};

/// Per-device proxy actor state.
struct OffloadExecution::Proxy {
  int slot = -1;
  int device_id = -1;
  const mach::DeviceDescriptor* desc = nullptr;
  sim::SharedLink* down = nullptr;  ///< host -> device lane
  sim::SharedLink* up = nullptr;    ///< device -> host lane
  Prng noise{0};

  mem::MappingStore store;
  mem::DeviceDataEnv static_env;
  /// Map lists and envs of finished chunks, kept for their capacity and
  /// reused by the next fetch.
  std::vector<std::vector<mem::DeviceMapping*>> spare_maps;
  std::vector<mem::DeviceDataEnv> spare_envs;
  bool statics_loaded = false;
  bool alloc_paid = false;
  bool setup_signalled = false;  ///< for serialized (!parallel) offloading

  bool fetching = false;
  std::optional<PendingChunk> inflight;   ///< input transfer in progress
  std::optional<PendingChunk> ready;      ///< resident, awaiting compute
  std::optional<PendingChunk> computing;  ///< kernel in progress
  double compute_started = 0.0;
  std::vector<std::shared_ptr<OutRecord>> outputs;  ///< in-flight copy-outs

  bool waiting_stage = false;
  double stage_wait_start = 0.0;
  bool finalizing = false;
  bool done = false;

  bool lost = false;        ///< quarantined (possibly re-admitted later)
  std::uint64_t compute_serial = 0;  ///< guards stale watchdog events
  double ewma_iter_s = 0.0;     ///< observed per-iteration time (EWMA)
  /// The ThroughputHistory rate of this kernel on this device, read once
  /// at launch (the history only changes between offloads); 0 when none.
  double history_rate = 0.0;

  double partial_reduction = 0.0;
  double outstanding_bytes = 0.0;  ///< transfer bytes currently in flight
  DeviceStats stats;
  std::vector<TraceSpan> spans;

  /// Anything in the pipeline: fetching, staged, computing, finalizing
  /// or copying out.
  bool busy() const {
    return fetching || inflight || ready || computing || finalizing ||
           !outputs.empty();
  }
  /// Is `rec` still this proxy's? Quarantine and a discarded commit drop
  /// it, and a late completion of a dropped record does nothing.
  bool holds(const std::shared_ptr<OutRecord>& rec) const {
    return std::find(outputs.begin(), outputs.end(), rec) != outputs.end();
  }
};

template <class F>
auto OffloadExecution::guard(F fn) {
  return [this, fn = std::move(fn)]() mutable {
    if (!admit_event()) return;
    try {
      fn();
    } catch (const OffloadError& e) {
      fail(e.fail_class(), e.what());
    } catch (const ExecutionError& e) {
      fail(FailClass::kUnspecified, e.what());
    }
  };
}

template <class F>
std::uint64_t OffloadExecution::sched_after(double dt, F fn) {
  return engine_.schedule_after(dt, guard(std::move(fn)), gen_);
}

template <class F>
void OffloadExecution::transfer(sim::SharedLink* link, double bytes, F fn) {
  link->transfer(bytes, [alive = std::weak_ptr<bool>(alive_),
                         g = guard(std::move(fn))]() mutable {
    if (!alive.expired()) g();
  });
}

template <class Label>
void OffloadExecution::span(Proxy& p, Phase phase, double t0, double t1,
                            const Label& label) {
  if (!opts_.collect_trace || t1 <= t0) return;
  std::string text;
  if constexpr (std::is_invocable_v<const Label&>) {
    text = label();
  } else {
    text = label;
  }
  p.spans.push_back(
      TraceSpan{p.slot, p.desc->name, phase, t0, t1, std::move(text)});
}

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_OFFLOAD_EXEC_H
