#ifndef HOMP_SERVE_SERVER_H
#define HOMP_SERVE_SERVER_H

/// \file server.h
/// Multi-tenant offload server (docs/SERVING.md): N independent offload
/// executions run *concurrently* on one shared discrete-event engine,
/// contending for the machine's devices and PCIe links.
///
/// The control plane stacks four mechanisms, outermost first:
///
///  1. Admission: per-tenant bounded queues. A full queue either rejects
///     with a retry-after hint or parks the submission in an unbounded
///     vestibule (TenantSpec::backpressure). Jobs carrying a deadline are
///     rejected at the door when backlog + MODEL_2-predicted run time
///     already exceeds it; jobs whose data cannot fit device memory on
///     any feasible device count are rejected as infeasible.
///  2. Scheduling: strict priority across classes (gold > silver >
///     bronze) with a starvation floor for the lowest class, and
///     weighted-fair queueing across tenants inside a class (credits in
///     MODEL_2-predicted device-seconds).
///  3. Placement: jobs take whole devices (exclusive), fastest free
///     accelerators first, with per-device memory accounting.
///  4. Load shedding: a three-level ladder driven by total backlog —
///     L1 strips speculation from dispatched jobs, L2 caps per-job
///     device grants, L3 rejects the lowest class at submit. Transitions
///     apply hysteresis and every one is recorded in the decision audit.
///
/// Jobs are failure domains (docs/SERVING.md "Job failure domains"): an
/// unrecoverable error inside one execution is contained by the runtime
/// and surfaces here as a terminal kFail record — devices and memory are
/// reclaimed and every other tenant keeps running. Consecutive failures
/// trip a per-tenant circuit breaker that rejects at admission with a
/// retry-after hint and re-admits through probation probe jobs under
/// exponential cooldown. Jobs carrying a deadline get a cancellable
/// timer: blowing the admitted deadline mid-run cancels the execution
/// cooperatively (terminal kCancelled record, class "deadline_miss").
///
/// Everything runs in virtual time on the shared engine; a same-seed run
/// reproduces the identical event sequence, report and summary JSON.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machine/device.h"
#include "runtime/exec_context.h"
#include "runtime/options.h"
#include "serve/report.h"
#include "serve/tenant.h"
#include "sim/engine.h"
#include "sim/link.h"

namespace homp::kern {
class KernelCase;
}

namespace homp::rt {
class OffloadExecution;
}

namespace homp::serve {

struct ServeOptions {
  /// Per-accelerator device-memory capacity, bytes. The machine
  /// description has no capacity field (the paper's machines never
  /// filled one), so serving supplies it.
  double device_mem_bytes = 8e9;

  /// Hard cap on devices granted to one job; 0 = no cap beyond the
  /// job's own request.
  int max_devices_per_job = 0;

  /// Shed ladder thresholds on total backlog (queued + vestibule jobs),
  /// and the hysteresis factor for climbing back down: level L is left
  /// only once backlog < shed_hysteresis * threshold(L).
  std::size_t shed_l1_depth = 8;
  std::size_t shed_l2_depth = 16;
  std::size_t shed_l3_depth = 24;
  double shed_hysteresis = 0.5;

  /// At shed level >= 2, per-job device grants are capped at this.
  int shed_l2_device_cap = 1;

  /// Guaranteed dispatch share of the lowest priority class present:
  /// under saturation it receives at least this fraction of dispatches
  /// even while higher classes queue.
  double floor_fraction = 0.1;

  /// Per-tenant circuit breaker: this many *consecutive* terminal kFail
  /// records trip the tenant open (submissions rejected with a
  /// retry-after hint); 0 disables the breaker. Re-admission mirrors the
  /// device-quarantine pattern: after the cooldown one probe job is
  /// admitted half-open — success closes the breaker, failure re-opens
  /// it with the cooldown grown by `breaker_cooldown_growth` (capped).
  int breaker_threshold = 3;
  double breaker_cooldown_base_s = 1.0;
  double breaker_cooldown_growth = 2.0;
  double breaker_cooldown_cap_s = 60.0;

  /// Materialize kernel cases and execute bodies (small-n tests that
  /// verify results); off = pure simulation at paper scale.
  bool materialize = false;

  /// Collect per-job chrome-trace spans into the report.
  bool collect_trace = false;

  /// Root seed; per-job noise/fault seeds derive from it + the job id.
  std::uint64_t seed = 0x5e12e;

  /// Template for every job's OffloadOptions (fault retry budgets,
  /// watchdog tuning, ...). device_ids / sched.kind / seeds / trace
  /// flags are overridden per job.
  rt::OffloadOptions base;
};

/// See file comment. Construction wires the shared engine + link lanes;
/// submit() enqueues work; run() drains the engine; report() afterwards
/// holds every record. A finished job's execution is destroyed on the
/// spot: every timer it armed carries its generation tag, cancelled
/// wholesale at completion, so no tombstone state outlives the job and
/// a drained server retains zero job objects (see retained_jobs()).
class OffloadServer {
 public:
  OffloadServer(mach::MachineDescriptor machine,
                std::vector<TenantSpec> tenants, ServeOptions opts = {});
  ~OffloadServer();

  OffloadServer(const OffloadServer&) = delete;
  OffloadServer& operator=(const OffloadServer&) = delete;

  /// Submit one job for `tenant` (by name). Safe both before run() and
  /// from inside engine callbacks (the traffic generator's arrivals).
  /// `on_done` fires after the server's own completion bookkeeping.
  SubmitResult submit(const std::string& tenant, const JobSpec& job,
                      std::function<void(const JobRecord&)> on_done = {});

  /// Drain the shared engine: runs every admitted job to a terminal
  /// state (plus whatever the traffic generator keeps injecting), then
  /// finalizes the report. Unrecoverable per-job errors never escape —
  /// they are contained to kFail records (docs/SERVING.md).
  void run();

  /// The shared engine — the traffic generator schedules arrivals on it.
  sim::Engine& engine() noexcept { return engine_; }

  const mach::MachineDescriptor& machine() const noexcept { return machine_; }

  /// Accelerator ids (the grantable pool; the host stays out of it).
  const std::vector<int>& pool() const noexcept { return pool_; }

  int shed_level() const noexcept { return shed_level_; }

  /// Total backlog: queued + vestibule-parked jobs.
  std::size_t backlog() const noexcept;

  /// MODEL_2-predicted run time of (kernel, n) on the `devices` fastest
  /// accelerators — the estimate admission and WFQ credits use.
  double predicted_job_seconds(const std::string& kernel, long long n,
                               int devices) const;

  /// Run records so far; complete after run() returns.
  const ServeReport& report() const noexcept { return report_; }

  /// Job objects still held by the server — the in-flight set. Zero
  /// after a drained run(): finished jobs are destroyed immediately
  /// (memory-flatness invariant the soak bench and chaos harness check).
  std::size_t retained_jobs() const noexcept { return active_.size(); }

 private:
  struct PendingJob;
  struct ActiveJob;
  struct DeviceState;
  struct TenantState;

  int tenant_index(const std::string& name) const;
  void note_event(ServeEventKind kind, int tenant, std::uint64_t job_id,
                  const std::string& detail);
  /// Queue-drain estimate feeding deadline admission and retry-after.
  double backlog_seconds() const noexcept;
  void recompute_shed();
  std::size_t shed_threshold(int level) const noexcept;
  void schedule_dispatch();
  void dispatch();
  /// Class to serve next (floor override first); -1 when all queues are
  /// empty.
  int pick_class() const;
  /// WFQ pick among the class's tenants with queued work.
  int pick_tenant(int cls) const;
  /// Fastest free accelerators, up to `want`; deterministic order.
  std::vector<int> grant_devices(int want) const;
  void place(int tenant, PendingJob&& pj, const std::vector<int>& devices);
  void promote_vestibule(int tenant);
  void on_job_done(ActiveJob* job, rt::OffloadResult&& res);
  /// Mark an admitted job as the tenant's half-open breaker probe.
  void mark_probe(int tenant, std::uint64_t job_id);
  /// Arm the cancellable admitted-deadline timer for an accepted job.
  void arm_deadline(int tenant, PendingJob& pj);
  /// Admitted-deadline timer fired: terminate the job wherever it is
  /// (queue, vestibule, or mid-run via cooperative cancellation).
  void on_deadline(int tenant, std::uint64_t job_id);
  /// Terminal kCancelled record for a job that never dispatched.
  void cancel_pending(int tenant, PendingJob&& pj, const std::string& why);
  /// Breaker bookkeeping on a terminal record (kFail feeds the trip
  /// counter; any completion closes an open breaker).
  void note_job_failure(int tenant, std::uint64_t job_id);
  void note_job_success(int tenant, std::uint64_t job_id);
  void trip_breaker(int tenant);

  mach::MachineDescriptor machine_;
  ServeOptions opts_;
  sim::Engine engine_;
  std::vector<std::unique_ptr<sim::SharedLink>> down_lanes_, up_lanes_;
  rt::ExecContext ctx_;

  /// deque: TenantState holds move-only queues, and deque growth never
  /// relocates (vector would instantiate a copy on reallocation).
  std::deque<TenantState> tenants_;
  std::vector<int> pool_;  ///< accelerator device ids
  std::vector<DeviceState> devices_;  ///< parallel to machine_.devices

  int shed_level_ = 0;
  int lowest_class_ = 0;  ///< lowest priority value present (largest enum)
  bool dispatch_pending_ = false;
  std::uint64_t next_job_id_ = 1;
  std::size_t total_dispatches_ = 0;
  std::size_t class_dispatches_[kNumClasses] = {};
  double active_pred_s_ = 0.0;  ///< predicted seconds of running jobs

  std::vector<std::unique_ptr<ActiveJob>> active_;

  /// Generation tag for every timer the server itself arms (dispatch
  /// kicks, deadline timers); the destructor cancels the lot.
  sim::Engine::GenTag gen_ = 0;

  ServeReport report_;
};

}  // namespace homp::serve

#endif  // HOMP_SERVE_SERVER_H
