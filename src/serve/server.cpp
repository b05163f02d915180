#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/error.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "model/loop_model.h"
#include "runtime/offload_exec.h"

namespace homp::serve {

namespace {

/// splitmix-style derivation of per-job seeds from the root seed, so
/// every job draws from an unrelated deterministic stream.
std::uint64_t mix_seed(std::uint64_t root, std::uint64_t salt) {
  std::uint64_t x = root ^ (salt * 0x9e3779b97f4a7c15ull);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

std::string format_seconds(double s) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g s", s);
  return buf;
}

}  // namespace

/// One admitted-but-not-yet-dispatched job. Owns the kernel case from
/// submit so dispatch never re-parses or re-allocates.
struct OffloadServer::PendingJob {
  std::uint64_t job_id = 0;
  JobSpec spec;
  std::unique_ptr<kern::KernelCase> kcase;
  double predicted_s = 0.0;
  double total_bytes = 0.0;
  int min_devices = 1;
  double submit_time = 0.0;
  double vestibule_since = 0.0;
  double blocked_s = 0.0;
  /// Engine event id of the armed deadline timer; 0 = none.
  std::uint64_t deadline_event = 0;
  std::function<void(const JobRecord&)> on_done;
};

/// One dispatched job. The kernel case, the LoopKernel and the map
/// vector live here because OffloadExecution holds them by reference.
/// Destroyed the moment the job reaches a terminal state: the
/// execution's generation tag cancels every timer it still has queued,
/// so nothing needs to outlive completion.
struct OffloadServer::ActiveJob {
  int tenant = -1;
  std::unique_ptr<kern::KernelCase> kcase;
  rt::LoopKernel kernel;
  std::vector<mem::MapSpec> maps;
  std::vector<int> devices;
  double footprint_per_dev = 0.0;
  std::uint64_t deadline_event = 0;
  JobRecord record;
  std::function<void(const JobRecord&)> on_done;
  std::unique_ptr<rt::OffloadExecution> exec;
};

struct OffloadServer::DeviceState {
  std::uint64_t holder = 0;  ///< job id; 0 = free
  double mem_used = 0.0;
};

struct OffloadServer::TenantState {
  TenantSpec spec;
  std::deque<PendingJob> queue;      ///< bounded by spec.max_queue_depth
  std::deque<PendingJob> vestibule;  ///< kBlock overflow, unbounded
  double service = 0.0;    ///< WFQ credit, predicted device-seconds
  double backlog_s = 0.0;  ///< predicted seconds queued (incl. vestibule)

  // Circuit breaker (ServeOptions::breaker_threshold).
  int consecutive_failures = 0;
  bool breaker_open = false;
  double breaker_open_until = 0.0;  ///< absolute time; half-open after
  bool probe_outstanding = false;
  std::uint64_t probe_job_id = 0;
};

OffloadServer::OffloadServer(mach::MachineDescriptor machine,
                             std::vector<TenantSpec> tenants,
                             ServeOptions opts)
    : machine_(std::move(machine)), opts_(std::move(opts)), ctx_(machine_) {
  machine_.validate();
  if (tenants.empty()) {
    throw ConfigError("OffloadServer needs at least one tenant");
  }
  if (opts_.device_mem_bytes <= 0.0) {
    throw ConfigError("ServeOptions::device_mem_bytes must be positive");
  }
  if (opts_.floor_fraction < 0.0 || opts_.floor_fraction >= 1.0) {
    throw ConfigError("ServeOptions::floor_fraction must be in [0, 1)");
  }
  if (!(opts_.shed_l1_depth <= opts_.shed_l2_depth &&
        opts_.shed_l2_depth <= opts_.shed_l3_depth)) {
    throw ConfigError("shed ladder depths must be non-decreasing");
  }
  if (opts_.breaker_threshold < 0) {
    throw ConfigError("ServeOptions::breaker_threshold must be >= 0");
  }
  if (opts_.breaker_threshold > 0 &&
      (opts_.breaker_cooldown_base_s <= 0.0 ||
       opts_.breaker_cooldown_growth < 1.0 ||
       opts_.breaker_cooldown_cap_s < opts_.breaker_cooldown_base_s)) {
    throw ConfigError(
        "breaker cooldown needs base > 0, growth >= 1, cap >= base");
  }
  gen_ = ctx_.engine.new_generation();

  for (std::size_t i = 0; i < machine_.devices.size(); ++i) {
    if (!machine_.devices[i].is_host()) pool_.push_back(static_cast<int>(i));
  }
  // Fastest accelerators first, deterministic tie-break on id: grants and
  // predictions both take a prefix of this order.
  std::stable_sort(pool_.begin(), pool_.end(), [this](int a, int b) {
    return machine_.devices[a].sustained_flops() >
           machine_.devices[b].sustained_flops();
  });
  if (pool_.empty()) {
    throw ConfigError("OffloadServer: machine '" + machine_.name +
                      "' has no accelerators to serve on");
  }
  devices_.resize(machine_.devices.size());

  std::set<std::string> names;
  for (auto& t : tenants) {
    if (t.name.empty()) throw ConfigError("tenant name must not be empty");
    if (!names.insert(t.name).second) {
      throw ConfigError("duplicate tenant name '" + t.name + "'");
    }
    if (!(t.weight > 0.0)) {
      throw ConfigError("tenant '" + t.name + "': weight must be > 0");
    }
    if (t.max_queue_depth == 0) {
      throw ConfigError("tenant '" + t.name + "': max_queue_depth must be >= 1");
    }
    t.fault.validate("tenant '" + t.name + "'");
    lowest_class_ = std::max(lowest_class_, static_cast<int>(t.priority));
    report_.tenants.push_back(t.name);
    report_.tenant_priority.push_back(t.priority);
    report_.counts.emplace_back();
    TenantState ts;
    ts.spec = std::move(t);
    tenants_.push_back(std::move(ts));
  }
}

OffloadServer::~OffloadServer() { ctx_.engine.retire_generation(gen_); }

int OffloadServer::tenant_index(const std::string& name) const {
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].spec.name == name) return static_cast<int>(i);
  }
  throw ConfigError("unknown tenant '" + name + "'");
}

void OffloadServer::note_event(ServeEventKind kind, int tenant,
                               std::uint64_t job_id,
                               const std::string& detail) {
  ServeEvent e;
  e.time = ctx_.engine.now();
  e.kind = kind;
  e.job_id = job_id;
  e.detail = detail;
  if (tenant >= 0) {
    e.tenant = tenants_[tenant].spec.name;
    e.priority = tenants_[tenant].spec.priority;
  }
  report_.events.push_back(std::move(e));
}

std::size_t OffloadServer::backlog() const noexcept {
  std::size_t n = 0;
  for (const auto& ts : tenants_) n += ts.queue.size() + ts.vestibule.size();
  return n;
}

double OffloadServer::backlog_seconds() const noexcept {
  double s = active_pred_s_;
  for (const auto& ts : tenants_) s += ts.backlog_s;
  return s / static_cast<double>(pool_.size());
}

std::size_t OffloadServer::shed_threshold(int level) const noexcept {
  switch (level) {
    case 1: return opts_.shed_l1_depth;
    case 2: return opts_.shed_l2_depth;
    default: return opts_.shed_l3_depth;
  }
}

void OffloadServer::recompute_shed() {
  const auto depth = static_cast<double>(backlog());
  int lvl = shed_level_;
  while (lvl < 3 && depth >= static_cast<double>(shed_threshold(lvl + 1))) {
    ++lvl;
  }
  if (lvl == shed_level_) {
    // Hysteresis on the way down: leave level L only once the backlog
    // has drained well below the threshold that triggered it, so the
    // ladder does not flap at the boundary.
    while (lvl > 0 &&
           depth < opts_.shed_hysteresis *
                       static_cast<double>(shed_threshold(lvl))) {
      --lvl;
    }
  }
  if (lvl != shed_level_) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "L%d -> L%d (backlog %zu)", shed_level_,
                  lvl, backlog());
    note_event(ServeEventKind::kShedLevel, -1, 0, buf);
    ++report_.shed_transitions;
    shed_level_ = lvl;
    report_.final_shed_level = lvl;
  }
}

double OffloadServer::predicted_job_seconds(const std::string& kernel,
                                            long long n, int devices) const {
  const auto kcase = kern::make_case(kernel, n, /*materialize=*/false);
  return predicted_seconds(kcase->paper_profile(),
                           kcase->kernel().iterations.size(), devices);
}

double OffloadServer::predicted_seconds(
    const model::KernelCostProfile& profile, long long iters,
    int devices) const {
  const auto k =
      std::max(1, std::min<int>(devices, static_cast<int>(pool_.size())));
  const std::vector<int> ids(pool_.begin(), pool_.begin() + k);

  const auto inputs = model::prediction_inputs(machine_, ids);
  std::vector<double> iter_times;
  iter_times.reserve(inputs.size());
  for (const auto& in : inputs) {
    iter_times.push_back(model::model2_iter_time(profile, in));
  }
  const auto weights = model::model2_weights(profile, inputs);
  return model::predicted_completion_time(iters, weights, iter_times);
}

SubmitResult OffloadServer::submit(
    const std::string& tenant, const JobSpec& job,
    std::function<void(const JobRecord&)> on_done) {
  const int t = tenant_index(tenant);
  auto& ts = tenants_[t];
  auto& c = report_.counts[t];
  const double now = ctx_.engine.now();

  if (job.n <= 0) throw ConfigError("JobSpec::n must be positive");
  if (job.devices < 1) throw ConfigError("JobSpec::devices must be >= 1");
  if (job.deadline_s < 0.0) {
    throw ConfigError("JobSpec::deadline_s must be >= 0");
  }

  ++c.submitted;
  note_event(ServeEventKind::kSubmit, t, 0,
             job.kernel + "-" + std::to_string(job.n));

  SubmitResult r;

  // Shed level 3: the lowest class is refused at the door, before any
  // planning work is spent on it.
  if (shed_level_ >= 3 &&
      static_cast<int>(ts.spec.priority) == lowest_class_) {
    ++c.rejected_shed;
    r.outcome = AdmitOutcome::kRejectedShed;
    r.detail = "load shed (L3): lowest priority class rejected";
    note_event(ServeEventKind::kReject, t, 0, r.detail);
    return r;
  }

  // Circuit breaker: an open tenant is rejected with a retry-after hint;
  // once the cooldown elapses exactly one submission is admitted
  // half-open as a probe, and further submissions wait on its verdict.
  bool probe = false;
  if (opts_.breaker_threshold > 0 && ts.breaker_open) {
    if (now < ts.breaker_open_until || ts.probe_outstanding) {
      ++c.rejected_breaker;
      r.outcome = AdmitOutcome::kRejectedBreaker;
      r.retry_after_s = std::max(0.0, ts.breaker_open_until - now);
      r.detail = ts.probe_outstanding
                     ? "circuit breaker half-open: probe in flight"
                     : "circuit breaker open; retry after " +
                           format_seconds(r.retry_after_s);
      note_event(ServeEventKind::kReject, t, 0, r.detail);
      return r;
    }
    probe = true;
  }

  auto kcase = kern::make_case(job.kernel, job.n, opts_.materialize);
  const auto profile = kcase->paper_profile();
  const long long iters = kcase->kernel().iterations.size();
  const double total_bytes =
      profile.transfer_bytes_per_iter * static_cast<double>(iters);
  const int min_devices = std::max(
      1, static_cast<int>(std::ceil(total_bytes / opts_.device_mem_bytes)));
  if (min_devices > static_cast<int>(pool_.size())) {
    ++c.rejected_infeasible;
    r.outcome = AdmitOutcome::kRejectedInfeasible;
    r.detail = "needs " + std::to_string(min_devices) +
               " devices to fit memory; pool has " +
               std::to_string(pool_.size());
    note_event(ServeEventKind::kReject, t, 0, r.detail);
    return r;
  }

  const int want = std::max(
      min_devices, std::min(job.devices, static_cast<int>(pool_.size())));
  const double predicted = predicted_seconds(profile, iters, want);

  // Deadline admission: queue-wait estimate + MODEL_2-predicted run.
  if (job.deadline_s > 0.0) {
    const double est = backlog_seconds() + predicted;
    if (est > job.deadline_s) {
      ++c.rejected_deadline;
      r.outcome = AdmitOutcome::kRejectedDeadline;
      r.detail = "predicted completion " + format_seconds(est) +
                 " exceeds deadline " + format_seconds(job.deadline_s);
      note_event(ServeEventKind::kReject, t, 0, r.detail);
      return r;
    }
  }

  // Bounded-queue backpressure.
  const bool park = ts.queue.size() >= ts.spec.max_queue_depth;
  if (park && ts.spec.backpressure == BackpressureMode::kReject) {
    ++c.rejected_queue_full;
    r.outcome = AdmitOutcome::kRejectedQueueFull;
    r.retry_after_s = std::max(
        predicted, ts.backlog_s / static_cast<double>(pool_.size()));
    r.detail = "queue full (" + std::to_string(ts.queue.size()) +
               "); retry after " + format_seconds(r.retry_after_s);
    note_event(ServeEventKind::kReject, t, 0, r.detail);
    return r;
  }

  PendingJob pj;
  pj.job_id = next_job_id_++;
  pj.spec = job;
  pj.kcase = std::move(kcase);
  pj.predicted_s = predicted;
  pj.total_bytes = total_bytes;
  pj.min_devices = min_devices;
  pj.submit_time = now;
  pj.on_done = std::move(on_done);
  r.job_id = pj.job_id;
  if (park) {
    // kBlock: park in the vestibule; it enters the queue when a
    // dispatch opens room.
    pj.vestibule_since = now;
    ++c.blocked;
    r.outcome = AdmitOutcome::kBlocked;
    note_event(ServeEventKind::kBlock, t, pj.job_id,
               "queue full; parked in vestibule");
  } else {
    admit(t, pj);
  }
  if (probe) mark_probe(t, pj.job_id);
  arm_deadline(t, pj);
  ts.backlog_s += pj.predicted_s;
  (park ? ts.vestibule : ts.queue).push_back(std::move(pj));
  recompute_shed();
  if (!park) schedule_dispatch();
  return r;
}

void OffloadServer::admit(int tenant, const PendingJob& pj) {
  ++report_.counts[tenant].admitted;
  note_event(ServeEventKind::kAdmit, tenant, pj.job_id,
             "predicted " + format_seconds(pj.predicted_s));
}

void OffloadServer::unblock(int tenant, PendingJob& pj) {
  pj.blocked_s = ctx_.engine.now() - pj.vestibule_since;
  note_event(ServeEventKind::kUnblock, tenant, pj.job_id,
             "waited " + format_seconds(pj.blocked_s));
  admit(tenant, pj);
}

void OffloadServer::mark_probe(int tenant, std::uint64_t job_id) {
  auto& ts = tenants_[tenant];
  ts.probe_outstanding = true;
  ts.probe_job_id = job_id;
  note_event(ServeEventKind::kBreakerProbe, tenant, job_id,
             "half-open: admitted as probation probe");
}

void OffloadServer::arm_deadline(int tenant, PendingJob& pj) {
  if (pj.spec.deadline_s <= 0.0) return;
  const std::uint64_t job_id = pj.job_id;
  pj.deadline_event = ctx_.engine.schedule_after(
      pj.spec.deadline_s,
      [this, tenant, job_id] { on_deadline(tenant, job_id); }, gen_);
}

void OffloadServer::schedule_dispatch() {
  if (dispatch_pending_) return;
  dispatch_pending_ = true;
  ctx_.engine.schedule_after(0.0, [this] { dispatch(); }, gen_);
}

int OffloadServer::pick_class() const {
  bool queued[kNumClasses] = {};
  for (const auto& ts : tenants_) {
    if (!ts.queue.empty()) queued[static_cast<int>(ts.spec.priority)] = true;
  }
  // Starvation floor: under saturation the lowest class still gets its
  // guaranteed fraction of dispatches, strict priority notwithstanding.
  if (queued[lowest_class_] && total_dispatches_ > 0 &&
      static_cast<double>(class_dispatches_[lowest_class_]) <
          opts_.floor_fraction * static_cast<double>(total_dispatches_)) {
    return lowest_class_;
  }
  for (int cls = 0; cls < kNumClasses; ++cls) {
    if (queued[cls]) return cls;
  }
  return -1;
}

int OffloadServer::pick_tenant(int cls) const {
  int best = -1;
  double best_key = 0.0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const auto& ts = tenants_[i];
    if (static_cast<int>(ts.spec.priority) != cls || ts.queue.empty()) {
      continue;
    }
    const double key = ts.service / ts.spec.weight;
    if (best < 0 || key < best_key) {
      best = static_cast<int>(i);
      best_key = key;
    }
  }
  return best;
}

std::vector<int> OffloadServer::grant_devices(int want) const {
  std::vector<int> free;
  for (int id : pool_) {
    if (static_cast<int>(free.size()) == want) break;
    if (devices_[static_cast<std::size_t>(id)].holder == 0) {
      free.push_back(id);
    }
  }
  return free;
}

void OffloadServer::dispatch() {
  dispatch_pending_ = false;
  while (true) {
    const int cls = pick_class();
    if (cls < 0) return;
    const int t = pick_tenant(cls);
    auto& ts = tenants_[t];
    const PendingJob& head = ts.queue.front();

    int want = head.spec.devices;
    if (opts_.max_devices_per_job > 0) {
      want = std::min(want, opts_.max_devices_per_job);
    }
    if (shed_level_ >= 2) {
      want = std::min(want, std::max(1, opts_.shed_l2_device_cap));
    }
    want = std::max(want, head.min_devices);
    want = std::min(want, static_cast<int>(pool_.size()));

    const auto granted = grant_devices(want);
    if (static_cast<int>(granted.size()) < want) {
      // Strict head-of-line: no backfilling past a job that cannot
      // place, so a big high-priority job is never starved by a stream
      // of small low-priority ones. Devices freeing re-trigger dispatch.
      return;
    }

    PendingJob pj = std::move(ts.queue.front());
    ts.queue.pop_front();
    ++total_dispatches_;
    ++class_dispatches_[cls];
    place(t, std::move(pj), granted);
    promote_vestibule(t);
    recompute_shed();
  }
}

void OffloadServer::place(int tenant, PendingJob&& pj,
                          const std::vector<int>& devices) {
  auto& ts = tenants_[tenant];
  const double now = ctx_.engine.now();

  auto aj = std::make_unique<ActiveJob>();
  aj->tenant = tenant;
  aj->kcase = std::move(pj.kcase);
  if (opts_.materialize) aj->kcase->init();
  aj->kernel = aj->kcase->kernel();
  aj->maps = aj->kcase->maps();
  aj->devices = devices;
  aj->footprint_per_dev =
      pj.total_bytes / static_cast<double>(devices.size());
  aj->deadline_event = pj.deadline_event;
  aj->on_done = std::move(pj.on_done);

  JobRecord& rec = aj->record;
  rec.job_id = pj.job_id;
  rec.tenant = ts.spec.name;
  rec.priority = ts.spec.priority;
  rec.kernel = pj.spec.kernel;
  rec.n = aj->kernel.iterations.size();
  rec.submit_time = pj.submit_time;
  rec.dispatch_time = now;
  rec.blocked_s = pj.blocked_s;
  rec.predicted_s = pj.predicted_s;
  rec.devices_granted = static_cast<int>(devices.size());
  rec.speculation_shed = shed_level_ >= 1;

  rt::OffloadOptions o = opts_.base;
  o.device_ids = devices;
  o.sched.kind = pj.spec.algorithm;
  o.execute_bodies = opts_.materialize;
  o.collect_trace = opts_.collect_trace;
  o.noise_seed = mix_seed(opts_.seed, pj.job_id);
  o.fault.seed = mix_seed(opts_.seed ^ 0x5eedfaull, pj.job_id);
  o.fault.extra = ts.spec.fault;
  if (shed_level_ >= 1) {
    // L1 shedding: strip speculative duplication — it buys tail latency
    // with extra device-seconds, exactly what an overloaded server
    // cannot spare.
    o.watchdog.speculation = false;
    ++report_.speculation_shed_jobs;
  }
  // Built before any grant is recorded: its constructor validates the
  // options and throws on a bad combination.
  aj->exec = std::make_unique<rt::OffloadExecution>(
      ctx_, machine_, aj->kernel, aj->maps, std::move(o));

  ts.service += pj.predicted_s * static_cast<double>(devices.size());
  ts.backlog_s = std::max(0.0, ts.backlog_s - pj.predicted_s);
  active_pred_s_ += pj.predicted_s;
  for (int id : devices) {
    auto& d = devices_[static_cast<std::size_t>(id)];
    d.holder = pj.job_id;
    d.mem_used += aj->footprint_per_dev;
  }

  {
    std::string detail = "devices";
    for (int id : devices) detail += " " + machine_.devices[id].name;
    if (shed_level_ >= 1) {
      detail += " (shed L" + std::to_string(shed_level_) + ")";
    }
    note_event(ServeEventKind::kDispatch, tenant, pj.job_id, detail);
  }

  ActiveJob* raw = aj.get();
  active_.push_back(std::move(aj));
  raw->exec->start([this, raw](rt::OffloadResult&& res) {
    on_job_done(raw, std::move(res));
  });
}

void OffloadServer::promote_vestibule(int tenant) {
  auto& ts = tenants_[tenant];
  while (!ts.vestibule.empty() &&
         ts.queue.size() < ts.spec.max_queue_depth) {
    PendingJob pj = std::move(ts.vestibule.front());
    ts.vestibule.pop_front();
    unblock(tenant, pj);
    ts.queue.push_back(std::move(pj));
  }
}

void OffloadServer::on_job_done(ActiveJob* job, rt::OffloadResult&& res) {
  // Resources come back whatever the outcome — fault containment means
  // a failed job's grants and memory never leak.
  if (job->deadline_event != 0) ctx_.engine.cancel(job->deadline_event);
  for (int id : job->devices) {
    auto& d = devices_[static_cast<std::size_t>(id)];
    d.holder = 0;
    d.mem_used = std::max(0.0, d.mem_used - job->footprint_per_dev);
  }
  active_pred_s_ = std::max(0.0, active_pred_s_ - job->record.predicted_s);

  JobRecord rec = std::move(job->record);
  rec.finish_time = ctx_.engine.now();
  rec.iterations_done = res.total_iterations();
  if (opts_.collect_trace) rec.trace = std::move(res.trace);

  JobOutcome outcome = JobOutcome::kCompleted;
  FailClass cls = res.fail_class;
  std::string error = std::move(res.error);
  if (res.failed) {
    outcome = JobOutcome::kFail;
  } else if (res.cancelled) {
    outcome = JobOutcome::kCancelled;
  } else {
    // A sum job's answer is the offload's reduction, which the case
    // checks only once it is handed over, as the fuzz oracle does.
    if (auto* sum = dynamic_cast<kern::SumCase*>(job->kcase.get())) {
      sum->set_result(res.reduction);
    }
    std::string why;
    if (opts_.materialize && !job->kcase->verify(&why)) {
      // Wrong answer at materialization is an unrecoverable job error,
      // contained like any other: terminal kFail, class "validation".
      outcome = JobOutcome::kFail;
      cls = FailClass::kValidation;
      error = "wrong result: " + why;
    }
  }

  // Destroy the job in place: the execution's finished generation holds
  // no timers (cancelled wholesale at completion), so nothing dangles.
  const int tenant = job->tenant;
  auto done = std::move(job->on_done);
  auto it = std::find_if(
      active_.begin(), active_.end(),
      [job](const std::unique_ptr<ActiveJob>& p) { return p.get() == job; });
  if (it != active_.end()) active_.erase(it);

  finish(tenant, std::move(rec), outcome, cls, std::move(error),
         std::move(done));
  schedule_dispatch();
}

void OffloadServer::on_deadline(int tenant, std::uint64_t job_id) {
  auto& ts = tenants_[tenant];
  for (auto* q : {&ts.queue, &ts.vestibule}) {
    auto it = std::find_if(q->begin(), q->end(), [job_id](const auto& p) {
      return p.job_id == job_id;
    });
    if (it == q->end()) continue;
    PendingJob pj = std::move(*it);
    q->erase(it);
    ts.backlog_s = std::max(0.0, ts.backlog_s - pj.predicted_s);
    const bool parked = q == &ts.vestibule;
    // Promote-then-terminate: the job formally enters the queue (admit
    // accounting, FIFO position) before its terminal record, so the
    // per-tenant FIFO and accounting invariants hold unchanged.
    if (parked) unblock(tenant, pj);
    cancel_pending(tenant, std::move(pj),
                   parked ? "admitted deadline expired in the vestibule"
                          : "admitted deadline expired while queued");
    recompute_shed();
    schedule_dispatch();
    return;
  }

  for (auto& aj : active_) {
    if (aj->record.job_id != job_id) continue;
    aj->exec->request_cancel(FailClass::kDeadlineMiss,
                             "admitted deadline exceeded mid-run");
    return;
  }
  // Already terminal: its completion cancelled this timer, so a fire
  // here can only race a same-instant event — nothing to do.
}

void OffloadServer::cancel_pending(int tenant, PendingJob&& pj,
                                   const std::string& why) {
  const auto& ts = tenants_[tenant];
  const double now = ctx_.engine.now();

  JobRecord rec;
  rec.job_id = pj.job_id;
  rec.tenant = ts.spec.name;
  rec.priority = ts.spec.priority;
  rec.kernel = pj.spec.kernel;
  rec.n = static_cast<long long>(pj.kcase->kernel().iterations.size());
  rec.submit_time = pj.submit_time;
  rec.dispatch_time = now;
  rec.finish_time = now;
  rec.blocked_s = pj.blocked_s;
  rec.predicted_s = pj.predicted_s;
  finish(tenant, std::move(rec), JobOutcome::kCancelled,
         FailClass::kDeadlineMiss, why, std::move(pj.on_done));
}

void OffloadServer::finish(int tenant, JobRecord&& rec, JobOutcome outcome,
                           FailClass cls, std::string error,
                           std::function<void(const JobRecord&)> on_done) {
  auto& c = report_.counts[tenant];
  rec.outcome = outcome;
  if (outcome == JobOutcome::kCompleted) {
    ++c.completed;
    c.iterations += rec.iterations_done;
    note_event(ServeEventKind::kComplete, tenant, rec.job_id,
               "latency " + format_seconds(rec.latency()));
  } else {
    const bool failed = outcome == JobOutcome::kFail;
    rec.error_class = fail_class_name(cls);
    rec.error = std::move(error);
    ++(failed ? c.failed : c.cancelled);
    note_event(failed ? ServeEventKind::kFail : ServeEventKind::kCancel,
               tenant, rec.job_id, rec.error_class + ": " + rec.error);
  }
  settle_breaker(tenant, rec.job_id, outcome);
  report_.jobs.push_back(std::move(rec));
  if (on_done) on_done(report_.jobs.back());
}

void OffloadServer::settle_breaker(int tenant, std::uint64_t job_id,
                                   JobOutcome outcome) {
  auto& ts = tenants_[tenant];
  const bool was_probe = ts.probe_outstanding && ts.probe_job_id == job_id;
  if (was_probe) ts.probe_outstanding = false;
  // Cancellation is the server revoking its own admission, not the
  // tenant misbehaving — it neither feeds nor resets the breaker.
  if (opts_.breaker_threshold <= 0 || outcome == JobOutcome::kCancelled) {
    return;
  }
  if (outcome == JobOutcome::kCompleted) {
    ts.consecutive_failures = 0;
    if (ts.breaker_open) {
      ts.breaker_open = false;
      note_event(ServeEventKind::kBreakerClose, tenant, job_id,
                 was_probe ? "probe succeeded" : "job succeeded");
    }
    return;
  }
  if (ts.breaker_open) {
    // Only the probe's verdict moves an open breaker; a straggler from
    // before the trip changes nothing.
    if (was_probe) trip_breaker(tenant);
    return;
  }
  if (++ts.consecutive_failures >= opts_.breaker_threshold) {
    ts.consecutive_failures = 0;
    trip_breaker(tenant);
  }
}

void OffloadServer::trip_breaker(int tenant) {
  auto& ts = tenants_[tenant];
  const std::size_t trips = ++report_.counts[tenant].breaker_trips;
  const double cooldown = std::min(
      opts_.breaker_cooldown_cap_s,
      opts_.breaker_cooldown_base_s *
          std::pow(opts_.breaker_cooldown_growth,
                   static_cast<double>(trips - 1)));
  ts.breaker_open = true;
  ts.breaker_open_until = ctx_.engine.now() + cooldown;
  ts.probe_outstanding = false;
  note_event(ServeEventKind::kBreakerOpen, tenant, 0,
             "trip " + std::to_string(trips) + "; cooldown " +
                 format_seconds(cooldown));
}

void OffloadServer::run() {
  schedule_dispatch();
  ctx_.engine.run();
  report_.makespan_s = ctx_.engine.now();
}

}  // namespace homp::serve
