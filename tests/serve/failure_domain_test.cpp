// Job-level failure domains of serve::OffloadServer (docs/SERVING.md
// "Job failure domains"): an unrecoverable error inside one tenant's job
// becomes a terminal kFail record while every other tenant keeps being
// served; admitted deadlines cancel jobs cooperatively mid-run, from the
// queue, and from the vestibule (promote-then-terminate); consecutive
// failures trip the per-tenant circuit breaker, which re-admits through
// a probation probe; and a drained server retains zero job objects and
// zero pending engine timers (no graveyard).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "machine/profiles.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace homp::serve {
namespace {

TenantSpec tenant(const std::string& name,
                  BackpressureMode bp = BackpressureMode::kReject,
                  std::size_t depth = 8) {
  TenantSpec t;
  t.name = name;
  t.backpressure = bp;
  t.max_queue_depth = depth;
  return t;
}

JobSpec job(long long n, int devices,
            sched::AlgorithmKind alg = sched::AlgorithmKind::kDynamic) {
  JobSpec j;
  j.kernel = "axpy";
  j.n = n;
  j.devices = devices;
  j.algorithm = alg;
  return j;
}

/// Every test ends with this: no retained job objects, no pending
/// timers, no live generations — the drained-server memory-flatness
/// contract that replaced the graveyard.
void expect_drained_flat(OffloadServer& server) {
  EXPECT_EQ(server.retained_jobs(), 0u);
  EXPECT_EQ(server.engine().live_events(), 0u);
  EXPECT_EQ(server.engine().live_generations(), 0u);
}

const JobRecord* find_job(const ServeReport& rep, std::uint64_t id) {
  for (const auto& j : rep.jobs) {
    if (j.job_id == id) return &j;
  }
  return nullptr;
}

std::size_t count_events(const ServeReport& rep, ServeEventKind kind) {
  std::size_t n = 0;
  for (const auto& e : rep.events) n += e.kind == kind ? 1 : 0;
  return n;
}

// The ISSUE acceptance regression: a scripted unrecoverable fault in one
// tenant's jobs mid-run produces terminal kFail records, while every
// other tenant's jobs complete. materialize=true makes the server
// execute and verify each completed job against the sequential
// reference, so "completed" below also means bit-correct results.
TEST(FailureDomain, PoisonTenantContainedOthersCompleteVerified) {
  auto poison = tenant("poison");
  poison.fault.fail_at_s = 1e-4;  // all granted devices die mid-run

  ServeOptions opts;
  opts.materialize = true;
  opts.breaker_threshold = 0;  // isolate containment from the breaker
  OffloadServer server(mach::builtin("full"),
                       {poison, tenant("a"), tenant("b")}, opts);

  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(server.submit("poison", job(1 << 12, 3)).accepted());
    EXPECT_TRUE(server.submit("a", job(1 << 12, 2)).accepted());
    EXPECT_TRUE(server.submit("b", job(1 << 12, 2)).accepted());
  }
  server.run();

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].failed, 2u);
  EXPECT_EQ(rep.counts[0].completed, 0u);
  EXPECT_EQ(rep.counts[1].completed, 2u);
  EXPECT_EQ(rep.counts[2].completed, 2u);
  for (const auto& j : rep.jobs) {
    if (j.tenant == "poison") {
      EXPECT_EQ(j.outcome, JobOutcome::kFail);
      EXPECT_FALSE(j.ok());
      EXPECT_EQ(j.error_class, "all_devices_lost");
      EXPECT_FALSE(j.error.empty());
    } else {
      EXPECT_EQ(j.outcome, JobOutcome::kCompleted);
      EXPECT_TRUE(j.ok());
      EXPECT_EQ(j.iterations_done, j.n);
    }
  }
  EXPECT_EQ(count_events(rep, ServeEventKind::kFail), 2u);
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// An admitted job whose deadline passes mid-run is cooperatively
// cancelled: terminal kCancelled record with class "deadline_miss", the
// devices come back, and a concurrent clean tenant is untouched.
TEST(FailureDomain, DeadlineMissMidRunCancelsJob) {
  auto slow = tenant("slow");
  slow.fault.slowdown_rate = 0.95;  // admission's predictor can't see this
  slow.fault.slowdown_factor = 64.0;

  OffloadServer server(mach::builtin("full"), {slow, tenant("fast")});
  const double p = server.predicted_job_seconds("axpy", 1 << 14, 2);

  JobSpec doomed = job(1 << 14, 2);
  doomed.deadline_s = 4.0 * p;  // passes admission, unreachable at 64x
  const auto r = server.submit("slow", doomed);
  ASSERT_EQ(r.outcome, AdmitOutcome::kAdmitted);
  EXPECT_TRUE(server.submit("fast", job(1 << 14, 2)).accepted());
  server.run();

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].cancelled, 1u);
  EXPECT_EQ(rep.counts[1].completed, 1u);
  const JobRecord* doomed_rec = find_job(rep, r.job_id);
  ASSERT_NE(doomed_rec, nullptr);
  EXPECT_EQ(doomed_rec->outcome, JobOutcome::kCancelled);
  EXPECT_EQ(doomed_rec->error_class, "deadline_miss");
  EXPECT_EQ(count_events(rep, ServeEventKind::kCancel), 1u);

  // The cancelled job's devices were reclaimed: a follow-up run on a
  // fresh submission completes.
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// A deadline that expires while the job still waits in the queue
// cancels it without a dispatch: the record is terminal kCancelled with
// dispatch_time == finish_time, and FIFO/accounting stay valid.
TEST(FailureDomain, DeadlineExpiredInQueueCancelsWithoutDispatch) {
  auto slow = tenant("slow");
  slow.fault.slowdown_rate = 0.95;
  slow.fault.slowdown_factor = 64.0;

  OffloadServer server(mach::builtin("full"), {slow});
  const double p = server.predicted_job_seconds("axpy", 1 << 14, 6);

  // Job 1 holds the whole pool ~64x longer than predicted; job 2's
  // deadline is generous against the (fault-blind) queue estimate but
  // expires long before job 1 actually finishes.
  EXPECT_TRUE(server.submit("slow", job(1 << 14, 6)).accepted());
  JobSpec queued = job(1 << 14, 6);
  queued.deadline_s = 10.0 * p;
  const auto r = server.submit("slow", queued);
  ASSERT_EQ(r.outcome, AdmitOutcome::kAdmitted);
  server.run();

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].completed, 1u);
  EXPECT_EQ(rep.counts[0].cancelled, 1u);
  const JobRecord* rec = find_job(rep, r.job_id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, JobOutcome::kCancelled);
  EXPECT_EQ(rec->error_class, "deadline_miss");
  EXPECT_EQ(rec->dispatch_time, rec->finish_time);  // never dispatched
  EXPECT_EQ(rec->iterations_done, 0);
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// Vestibule x cancellation: a blocked submission whose deadline expires
// before room opens is promoted then terminated — it formally enters
// the queue (kUnblock + kAdmit, admitted counted) so per-tenant FIFO
// and accounting hold, then records terminal kCancelled.
TEST(FailureDomain, VestibuleDeadlinePromoteThenTerminate) {
  auto slow = tenant("slow", BackpressureMode::kBlock, 1);
  slow.fault.slowdown_rate = 0.95;
  slow.fault.slowdown_factor = 64.0;

  OffloadServer server(mach::builtin("full"), {slow});
  const double p = server.predicted_job_seconds("axpy", 1 << 14, 6);

  EXPECT_TRUE(server.submit("slow", job(1 << 14, 6)).accepted());  // runs
  EXPECT_TRUE(server.submit("slow", job(1 << 14, 6)).accepted());  // queued
  JobSpec parked = job(1 << 14, 6);
  parked.deadline_s = 10.0 * p;  // expires while job 1 still runs
  const auto r = server.submit("slow", parked);
  ASSERT_EQ(r.outcome, AdmitOutcome::kBlocked);
  server.run();

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].blocked, 2u);   // jobs 2 and 3 both parked
  EXPECT_EQ(rep.counts[0].admitted, 3u);  // both promotions count
  EXPECT_EQ(rep.counts[0].completed, 2u);
  EXPECT_EQ(rep.counts[0].cancelled, 1u);
  const JobRecord* rec = find_job(rep, r.job_id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, JobOutcome::kCancelled);
  EXPECT_EQ(rec->error_class, "deadline_miss");
  EXPECT_GT(rec->blocked_s, 0.0);

  // Audit order for the parked job: kBlock, then kUnblock + kAdmit +
  // kCancel at expiry.
  int saw = 0;
  for (const auto& e : rep.events) {
    if (e.job_id != r.job_id) continue;
    if (e.kind == ServeEventKind::kBlock) {
      EXPECT_EQ(saw++, 0);
    }
    if (e.kind == ServeEventKind::kUnblock) {
      EXPECT_EQ(saw++, 1);
    }
    if (e.kind == ServeEventKind::kAdmit) {
      EXPECT_EQ(saw++, 2);
    }
    if (e.kind == ServeEventKind::kCancel) {
      EXPECT_EQ(saw++, 3);
    }
  }
  EXPECT_EQ(saw, 4);
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// A completed job cancels its own watchdog deadline timer: nothing
// fires later, no cancellation is recorded, and the engine drains
// clean.
TEST(FailureDomain, CompletionCancelsDeadlineTimer) {
  OffloadServer server(mach::builtin("full"), {tenant("t")});
  JobSpec j = job(1 << 14, 2);
  j.deadline_s = 100.0 * server.predicted_job_seconds("axpy", j.n, 2);
  EXPECT_TRUE(server.submit("t", j).accepted());
  server.run();

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].completed, 1u);
  EXPECT_EQ(rep.counts[0].cancelled, 0u);
  EXPECT_EQ(count_events(rep, ServeEventKind::kCancel), 0u);
  expect_drained_flat(server);
}

// Breaker lifecycle: consecutive kFail records trip the tenant open
// (submissions rejected with retry-after), the cooldown admits one
// probation probe, and the probe's success closes the breaker. Failures
// come from the per-job step budget — a dynamic 6-device offload costs
// ~225 engine events, a block 1-device one costs 3 — so the same tenant
// can fail deterministically and then recover.
TEST(FailureDomain, BreakerTripsProbesAndCloses) {
  ServeOptions opts;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_base_s = 10.0;
  opts.breaker_cooldown_cap_s = 40.0;
  opts.base.harness.step_budget = 100;
  OffloadServer server(mach::builtin("full"),
                       {tenant("t", BackpressureMode::kReject, 16)}, opts);

  auto big = [&] { return job(1 << 14, 6); };
  auto small = [&] { return job(1 << 8, 1, sched::AlgorithmKind::kBlock); };

  AdmitOutcome while_open = AdmitOutcome::kAdmitted;
  double retry_after = 0.0;
  AdmitOutcome probe_verdict = AdmitOutcome::kRejectedBreaker;
  AdmitOutcome after_close = AdmitOutcome::kRejectedBreaker;

  auto& eng = server.engine();
  eng.schedule_after(0.0, [&] {
    EXPECT_TRUE(server.submit("t", big()).accepted());
    EXPECT_TRUE(server.submit("t", big()).accepted());
  });
  eng.schedule_after(5.0, [&] {  // both kFails landed; cooldown runs
    const auto r = server.submit("t", small());
    while_open = r.outcome;
    retry_after = r.retry_after_s;
  });
  eng.schedule_after(20.0, [&] {  // past the cooldown: probe slot
    probe_verdict = server.submit("t", small()).outcome;
  });
  eng.schedule_after(30.0, [&] {  // probe succeeded: breaker closed
    after_close = server.submit("t", small()).outcome;
  });
  server.run();

  EXPECT_EQ(while_open, AdmitOutcome::kRejectedBreaker);
  EXPECT_GT(retry_after, 0.0);
  EXPECT_EQ(probe_verdict, AdmitOutcome::kAdmitted);
  EXPECT_EQ(after_close, AdmitOutcome::kAdmitted);

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].failed, 2u);
  EXPECT_EQ(rep.counts[0].completed, 2u);
  EXPECT_EQ(rep.counts[0].rejected_breaker, 1u);
  EXPECT_EQ(rep.counts[0].breaker_trips, 1u);
  EXPECT_EQ(count_events(rep, ServeEventKind::kBreakerOpen), 1u);
  EXPECT_EQ(count_events(rep, ServeEventKind::kBreakerProbe), 1u);
  EXPECT_EQ(count_events(rep, ServeEventKind::kBreakerClose), 1u);
  for (const auto& j : rep.jobs) {
    if (j.outcome == JobOutcome::kFail) {
      EXPECT_EQ(j.error_class, "step_budget");
    }
  }
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// A failed probe re-opens the breaker with the cooldown grown
// (exponential backoff, capped), and counts another trip.
TEST(FailureDomain, FailedProbeReopensWithGrownCooldown) {
  ServeOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown_base_s = 10.0;
  opts.breaker_cooldown_growth = 2.0;
  opts.breaker_cooldown_cap_s = 80.0;
  opts.base.harness.step_budget = 100;
  OffloadServer server(mach::builtin("full"), {tenant("t")}, opts);

  auto big = [&] { return job(1 << 14, 6); };
  AdmitOutcome probe1 = AdmitOutcome::kRejectedBreaker;
  AdmitOutcome inside_grown = AdmitOutcome::kAdmitted;
  AdmitOutcome probe2 = AdmitOutcome::kRejectedBreaker;

  auto& eng = server.engine();
  eng.schedule_after(0.0, [&] {
    EXPECT_TRUE(server.submit("t", big()).accepted());  // kFail -> trip 1
  });
  eng.schedule_after(15.0, [&] {  // past cooldown 10: probe, fails again
    probe1 = server.submit("t", big()).outcome;
  });
  // Trip 2's cooldown is 20s from ~15s; still open at 25.
  eng.schedule_after(25.0, [&] {
    inside_grown =
        server.submit("t", job(1 << 8, 1, sched::AlgorithmKind::kBlock))
            .outcome;
  });
  eng.schedule_after(40.0, [&] {  // past the grown cooldown: probe again
    probe2 = server.submit("t", job(1 << 8, 1,
                                    sched::AlgorithmKind::kBlock)).outcome;
  });
  server.run();

  EXPECT_EQ(probe1, AdmitOutcome::kAdmitted);
  EXPECT_EQ(inside_grown, AdmitOutcome::kRejectedBreaker);
  EXPECT_EQ(probe2, AdmitOutcome::kAdmitted);
  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].breaker_trips, 2u);
  EXPECT_EQ(count_events(rep, ServeEventKind::kBreakerOpen), 2u);
  EXPECT_EQ(count_events(rep, ServeEventKind::kBreakerClose), 1u);
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// Vestibule x cancellation x FIFO: when a parked submission expires and
// a later parked submission survives, the expired one is still admitted
// first (promote-then-terminate), and every dispatch for the tenant
// happens in submission order.
TEST(FailureDomain, VestibuleExpiryPreservesPerTenantFifo) {
  auto slow = tenant("slow", BackpressureMode::kBlock, 1);
  slow.fault.slowdown_rate = 0.95;
  slow.fault.slowdown_factor = 64.0;

  OffloadServer server(mach::builtin("full"), {slow});
  const double p = server.predicted_job_seconds("axpy", 1 << 14, 6);

  EXPECT_TRUE(server.submit("slow", job(1 << 14, 6)).accepted());  // runs
  EXPECT_TRUE(server.submit("slow", job(1 << 14, 6)).accepted());  // queued
  JobSpec doomed = job(1 << 14, 6);
  doomed.deadline_s = 10.0 * p;  // expires while job 1 still runs
  const auto a = server.submit("slow", doomed);
  ASSERT_EQ(a.outcome, AdmitOutcome::kBlocked);
  const auto b = server.submit("slow", job(1 << 14, 6));  // parked behind
  ASSERT_EQ(b.outcome, AdmitOutcome::kBlocked);
  server.run();

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].completed, 3u);
  EXPECT_EQ(rep.counts[0].cancelled, 1u);
  const JobRecord* cancelled = find_job(rep, a.job_id);
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->outcome, JobOutcome::kCancelled);
  const JobRecord* survivor = find_job(rep, b.job_id);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->outcome, JobOutcome::kCompleted);

  // Job ids are assigned in submission order, so FIFO means both the
  // admit and the dispatch streams carry strictly increasing ids — with
  // the expired submission admitted (then terminated) before its
  // younger sibling, and never dispatched at all.
  std::uint64_t last_admit = 0, last_dispatch = 0;
  for (const auto& e : rep.events) {
    if (e.kind == ServeEventKind::kAdmit) {
      EXPECT_GT(e.job_id, last_admit);
      last_admit = e.job_id;
    } else if (e.kind == ServeEventKind::kDispatch) {
      EXPECT_GT(e.job_id, last_dispatch);
      EXPECT_NE(e.job_id, a.job_id);
      last_dispatch = e.job_id;
    }
  }
  EXPECT_EQ(last_admit, b.job_id);  // the parked survivor was admitted
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// A poison tenant behind a full vestibule: every parked submission is
// promoted in FIFO order and fails terminally after dispatch — failure
// containment and the vestibule compose.
TEST(FailureDomain, VestibulePromotionsOfFailingJobsKeepFifo) {
  auto poison = tenant("poison", BackpressureMode::kBlock, 1);
  poison.fault.fail_at_s = 1e-4;
  ServeOptions opts;
  opts.breaker_threshold = 0;  // every job must reach its own kFail
  OffloadServer server(mach::builtin("full"), {poison}, opts);

  // Dispatch is itself an engine event, so before run() the first
  // submission fills the depth-1 queue and both later ones park.
  const auto r1 = server.submit("poison", job(1 << 12, 2));
  EXPECT_EQ(r1.outcome, AdmitOutcome::kAdmitted);
  const auto r2 = server.submit("poison", job(1 << 12, 2));
  ASSERT_EQ(r2.outcome, AdmitOutcome::kBlocked);
  const auto r3 = server.submit("poison", job(1 << 12, 2));
  ASSERT_EQ(r3.outcome, AdmitOutcome::kBlocked);
  server.run();

  const auto& rep = server.report();
  EXPECT_EQ(rep.counts[0].failed, 3u);
  EXPECT_EQ(rep.counts[0].completed, 0u);
  EXPECT_EQ(rep.counts[0].blocked, 2u);
  EXPECT_EQ(rep.counts[0].admitted, 3u);
  std::uint64_t last_dispatch = 0;
  for (const auto& e : rep.events) {
    if (e.kind != ServeEventKind::kDispatch) continue;
    EXPECT_GT(e.job_id, last_dispatch);
    last_dispatch = e.job_id;
  }
  EXPECT_EQ(last_dispatch, r3.job_id);
  for (const auto& j : rep.jobs) {
    EXPECT_EQ(j.outcome, JobOutcome::kFail);
    EXPECT_EQ(j.error_class, "all_devices_lost");
  }
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// Both granted devices die at 5 us, while the fast one still pays the
// allocation for the chunk it fetched. Its quarantine requeues that
// chunk, which revives the slow device (it had no work under
// MODEL_1_AUTO), and the slow device's own loss leaves none: a contained
// kFail. A chunk held only by its delay event was invisible to
// quarantine, and the job's delivery with none of its iterations covered
// aborted the whole server.
TEST(FailureDomain, LossInsideTheAllocWindowIsContained) {
  auto m = mach::testing_machine(2, /*shared_link=*/true);
  m.devices[1].name = "fast";
  m.devices[1].peak_gflops = m.devices[1].sustained_gflops = 10000.0;
  m.devices[1].alloc_overhead_s = 100e-6;  // per map: 200 us for axpy
  m.devices[2].name = "slow";
  m.devices[2].peak_gflops = m.devices[2].sustained_gflops = 1.0;
  auto doomed = tenant("doomed");
  doomed.fault.fail_at_s = 5e-6;
  ServeOptions opts;
  opts.materialize = true;
  OffloadServer server(m, {doomed}, opts);
  EXPECT_TRUE(
      server.submit("doomed", job(8, 2, sched::AlgorithmKind::kModel1Auto))
          .accepted());
  server.run();

  const auto& rep = server.report();
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_EQ(rep.jobs[0].outcome, JobOutcome::kFail);
  EXPECT_EQ(rep.jobs[0].error_class, "all_devices_lost");
  EXPECT_TRUE(rep.validate().empty());
  expect_drained_flat(server);
}

// Failure records flow into the summary JSON's per-tenant error-class
// map and the exported metrics.
TEST(FailureDomain, ErrorClassesReachSummaryAndMetrics) {
  auto poison = tenant("poison");
  poison.fault.fail_at_s = 1e-4;
  ServeOptions opts;
  opts.breaker_threshold = 0;
  OffloadServer server(mach::builtin("full"), {poison}, opts);
  EXPECT_TRUE(server.submit("poison", job(1 << 12, 2)).accepted());
  server.run();

  std::ostringstream ss;
  server.report().write_summary_json(ss);
  const std::string json = ss.str();
  EXPECT_NE(json.find("homp-serve-report-v2"), std::string::npos);
  EXPECT_NE(json.find("\"error_classes\""), std::string::npos);
  EXPECT_NE(json.find("\"all_devices_lost\": 1"), std::string::npos);

  obs::MetricsRegistry reg;
  server.report().export_metrics(reg);
  EXPECT_EQ(reg.value("homp_serve_failed_total", "tenant=\"poison\""), 1.0);
  expect_drained_flat(server);
}

}  // namespace
}  // namespace homp::serve
