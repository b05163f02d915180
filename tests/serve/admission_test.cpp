// Admission-control contract of serve::OffloadServer: bounded queues
// with reject-vs-block backpressure, deadline admission against the
// MODEL_2 prediction, memory-feasibility rejection, and configuration
// validation (docs/SERVING.md).

#include <gtest/gtest.h>

#include "common/error.h"
#include "kernels/case.h"
#include "machine/profiles.h"
#include "model/loop_model.h"
#include "serve/server.h"

namespace homp::serve {
namespace {

TenantSpec tenant(const std::string& name, BackpressureMode bp,
                  std::size_t depth) {
  TenantSpec t;
  t.name = name;
  t.backpressure = bp;
  t.max_queue_depth = depth;
  return t;
}

JobSpec small_job() {
  JobSpec j;
  j.kernel = "axpy";
  j.n = 1 << 14;
  j.devices = 2;
  return j;
}

TEST(Admission, RejectModeFailsFastWithRetryAfter) {
  OffloadServer server(mach::builtin("full"),
                       {tenant("t", BackpressureMode::kReject, 1)});

  auto first = server.submit("t", small_job());
  EXPECT_EQ(first.outcome, AdmitOutcome::kAdmitted);
  EXPECT_GT(first.job_id, 0u);

  auto second = server.submit("t", small_job());
  EXPECT_EQ(second.outcome, AdmitOutcome::kRejectedQueueFull);
  EXPECT_FALSE(second.accepted());
  EXPECT_GT(second.retry_after_s, 0.0);

  server.run();
  const auto& c = server.report().counts[0];
  EXPECT_EQ(c.submitted, 2u);
  EXPECT_EQ(c.admitted, 1u);
  EXPECT_EQ(c.rejected_queue_full, 1u);
  EXPECT_EQ(c.completed, 1u);
}

TEST(Admission, BlockModeParksInVestibuleAndPromotes) {
  OffloadServer server(mach::builtin("full"),
                       {tenant("t", BackpressureMode::kBlock, 1)});

  // Whole-pool jobs: with depth 1, the third submission can only leave
  // the vestibule after the first job finishes and the second one pops,
  // so it accrues real (virtual-time) blocked wait.
  JobSpec wide = small_job();
  wide.devices = 6;
  auto first = server.submit("t", wide);
  auto second = server.submit("t", wide);
  auto third = server.submit("t", wide);
  EXPECT_EQ(first.outcome, AdmitOutcome::kAdmitted);
  EXPECT_EQ(second.outcome, AdmitOutcome::kBlocked);
  EXPECT_EQ(third.outcome, AdmitOutcome::kBlocked);
  EXPECT_TRUE(second.accepted());

  server.run();

  const auto& rep = server.report();
  const auto& c = rep.counts[0];
  EXPECT_EQ(c.blocked, 2u);
  EXPECT_EQ(c.admitted, 3u);  // promoted submissions are admitted too
  EXPECT_EQ(c.completed, 3u);

  // The audit shows both promotions; the third job, promoted only
  // after the first one finished, recorded a positive vestibule wait.
  std::size_t waited = 0, unblocks = 0;
  for (const auto& j : rep.jobs) waited += j.blocked_s > 0.0 ? 1 : 0;
  for (const auto& e : rep.events) {
    unblocks += e.kind == ServeEventKind::kUnblock ? 1 : 0;
  }
  EXPECT_GE(waited, 1u);
  EXPECT_EQ(unblocks, 2u);
  EXPECT_TRUE(rep.validate().empty());
}

TEST(Admission, DeadlineRejectsWhenPredictionExceedsIt) {
  OffloadServer server(mach::builtin("full"),
                       {tenant("t", BackpressureMode::kReject, 8)});

  JobSpec hopeless = small_job();
  hopeless.deadline_s = 1e-12;
  auto r = server.submit("t", hopeless);
  EXPECT_EQ(r.outcome, AdmitOutcome::kRejectedDeadline);

  JobSpec generous = small_job();
  generous.deadline_s =
      100.0 * server.predicted_job_seconds("axpy", generous.n, 2);
  EXPECT_EQ(server.submit("t", generous).outcome, AdmitOutcome::kAdmitted);

  server.run();
  EXPECT_EQ(server.report().counts[0].rejected_deadline, 1u);
  EXPECT_EQ(server.report().counts[0].completed, 1u);
}

TEST(Admission, InfeasibleFootprintRejectedAtTheDoor) {
  ServeOptions opts;
  opts.device_mem_bytes = 64.0;  // nothing real fits
  OffloadServer server(mach::builtin("full"),
                       {tenant("t", BackpressureMode::kReject, 8)}, opts);

  auto r = server.submit("t", small_job());
  EXPECT_EQ(r.outcome, AdmitOutcome::kRejectedInfeasible);
  server.run();
  EXPECT_EQ(server.report().counts[0].rejected_infeasible, 1u);
  EXPECT_TRUE(server.report().jobs.empty());
}

TEST(Admission, ConfigurationIsValidated) {
  const auto machine = mach::builtin("full");

  EXPECT_THROW(OffloadServer(machine, {}), ConfigError);

  auto dup = tenant("t", BackpressureMode::kReject, 4);
  EXPECT_THROW(OffloadServer(machine, {dup, dup}), ConfigError);

  auto bad_weight = tenant("t", BackpressureMode::kReject, 4);
  bad_weight.weight = 0.0;
  EXPECT_THROW(OffloadServer(machine, {bad_weight}), ConfigError);

  ServeOptions bad_floor;
  bad_floor.floor_fraction = 1.0;
  EXPECT_THROW(OffloadServer(machine, {tenant("t", BackpressureMode::kReject, 4)},
                             bad_floor),
               ConfigError);

  OffloadServer server(machine, {tenant("t", BackpressureMode::kReject, 4)});
  EXPECT_THROW(server.submit("nobody", small_job()), ConfigError);

  JobSpec bad_job = small_job();
  bad_job.n = 0;
  EXPECT_THROW(server.submit("t", bad_job), ConfigError);
}

// One pool order for grants and prices: fastest sustained FLOPs first,
// ties by id. `full` with two devices swapped lists a Phi before the
// K40s, so file order and speed order differ.
TEST(Placement, FastestFreeDevicesFirstTiesById) {
  auto machine = mach::builtin("full");
  std::swap(machine.devices[1], machine.devices[5]);
  ASSERT_EQ(machine.devices[1].name, "Phi7120-0");
  ASSERT_EQ(machine.devices[5].name, "K40-0");
  OffloadServer server(machine, {tenant("t", BackpressureMode::kReject, 4)});
  EXPECT_EQ(server.pool(), (std::vector<int>{2, 3, 4, 5, 1, 6}));

  // The second job finds K40-0 and the two Phis free: the K40 first, then
  // the Phi with the lower id.
  JobSpec three = small_job();
  three.devices = 3;
  const auto a = server.submit("t", three);
  const auto b = server.submit("t", small_job());
  server.run();

  std::vector<std::string> placed;
  for (const auto& e : server.report().events) {
    if (e.kind == ServeEventKind::kDispatch) placed.push_back(e.detail);
  }
  EXPECT_EQ(placed, (std::vector<std::string>{"devices K40-1 K40-2 K40-3",
                                              "devices K40-0 Phi7120-0"}));

  // The admission price of a 3-device job is MODEL_2 on that same set.
  const auto kcase = kern::make_case("axpy", three.n, false);
  const auto profile = kcase->paper_profile();
  const auto inputs = model::prediction_inputs(machine, {2, 3, 4});
  std::vector<double> iter_times;
  for (const auto& in : inputs) {
    iter_times.push_back(model::model2_iter_time(profile, in));
  }
  const double want = model::predicted_completion_time(
      three.n, model::model2_weights(profile, inputs), iter_times);
  EXPECT_EQ(server.predicted_job_seconds("axpy", three.n, 3), want);
  for (const auto& j : server.report().jobs) {
    if (j.job_id == a.job_id) {
      EXPECT_EQ(j.predicted_s, want);
    } else if (j.job_id == b.job_id) {
      EXPECT_EQ(j.predicted_s, server.predicted_job_seconds("axpy", j.n, 2));
    }
  }
}

}  // namespace
}  // namespace homp::serve
