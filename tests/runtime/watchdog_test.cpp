// Watchdog, straggler mitigation, and probation re-admission
// (docs/RESILIENCE.md): hung chunks must be reclaimed through speculative
// re-execution bit-correctly, degraded devices must trip the tardiness
// circuit breaker, quarantined devices must be re-admitted through
// probation, and the whole machinery must stay deterministic per seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.h"
#include "kernels/axpy.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "machine/profiles.h"
#include "runtime/resilience.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

long long wd_size(const std::string& name) {
  if (name == "axpy") return 1000;
  if (name == "matvec") return 64;
  if (name == "matmul") return 48;
  if (name == "stencil2d") return 40;
  if (name == "sum") return 2000;
  if (name == "bm2d") return 64;
  ADD_FAILURE() << "unknown kernel " << name;
  return 16;
}

/// Virtual time is free: a heavier cost profile stretches chunks past the
/// watchdog's deadline floor (rt::kDeadlineFloorS) and offloads past the
/// probation cooldown (rt::kCooldownBaseS), while the host runs the same
/// bodies over the same data.
rt::LoopKernel heavier(rt::LoopKernel k, double factor) {
  k.cost.flops_per_iter *= factor;
  k.cost.mem_bytes_per_iter *= factor;
  return k;
}

bool run_and_verify(rt::Runtime& rt, kern::KernelCase& c,
                    const rt::OffloadOptions& o, rt::OffloadResult* out,
                    std::string* why, double heavy = 1.0) {
  c.init();
  auto maps = c.maps();
  auto kernel = heavier(c.kernel(), heavy);
  *out = rt.offload(kernel, maps, o);
  if (auto* sum = dynamic_cast<kern::SumCase*>(&c)) {
    sum->set_result(out->reduction);
  }
  return c.verify(why);
}

bool has_action(const rt::OffloadResult& res, rt::RecoveryAction a) {
  return std::any_of(res.recovery_events.begin(), res.recovery_events.end(),
                     [a](const rt::RecoveryEvent& e) { return e.action == a; });
}

const sched::AlgorithmKind kWatchdogAlgorithms[] = {
    sched::AlgorithmKind::kBlock,
    sched::AlgorithmKind::kDynamic,
    sched::AlgorithmKind::kModel2Auto,
};

class Watchdog : public ::testing::TestWithParam<std::string> {};

TEST_P(Watchdog, HungChunkIsSpeculatedBitCorrectly) {
  const std::string name = GetParam();
  for (auto alg : kWatchdogAlgorithms) {
    rt::Runtime rt{mach::testing_machine(3)};
    auto c = kern::make_case(name, wd_size(name), /*materialize=*/true);

    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = alg;
    sim::ScriptedFault hang;
    hang.device_id = 2;
    hang.kind = sim::FaultKind::kHang;
    hang.op = 0;  // the device's first compute never completes
    o.fault.scripted.push_back(hang);

    rt::OffloadResult res;
    std::string why;
    ASSERT_TRUE(run_and_verify(rt, *c, o, &res, &why))
        << name << "/" << sched::to_string(alg) << ": " << why;
    EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size())
        << name << "/" << sched::to_string(alg);
    // The hang is injected and attributed to the hung device.
    ASSERT_FALSE(res.fault_events.empty()) << name;
    EXPECT_TRUE(std::any_of(
        res.fault_events.begin(), res.fault_events.end(),
        [](const rt::FaultEvent& f) {
          return f.kind == sim::FaultKind::kHang && f.device_id == 2;
        }));
    // The soft deadline fired and the chunk was duplicated elsewhere.
    EXPECT_TRUE(has_action(res, rt::RecoveryAction::kWatchdogFired))
        << name << "/" << sched::to_string(alg);
    EXPECT_TRUE(has_action(res, rt::RecoveryAction::kSpeculated))
        << name << "/" << sched::to_string(alg);
    const auto& hung = res.devices[1];  // slot order follows device_ids
    EXPECT_GE(hung.tardy_chunks, 1u);
    std::size_t spec_run = 0, spec_won = 0;
    for (const auto& d : res.devices) {
      spec_run += d.spec_copies_run;
      spec_won += d.spec_copies_won;
    }
    EXPECT_GE(spec_run, 1u) << name << "/" << sched::to_string(alg);
    EXPECT_GE(spec_won, 1u) << name << "/" << sched::to_string(alg);
    EXPECT_TRUE(res.degraded);
  }
}

TEST_P(Watchdog, DegradedStragglerTripsTheCircuitBreaker) {
  // A mild (6x) straggler mostly beats its own duplicates until three
  // tardy chunks trip the tardiness breaker; a severe (64x) one loses the
  // race to its first duplicate and is quarantined on the spot.
  const std::string name = GetParam();
  for (double factor : {6.0, 64.0}) {
    rt::Runtime rt{mach::testing_machine(3)};
    auto c = kern::make_case(name, wd_size(name), /*materialize=*/true);

    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    sim::ScriptedFault deg;
    deg.device_id = 2;
    deg.kind = sim::FaultKind::kDegrade;
    deg.op = 0;
    deg.factor = factor;  // past the 4x soft deadline
    o.fault.scripted.push_back(deg);

    // 1e4 times heavier: degraded chunks overrun the deadline floor.
    rt::OffloadResult res;
    std::string why;
    ASSERT_TRUE(run_and_verify(rt, *c, o, &res, &why, 1e4))
        << name << " x" << factor << ": " << why;
    EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size());
    const auto& straggler = res.devices[1];
    EXPECT_GE(straggler.tardy_chunks, 1u) << name << " x" << factor;
    EXPECT_GE(straggler.quarantine_count, 1u)
        << name << " x" << factor << ": repeated tardiness must quarantine";
    EXPECT_TRUE(has_action(res, rt::RecoveryAction::kWatchdogFired))
        << name << " x" << factor;
    EXPECT_TRUE(res.degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, Watchdog,
                         ::testing::ValuesIn(kern::all_kernel_names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

TEST(Watchdog, HangOnOnlyDeviceThrowsOffloadError) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(1000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1};
  sim::ScriptedFault hang;
  hang.device_id = 1;
  hang.kind = sim::FaultKind::kHang;
  hang.op = 0;
  o.fault.scripted.push_back(hang);

  auto maps = c.maps();
  auto kernel = c.kernel();
  // The hard deadline quarantines the sole device: no survivors.
  EXPECT_THROW(rt.offload(kernel, maps, o), OffloadError);
}

TEST(Watchdog, SpeculationKeepsHangSlowdownBounded) {
  // ISSUE acceptance: a mid-run hang under SCHED_DYNAMIC must finish in
  // under 2x the fault-free time thanks to speculative re-execution.
  auto run_once = [](bool with_hang) {
    rt::Runtime rt{mach::testing_machine(3)};
    kern::AxpyCase c(30000, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    if (with_hang) {
      sim::ScriptedFault hang;
      hang.device_id = 3;
      hang.kind = sim::FaultKind::kHang;
      hang.op = 4;  // mid-run
      o.fault.scripted.push_back(hang);
    }
    auto maps = c.maps();
    auto kernel = c.kernel();
    auto res = rt.offload(kernel, maps, o);
    std::string why;
    EXPECT_TRUE(c.verify(&why)) << why;
    return res.total_time;
  };
  const double clean = run_once(false);
  const double hung = run_once(true);
  ASSERT_GT(clean, 0.0);
  EXPECT_LT(hung, 2.0 * clean)
      << "speculation must cap the hang penalty below 2x";
}

/// Scripts the first `failures` attempts (ops 0..failures-1) of device 2's
/// first transfer to fail.
void fail_first_transfers(rt::OffloadOptions& o, long long failures) {
  for (long long op = 0; op < failures; ++op) {
    sim::ScriptedFault f;
    f.device_id = 2;
    f.kind = sim::FaultKind::kTransfer;
    f.op = op;
    o.fault.scripted.push_back(f);
  }
}

TEST(Watchdog, ProbationReadmitsAfterTransientBurst) {
  // ISSUE acceptance: a device quarantined by a transient burst is
  // re-admitted via probation and contributes iterations again within the
  // same offload.
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(20000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  // One failure past the retry budget quarantines device 2; every
  // transfer after re-admission succeeds. A 1e3 times heavier kernel
  // keeps the offload running past the re-admission cooldown.
  fail_first_transfers(o, rt::kMaxRetries + 1);

  rt::OffloadResult res;
  std::string why;
  EXPECT_TRUE(run_and_verify(rt, c, o, &res, &why, 1e3)) << why;
  EXPECT_EQ(res.total_iterations(), 20000);
  const auto& healed = res.devices[1];
  EXPECT_GE(healed.quarantine_count, 1u);
  EXPECT_GE(healed.readmissions, 1u);
  EXPECT_GE(healed.probe_chunks, 1u);
  EXPECT_GT(healed.iterations, 0) << "re-admitted device must contribute";
  EXPECT_FALSE(healed.quarantined) << "healed, not quarantined, at the end";
  EXPECT_TRUE(has_action(res, rt::RecoveryAction::kReadmitted));
  EXPECT_TRUE(has_action(res, rt::RecoveryAction::kProbePassed));
  EXPECT_TRUE(has_action(res, rt::RecoveryAction::kPromoted));
  // A healed device still marks the run degraded: results are exact but
  // the timing was perturbed by the quarantine episode.
  EXPECT_TRUE(res.degraded);
}

TEST(Watchdog, SpeculationOfferDoesNotRouseAProbationDevice) {
  // A probation device never runs speculative copies, so a tardy chunk
  // offered for speculation is no work for it. Counting the offer as work
  // made SCHED_DYNAMIC loop at one virtual timestamp (rouse, fetch
  // nothing, finalize, rouse) and never reach the tardy chunk's own
  // completion: this plan hit the step budget.
  for (auto alg : kWatchdogAlgorithms) {
    rt::Runtime rt{mach::testing_machine(3)};
    kern::AxpyCase c(5000, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = alg;
    o.fault.seed = 21;
    o.fault.extra.hang_rate = 0.05;
    o.fault.extra.degrade_rate = 0.01;
    o.fault.extra.degrade_factor = 16.0;
    o.fault.extra.transfer_fault_rate = 0.05;
    o.harness.step_budget = 200000;

    rt::OffloadResult res;
    std::string why;
    bool ok = false;
    try {
      // 1e5 times heavier: chunks outlast the probation cooldown, so a
      // re-admitted device meets a speculation offer.
      ok = run_and_verify(rt, c, o, &res, &why, 1e5);
    } catch (const std::exception& e) {
      why = e.what();  // the step budget's livelock error
    }
    EXPECT_TRUE(ok) << sched::to_string(alg) << ": " << why;
    EXPECT_EQ(res.total_iterations(), 5000) << sched::to_string(alg);
  }
}

TEST(Watchdog, WatchdogDisabledKeepsQuarantinePermanent) {
  // Without the watchdog there is no probation: the same burst and the
  // same long offload leave device 2 quarantined for good.
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(20000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.watchdog.enabled = false;
  fail_first_transfers(o, rt::kMaxRetries + 1);

  rt::OffloadResult res;
  std::string why;
  EXPECT_TRUE(run_and_verify(rt, c, o, &res, &why, 1e3)) << why;
  const auto& lost = res.devices[1];
  EXPECT_TRUE(lost.quarantined);
  EXPECT_EQ(lost.readmissions, 0u);
  EXPECT_FALSE(has_action(res, rt::RecoveryAction::kReadmitted));
  EXPECT_EQ(res.devices[0].iterations, 20000);
}

TEST(Watchdog, IdenticalSeedAndPlanGiveIdenticalResults) {
  // The whole watchdog/speculation/probation machinery runs in virtual
  // time off the per-device fault streams: same seed + plan => identical
  // OffloadResult, timestamps included.
  for (auto alg : kWatchdogAlgorithms) {
    auto run_once = [alg]() {
      // Four devices, so the latched degrades leave a survivor.
      rt::Runtime rt{mach::testing_machine(4)};
      kern::AxpyCase c(5000, /*materialize=*/true);
      rt::OffloadOptions o;
      o.device_ids = {1, 2, 3, 4};
      o.sched.kind = alg;
      o.fault.seed = 77;
      o.fault.extra.hang_rate = 0.05;
      o.fault.extra.degrade_rate = 0.05;
      o.fault.extra.degrade_factor = 16.0;
      o.fault.extra.transfer_fault_rate = 0.05;
      auto maps = c.maps();
      // 1e3 times heavier: quarantined devices are re-admitted mid-run.
      auto kernel = heavier(c.kernel(), 1e3);
      return rt.offload(kernel, maps, o);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.total_time, b.total_time) << sched::to_string(alg);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.reduction, b.reduction);
    ASSERT_EQ(a.fault_events.size(), b.fault_events.size())
        << sched::to_string(alg);
    for (std::size_t i = 0; i < a.fault_events.size(); ++i) {
      EXPECT_EQ(a.fault_events[i].time, b.fault_events[i].time);
      EXPECT_EQ(a.fault_events[i].device_id, b.fault_events[i].device_id);
      EXPECT_EQ(a.fault_events[i].kind, b.fault_events[i].kind);
    }
    ASSERT_EQ(a.recovery_events.size(), b.recovery_events.size())
        << sched::to_string(alg);
    for (std::size_t i = 0; i < a.recovery_events.size(); ++i) {
      EXPECT_EQ(a.recovery_events[i].time, b.recovery_events[i].time);
      EXPECT_EQ(a.recovery_events[i].slot, b.recovery_events[i].slot);
      EXPECT_EQ(a.recovery_events[i].action, b.recovery_events[i].action);
    }
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
      EXPECT_EQ(a.devices[i].iterations, b.devices[i].iterations);
      EXPECT_EQ(a.devices[i].tardy_chunks, b.devices[i].tardy_chunks);
      EXPECT_EQ(a.devices[i].spec_copies_run, b.devices[i].spec_copies_run);
      EXPECT_EQ(a.devices[i].spec_copies_won, b.devices[i].spec_copies_won);
      EXPECT_EQ(a.devices[i].probe_chunks, b.devices[i].probe_chunks);
      EXPECT_EQ(a.devices[i].readmissions, b.devices[i].readmissions);
      EXPECT_EQ(a.devices[i].quarantine_count,
                b.devices[i].quarantine_count);
      EXPECT_EQ(a.devices[i].finish_time, b.devices[i].finish_time);
    }
  }
}

TEST(Watchdog, FaultFreeRunIsUntouchedByWatchdogOptions) {
  // With no faults the watchdog never arms: toggling it (or speculation)
  // must not perturb the simulation at all.
  auto run_once = [](bool watchdog_on, bool speculation) {
    rt::Runtime rt{mach::testing_machine(2)};
    kern::AxpyCase c(1500, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    o.watchdog.enabled = watchdog_on;
    o.watchdog.speculation = speculation;
    auto maps = c.maps();
    auto kernel = c.kernel();
    return rt.offload(kernel, maps, o);
  };
  const auto a = run_once(true, true);
  const auto b = run_once(false, true);
  const auto d = run_once(true, false);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_time, d.total_time);
  EXPECT_TRUE(a.recovery_events.empty());
  EXPECT_TRUE(d.recovery_events.empty());
  EXPECT_FALSE(a.degraded);
}

}  // namespace
}  // namespace homp
