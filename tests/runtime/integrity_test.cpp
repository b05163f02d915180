// End-to-end data integrity (docs/RESILIENCE.md "Integrity"): silently
// corrupted transfer payloads and kernel results must be caught by the
// checksummed verified commits, discarded before they touch host state,
// and re-executed (escalating to quorum voting) until the final host
// arrays are bit-identical to a fault-free run.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "kernels/axpy.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "machine/profiles.h"
#include "runtime/resilience.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

long long integrity_size(const std::string& name) {
  if (name == "axpy") return 1000;
  if (name == "matvec") return 64;
  if (name == "matmul") return 48;
  if (name == "stencil2d") return 40;
  if (name == "sum") return 2000;
  if (name == "bm2d") return 64;
  ADD_FAILURE() << "unknown kernel " << name;
  return 16;
}

/// Virtual time is free: a cost profile kHeavy times heavier makes the
/// probation cooldown (rt::kCooldownBaseS) short beside a chunk, so devices
/// the integrity breaker quarantines come back in time, while the host
/// runs the same bodies over the same data.
constexpr double kHeavy = 1e7;

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

sim::ScriptedFault corrupt_script(int device_id, sim::FaultKind kind,
                                  long long op) {
  sim::ScriptedFault f;
  f.device_id = device_id;
  f.kind = kind;
  f.op = op;
  return f;
}

std::size_t count_actions(const rt::OffloadResult& res, rt::RecoveryAction a) {
  return static_cast<std::size_t>(
      std::count_if(res.recovery_events.begin(), res.recovery_events.end(),
                    [a](const rt::RecoveryEvent& e) { return e.action == a; }));
}

TEST(Integrity, ComputeCorruptionIsDiscardedAndReexecuted) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kBlock;
  // Device 2's first kernel result arrives with flipped bits.
  o.fault.scripted.push_back(
      corrupt_script(2, sim::FaultKind::kCorruptCompute, 0));

  rt::OffloadResult res;
  std::string why;
  ASSERT_TRUE(run_and_verify(rt, c, o, &res, &why)) << why;
  EXPECT_EQ(res.total_iterations(), 1000);

  const auto& bad = res.devices[1];
  EXPECT_EQ(bad.corruptions_injected, 1u);
  EXPECT_EQ(bad.integrity_failures, 1u);
  // The discarded chunk ran again on the *other* device.
  EXPECT_EQ(res.devices[0].integrity_reexecutions, 1u);
  EXPECT_EQ(count_actions(res, rt::RecoveryAction::kCorruptionDetected), 1u);
  EXPECT_EQ(count_actions(res, rt::RecoveryAction::kReexecuteQueued), 1u);
  EXPECT_GE(count_actions(res, rt::RecoveryAction::kReexecuteCommitted), 1u);
  // The injection shows up in the fault log too.
  ASSERT_FALSE(res.fault_events.empty());
  EXPECT_EQ(res.fault_events[0].kind, sim::FaultKind::kCorruptCompute);
}

TEST(Integrity, CopyOutWireCorruptionIsCaughtAtCommit) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kBlock;
  // Transfer ops on device 2: 0 = chunk copy-in, 1 = chunk copy-out.
  o.fault.scripted.push_back(
      corrupt_script(2, sim::FaultKind::kCorruptTransfer, 1));

  rt::OffloadResult res;
  std::string why;
  ASSERT_TRUE(run_and_verify(rt, c, o, &res, &why)) << why;
  EXPECT_EQ(res.devices[1].corruptions_injected, 1u);
  EXPECT_EQ(res.devices[1].integrity_failures, 1u);
  EXPECT_EQ(res.devices[0].integrity_reexecutions, 1u);
}

TEST(Integrity, CopyInCorruptionIsRepairedByRetransfer) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kBlock;
  // Transfer op 0 on device 2 is its first chunk copy-in.
  o.fault.scripted.push_back(
      corrupt_script(2, sim::FaultKind::kCorruptTransfer, 0));

  rt::OffloadResult res;
  std::string why;
  ASSERT_TRUE(run_and_verify(rt, c, o, &res, &why)) << why;
  const auto& bad = res.devices[1];
  EXPECT_EQ(bad.corruptions_injected, 1u);
  EXPECT_EQ(bad.integrity_failures, 1u);
  // Repair is a local re-transfer: no chunk changed devices.
  EXPECT_EQ(res.devices[0].integrity_reexecutions, 0u);
  EXPECT_EQ(bad.integrity_reexecutions, 0u);
  const auto det = count_actions(res, rt::RecoveryAction::kCorruptionDetected);
  EXPECT_EQ(det, 1u);
  for (const auto& e : res.recovery_events) {
    if (e.action == rt::RecoveryAction::kCorruptionDetected) {
      EXPECT_NE(e.detail.find("copy-in"), std::string::npos) << e.detail;
    }
  }
}

TEST(Integrity, DisabledIntegrityCommitsCorruptionSilently) {
  // Negative control: with the subsystem off the injected flip reaches
  // the host arrays — proof the detection path is what saves the others.
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kBlock;
  o.integrity.enabled = false;
  o.fault.scripted.push_back(
      corrupt_script(2, sim::FaultKind::kCorruptCompute, 0));

  rt::OffloadResult res;
  std::string why;
  EXPECT_FALSE(run_and_verify(rt, c, o, &res, &why));
  EXPECT_EQ(res.devices[1].corruptions_injected, 1u);
  EXPECT_EQ(res.devices[0].integrity_checks + res.devices[1].integrity_checks,
            0u);
  EXPECT_TRUE(res.recovery_events.empty());
}

TEST(Integrity, RepeatedDisagreementEscalatesToVoting) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kBlock;
  // Device 2 corrupts its own chunk; device 1 corrupts the re-execution
  // (its compute op 1, after its own chunk at op 0). Two integrity
  // failures on one chunk open a vote; the quorum then settles it.
  o.fault.scripted.push_back(
      corrupt_script(2, sim::FaultKind::kCorruptCompute, 0));
  o.fault.scripted.push_back(
      corrupt_script(1, sim::FaultKind::kCorruptCompute, 1));

  rt::OffloadResult res;
  std::string why;
  ASSERT_TRUE(run_and_verify(rt, c, o, &res, &why)) << why;
  EXPECT_EQ(res.total_iterations(), 1000);
  EXPECT_EQ(count_actions(res, rt::RecoveryAction::kVoteOpened), 1u);
  EXPECT_EQ(count_actions(res, rt::RecoveryAction::kVoteCommitted), 1u);
  std::size_t votes = 0;
  for (const auto& d : res.devices) votes += d.vote_rounds;
  EXPECT_GE(votes, 2u) << "a 2-quorum needs at least two ballots";
}

TEST(Integrity, PersistentCorruptionExhaustsAttemptsAndThrows) {
  rt::Runtime rt{mach::testing_machine(4)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  c.init();
  rt::OffloadOptions o;
  o.device_ids = {1, 2, 3, 4};
  o.sched.kind = sched::AlgorithmKind::kBlock;
  // Device 1's chunk corrupts on every execution, wherever it runs: every
  // compute of device 1 and every re-execution on the others (their
  // compute op 1 onwards) is flipped. Spread over four devices the
  // failures stay below the breaker's threshold, so the attempt cap must
  // end the offload.
  for (long long op = 0; op < rt::kMaxAttempts; ++op) {
    for (int dev = 1; dev <= 4; ++dev) {
      if (op == 0 && dev != 1) continue;  // their own chunks are clean
      o.fault.scripted.push_back(
          corrupt_script(dev, sim::FaultKind::kCorruptCompute, op));
    }
  }
  auto maps = c.maps();
  auto kernel = c.kernel();
  try {
    rt.offload(kernel, maps, o);
    FAIL() << "expected OffloadError";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.fail_class(), FailClass::kMaxAttempts) << e.what();
  }
}

TEST(Integrity, RepeatedFailuresTripTheCircuitBreaker) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  // Three distinct chunks on device 2 fail verification: the flaky-DMA
  // breaker (threshold 3) quarantines it; the survivor finishes.
  for (long long op = 0; op < 3; ++op) {
    o.fault.scripted.push_back(
        corrupt_script(2, sim::FaultKind::kCorruptCompute, op));
  }

  rt::OffloadResult res;
  std::string why;
  ASSERT_TRUE(run_and_verify(rt, c, o, &res, &why)) << why;
  EXPECT_TRUE(res.degraded);
  EXPECT_GE(res.devices[1].quarantine_count, 1u);
  EXPECT_EQ(res.devices[1].integrity_failures, 3u);
  EXPECT_EQ(res.total_iterations(), 1000);
}

TEST(Integrity, AlwaysVerifiedFaultFreeRunIsCleanAndCharged) {
  auto run_once = [](bool always) {
    rt::Runtime rt{mach::testing_machine(2)};
    kern::AxpyCase c(1000, /*materialize=*/true);
    c.init();
    rt::OffloadOptions o;
    o.device_ids = {1, 2};
    o.sched.kind = sched::AlgorithmKind::kBlock;
    o.integrity.always = always;
    auto maps = c.maps();
    auto kernel = c.kernel();
    auto res = rt.offload(kernel, maps, o);
    std::string why;
    EXPECT_TRUE(c.verify(&why)) << why;
    return res;
  };
  const auto plain = run_once(false);
  const auto verified = run_once(true);
  std::size_t checks = 0, failures = 0;
  for (const auto& d : verified.devices) {
    checks += d.integrity_checks;
    failures += d.integrity_failures;
  }
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(failures, 0u);
  std::size_t plain_checks = 0;
  for (const auto& d : plain.devices) plain_checks += d.integrity_checks;
  EXPECT_EQ(plain_checks, 0u);
  // Verification reads every payload once more: it costs virtual time.
  EXPECT_GT(verified.total_time, plain.total_time);
}

TEST(Integrity, CorruptionRecoveryIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    // Four devices and a heavy kernel: the devices the breaker
    // quarantines are re-admitted before the last survivor falls too.
    rt::Runtime rt{mach::testing_machine(4)};
    kern::AxpyCase c(2000, /*materialize=*/true);
    c.init();
    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3, 4};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    o.fault.seed = seed;
    o.fault.extra.corrupt_transfer_rate = 0.10;
    o.fault.extra.corrupt_compute_rate = 0.10;
    auto maps = c.maps();
    auto kernel = heavier(c.kernel(), kHeavy);
    auto res = rt.offload(kernel, maps, o);
    std::string why;
    EXPECT_TRUE(c.verify(&why)) << why;
    return res;
  };
  const auto a = run_once(123);
  const auto b = run_once(123);
  EXPECT_EQ(a.total_time, b.total_time);
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  ASSERT_EQ(a.recovery_events.size(), b.recovery_events.size());
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].corruptions_injected,
              b.devices[i].corruptions_injected);
    EXPECT_EQ(a.devices[i].integrity_checks, b.devices[i].integrity_checks);
    EXPECT_EQ(a.devices[i].integrity_failures,
              b.devices[i].integrity_failures);
    EXPECT_EQ(a.devices[i].integrity_reexecutions,
              b.devices[i].integrity_reexecutions);
    EXPECT_EQ(a.devices[i].iterations, b.devices[i].iterations);
  }
}

class IntegrityAllKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(IntegrityAllKernels, BitExactUnderRandomCorruption) {
  const std::string name = GetParam();
  const sched::AlgorithmKind algorithms[] = {
      sched::AlgorithmKind::kBlock,
      sched::AlgorithmKind::kDynamic,
      sched::AlgorithmKind::kModel2Auto,
  };
  for (auto alg : algorithms) {
    // At 5% rates the breaker quarantines the chattier kernels' devices;
    // four devices and a heavy kernel let probation re-admit them before
    // the offload runs out of survivors.
    rt::Runtime rt{mach::testing_machine(4)};
    auto c = kern::make_case(name, integrity_size(name), /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3, 4};
    o.sched.kind = alg;
    o.fault.extra.corrupt_transfer_rate = 0.05;
    o.fault.extra.corrupt_compute_rate = 0.05;

    rt::OffloadResult res;
    std::string why;
    ASSERT_TRUE(run_and_verify(rt, *c, o, &res, &why, kHeavy))
        << name << "/" << sched::to_string(alg) << ": " << why;
    EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size());
    // Every caught mismatch must have left a detection event behind.
    std::size_t failures = 0, checks = 0;
    for (const auto& d : res.devices) {
      failures += d.integrity_failures;
      checks += d.integrity_checks;
    }
    EXPECT_GT(checks, 0u) << name;
    EXPECT_GE(count_actions(res, rt::RecoveryAction::kCorruptionDetected),
              failures > 0 ? 1u : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, IntegrityAllKernels,
                         ::testing::ValuesIn(kern::all_kernel_names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

}  // namespace
}  // namespace homp
