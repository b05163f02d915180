// Failure injection: misconfigured offloads must fail loudly with
// ConfigError/ExecutionError, never silently compute wrong schedules —
// and mid-flight faults (transient transfer/launch failures, permanent
// device loss) must be recovered bit-correctly (docs/RESILIENCE.md).

#include <gtest/gtest.h>

#include "kernels/axpy.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "machine/profiles.h"
#include "runtime/resilience.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

rt::LoopKernel trivial_kernel(long long n) {
  rt::LoopKernel k;
  k.name = "trivial";
  k.iterations = dist::Range::of_size(n);
  k.cost.flops_per_iter = 1.0;
  k.cost.mem_bytes_per_iter = 8.0;
  k.body = [](const dist::Range&, mem::DeviceDataEnv&) { return 0.0; };
  return k;
}

TEST(OffloadFailures, RejectsEmptyDeviceList) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(100, true);
  rt::OffloadOptions o;  // no devices
  auto maps = c.maps();
  auto kernel = c.kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, RejectsOutOfRangeDevice) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(100, true);
  rt::OffloadOptions o;
  o.device_ids = {0, 9};
  auto maps = c.maps();
  auto kernel = c.kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, RejectsDuplicateDevice) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(100, true);
  rt::OffloadOptions o;
  o.device_ids = {1, 1};
  auto maps = c.maps();
  auto kernel = c.kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, RejectsEmptyLoop) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(100, true);
  rt::OffloadOptions o;
  o.device_ids = {0};
  auto maps = c.maps();
  auto kernel = c.kernel();
  kernel.iterations = dist::Range(5, 5);
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, RejectsReplicatedOutputOnMultipleDevices) {
  rt::Runtime rt{mach::testing_machine(1)};
  auto a = mem::HostArray<double>::vector(64, 0.0);
  mem::MapSpec s;
  s.name = "a";
  s.dir = mem::MapDirection::kToFrom;
  s.binding = mem::bind_array(a);
  s.region = a.region();  // FULL (no partition)
  std::vector<mem::MapSpec> maps{s};
  rt::OffloadOptions o;
  o.device_ids = {0, 1};
  auto kernel = trivial_kernel(64);
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, RejectsPinnedArrayWithDynamicScheduler) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(128, true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;  // loop roams, data pinned
  auto maps = c.maps_v1_block();
  auto kernel = c.kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, RejectsAlignmentCycle) {
  rt::Runtime rt{mach::testing_machine(1)};
  auto a = mem::HostArray<double>::vector(32, 0.0);
  auto b = mem::HostArray<double>::vector(32, 0.0);
  mem::MapSpec sa, sb;
  sa.name = "a";
  sa.dir = mem::MapDirection::kTo;
  sa.binding = mem::bind_array(a);
  sa.region = a.region();
  sa.partition = {dist::DimPolicy::align("b")};
  sb = sa;
  sb.name = "b";
  sb.binding = mem::bind_array(b);
  sb.partition = {dist::DimPolicy::align("a")};
  std::vector<mem::MapSpec> maps{sa, sb};
  rt::OffloadOptions o;
  o.device_ids = {0, 1};
  auto kernel = trivial_kernel(32);
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, RejectsDanglingAlignTarget) {
  rt::Runtime rt{mach::testing_machine(1)};
  auto a = mem::HostArray<double>::vector(32, 0.0);
  mem::MapSpec s;
  s.name = "a";
  s.dir = mem::MapDirection::kTo;
  s.binding = mem::bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("nonexistent")};
  std::vector<mem::MapSpec> maps{s};
  rt::OffloadOptions o;
  o.device_ids = {0};
  auto kernel = trivial_kernel(32);
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, KernelEscapingFootprintThrowsExecutionError) {
  // A body reading outside its chunk's aligned footprint means the
  // distribution mapped too little data — must be a hard error.
  rt::Runtime rt{mach::testing_machine(2)};
  auto a = mem::HostArray<double>::vector(64, 1.0);
  mem::MapSpec s;
  s.name = "a";
  s.dir = mem::MapDirection::kTo;
  s.binding = mem::bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("loop")};
  std::vector<mem::MapSpec> maps{s};

  rt::LoopKernel k = trivial_kernel(64);
  k.body = [](const dist::Range& chunk, mem::DeviceDataEnv& env) {
    auto v = env.view<double>("a");
    return v((chunk.hi + 5) % 64);  // out of the chunk's slice
  };
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  EXPECT_THROW(rt.offload(k, maps, o), ExecutionError);
}

TEST(OffloadFailures, ExecuteBodiesWithoutBodyIsRejected) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(100, /*materialize=*/false);  // no body
  rt::OffloadOptions o;
  o.device_ids = {0};
  o.execute_bodies = true;
  auto maps = c.maps();
  auto kernel = c.kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

TEST(OffloadFailures, MoreDevicesThanIterationsStillCompletes) {
  rt::Runtime rt{mach::testing_machine(6)};
  kern::AxpyCase c(3, /*materialize=*/true);  // 3 iterations, 7 devices
  rt::OffloadOptions o;
  o.device_ids = rt.all_devices();
  o.sched.kind = sched::AlgorithmKind::kBlock;
  auto maps = c.maps();
  auto kernel = c.kernel();
  auto res = rt.offload(kernel, maps, o);
  EXPECT_EQ(res.total_iterations(), 3);
  std::string why;
  EXPECT_TRUE(c.verify(&why)) << why;
}

// ---------------------------------------------------------------------
// Mid-flight fault recovery.

long long fault_size(const std::string& name) {
  if (name == "axpy") return 1000;
  if (name == "matvec") return 64;
  if (name == "matmul") return 48;
  if (name == "stencil2d") return 40;
  if (name == "sum") return 2000;
  if (name == "bm2d") return 64;
  ADD_FAILURE() << "unknown kernel " << name;
  return 16;
}

bool run_and_verify(rt::Runtime& rt, kern::KernelCase& c,
                    const rt::OffloadOptions& o, rt::OffloadResult* out,
                    std::string* why) {
  c.init();
  auto maps = c.maps();
  auto kernel = c.kernel();
  *out = rt.offload(kernel, maps, o);
  if (auto* sum = dynamic_cast<kern::SumCase*>(&c)) {
    sum->set_result(out->reduction);
  }
  return c.verify(why);
}

const sched::AlgorithmKind kRecoveryAlgorithms[] = {
    sched::AlgorithmKind::kBlock,
    sched::AlgorithmKind::kDynamic,
    sched::AlgorithmKind::kModel2Auto,
};

class FaultRecovery : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultRecovery, TransientFaultsAreRetriedBitCorrectly) {
  const std::string name = GetParam();
  for (auto alg : kRecoveryAlgorithms) {
    rt::Runtime rt{mach::testing_machine(3)};
    auto c = kern::make_case(name, fault_size(name), /*materialize=*/true);

    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = alg;
    o.fault.extra.transfer_fault_rate = 0.15;
    o.fault.extra.launch_fault_rate = 0.10;
    o.fault.extra.slowdown_rate = 0.10;

    rt::OffloadResult res;
    std::string why;
    ASSERT_TRUE(run_and_verify(rt, *c, o, &res, &why))
        << name << "/" << sched::to_string(alg) << ": " << why;
    EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size());
    EXPECT_FALSE(res.fault_events.empty())
        << name << ": rates this high must inject something";
    std::size_t faults = 0, retries = 0;
    for (const auto& d : res.devices) {
      faults += d.faults;
      retries += d.retries;
    }
    // Every counted fault has an event; a retry-budget quarantine adds
    // one extra (fatal) event on top.
    EXPECT_GE(res.fault_events.size(), faults);
    EXPECT_GT(retries, 0u) << name;
  }
}

TEST_P(FaultRecovery, PermanentLossIsRedistributedBitCorrectly) {
  const std::string name = GetParam();
  for (auto alg : kRecoveryAlgorithms) {
    rt::Runtime rt{mach::testing_machine(3)};
    auto c = kern::make_case(name, fault_size(name), /*materialize=*/true);

    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = alg;
    sim::ScriptedFault loss;
    loss.device_id = 2;
    loss.kind = sim::FaultKind::kDeviceLoss;
    loss.at_s = 2e-6;  // mid-flight for these problem sizes
    o.fault.scripted.push_back(loss);

    rt::OffloadResult res;
    std::string why;
    ASSERT_TRUE(run_and_verify(rt, *c, o, &res, &why))
        << name << "/" << sched::to_string(alg) << ": " << why;
    // Every iteration is accounted for exactly once across the survivors
    // and whatever the lost device committed before dying.
    EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size());
    ASSERT_EQ(res.fault_events.size(), 1u) << name;
    EXPECT_EQ(res.fault_events[0].kind, sim::FaultKind::kDeviceLoss);
    EXPECT_TRUE(res.fault_events[0].fatal);
    EXPECT_EQ(res.fault_events[0].device_id, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, FaultRecovery,
                         ::testing::ValuesIn(kern::all_kernel_names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

TEST(FaultRecovery, EarlyLossQuarantinesAndRedistributesEverything) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(2000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kBlock;
  sim::ScriptedFault loss;
  loss.device_id = 2;
  loss.kind = sim::FaultKind::kDeviceLoss;
  loss.at_s = 1e-7;  // before anything can complete
  o.fault.scripted.push_back(loss);

  auto maps = c.maps();
  auto kernel = c.kernel();
  auto res = rt.offload(kernel, maps, o);

  std::string why;
  EXPECT_TRUE(c.verify(&why)) << why;
  EXPECT_TRUE(res.degraded);
  ASSERT_EQ(res.devices.size(), 2u);
  const auto& lost = res.devices[1];  // slot order follows device_ids
  const auto& survivor = res.devices[0];
  EXPECT_TRUE(lost.quarantined);
  EXPECT_DOUBLE_EQ(lost.quarantined_at, 1e-7);
  EXPECT_EQ(lost.iterations, 0);  // nothing committed before the loss
  EXPECT_GT(lost.requeued_iterations, 0);
  EXPECT_FALSE(survivor.quarantined);
  EXPECT_EQ(survivor.iterations, 2000);
  // The survivor's BLOCK partition was 1000; the rest reached it through
  // the dynamic requeue fallback.
  EXPECT_GT(res.chunks_issued, 1);
}

TEST(FaultRecovery, RetryBudgetHoldsExactlyMaxRetries) {
  // Attempts 1..failures (ops 0..failures-1) of device 2's first transfer
  // fail: kMaxRetries of them are retried and recover, one more exhausts
  // the budget and quarantines the device.
  auto run_once = [](long long failures) {
    rt::Runtime rt{mach::testing_machine(2)};
    kern::AxpyCase c(1000, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2};
    o.sched.kind = sched::AlgorithmKind::kBlock;
    for (long long op = 0; op < failures; ++op) {
      sim::ScriptedFault f;
      f.device_id = 2;
      f.kind = sim::FaultKind::kTransfer;
      f.op = op;
      o.fault.scripted.push_back(f);
    }
    auto maps = c.maps();
    auto kernel = c.kernel();
    auto res = rt.offload(kernel, maps, o);
    std::string why;
    EXPECT_TRUE(c.verify(&why)) << why;
    return res;
  };
  const auto n = static_cast<std::size_t>(rt::kMaxRetries);

  const auto recovered = run_once(rt::kMaxRetries);
  const auto& retried = recovered.devices[1];
  EXPECT_FALSE(recovered.degraded);
  EXPECT_FALSE(retried.quarantined);
  EXPECT_EQ(retried.retries, n);
  EXPECT_EQ(retried.faults, n);
  EXPECT_EQ(retried.iterations, 500);
  ASSERT_EQ(recovered.fault_events.size(), n);
  for (const auto& e : recovered.fault_events) EXPECT_FALSE(e.fatal);

  const auto exhausted = run_once(rt::kMaxRetries + 1);
  const auto& lost = exhausted.devices[1];
  EXPECT_TRUE(exhausted.degraded);
  EXPECT_TRUE(lost.quarantined);
  EXPECT_EQ(lost.retries, n);
  EXPECT_EQ(lost.faults, n + 1);
  EXPECT_EQ(lost.iterations, 0);
  EXPECT_EQ(exhausted.devices[0].iterations, 1000);
  // The fatal quarantine event trails the n + 1 transient ones.
  ASSERT_EQ(exhausted.fault_events.size(), n + 2);
  EXPECT_TRUE(exhausted.fault_events.back().fatal);
}

TEST(FaultRecovery, AllDevicesLostThrowsExecutionError) {
  rt::Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(1000, /*materialize=*/true);

  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.fault.extra.fail_at_s = 1e-7;  // every device dies almost immediately

  auto maps = c.maps();
  auto kernel = c.kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), ExecutionError);
}

/// Host, a `fast` accelerator whose first allocation takes 200 us (100 us
/// for each of axpy's two maps) and a `slow` one, both discrete on one
/// link. MODEL_1_AUTO gives every iteration of a small loop to `fast`;
/// `slow` gets none and finishes at once.
mach::MachineDescriptor alloc_window_machine() {
  auto m = mach::testing_machine(2, /*shared_link=*/true);
  m.devices[1].name = "fast";
  m.devices[1].peak_gflops = m.devices[1].sustained_gflops = 10000.0;
  m.devices[1].alloc_overhead_s = 100e-6;
  m.devices[2].name = "slow";
  m.devices[2].peak_gflops = m.devices[2].sustained_gflops = 1.0;
  return m;
}

rt::OffloadOptions alloc_window_options(double fail_at_s) {
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kModel1Auto;
  o.fault.extra.fail_at_s = fail_at_s;
  return o;
}

TEST(FaultRecovery, LossInsideTheAllocWindowRequeuesTheFetchedChunk) {
  // Both devices die at 5 us, while `fast` still pays the allocation for
  // the chunk it fetched. Its quarantine requeues that chunk, which
  // revives `slow`, and `slow`'s own loss then leaves no device: a clean
  // all-devices-lost error. A chunk held only by its delay event was
  // invisible to quarantine: the offload finished with none of its 8
  // iterations covered and aborted.
  rt::Runtime rt{alloc_window_machine()};
  kern::AxpyCase c(8, /*materialize=*/true);
  auto maps = c.maps();
  auto kernel = c.kernel();
  try {
    rt.offload(kernel, maps, alloc_window_options(5e-6));
    ADD_FAILURE() << "expected an OffloadError";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.fail_class(), FailClass::kAllDevicesLost) << e.what();
  }
}

TEST(FaultRecovery, TimersEndWithTheOffload) {
  // The offload ends at 0.2 ms. Completion revokes its timers, the device
  // losses scheduled for t = 1 s among them, so no fault is reported and
  // the engine events stop at the completion decision. Left armed, the
  // losses reported two "device lost after completing its share" faults
  // at t = 1 s and the offload counted 15 events instead of 11.
  rt::Runtime rt{alloc_window_machine()};
  kern::AxpyCase c(8, /*materialize=*/true);
  auto maps = c.maps();
  auto kernel = c.kernel();
  const auto res = rt.offload(kernel, maps, alloc_window_options(1.0));
  std::string why;
  EXPECT_TRUE(c.verify(&why)) << why;
  EXPECT_NEAR(res.total_time, 0.2e-3, 0.01e-3);
  EXPECT_TRUE(res.fault_events.empty());
  EXPECT_EQ(res.engine_events, 11u);
}

TEST(FaultRecovery, IdenticalSeedAndPlanGiveIdenticalResults) {
  auto run_once = [](std::uint64_t seed) {
    rt::Runtime rt{mach::testing_machine(3)};
    kern::AxpyCase c(2000, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2, 3};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    o.fault.seed = seed;
    o.fault.extra.transfer_fault_rate = 0.10;
    o.fault.extra.launch_fault_rate = 0.05;
    auto maps = c.maps();
    auto kernel = c.kernel();
    return rt.offload(kernel, maps, o);
  };

  const auto a = run_once(123);
  const auto b = run_once(123);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.degraded, b.degraded);
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  for (std::size_t i = 0; i < a.fault_events.size(); ++i) {
    EXPECT_EQ(a.fault_events[i].time, b.fault_events[i].time);
    EXPECT_EQ(a.fault_events[i].device_id, b.fault_events[i].device_id);
    EXPECT_EQ(a.fault_events[i].kind, b.fault_events[i].kind);
  }
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].iterations, b.devices[i].iterations);
    EXPECT_EQ(a.devices[i].faults, b.devices[i].faults);
    EXPECT_EQ(a.devices[i].retries, b.devices[i].retries);
    EXPECT_EQ(a.devices[i].bytes_in, b.devices[i].bytes_in);
    EXPECT_EQ(a.devices[i].bytes_out, b.devices[i].bytes_out);
  }

  // A different seed draws a different fault trajectory (with these rates
  // the chance of an identical event sequence is negligible).
  const auto d = run_once(456);
  EXPECT_FALSE(a.fault_events.size() == d.fault_events.size() &&
               a.total_time == d.total_time);
}

TEST(FaultRecovery, FaultFreeRunMatchesNoFaultMachinery) {
  // A zero-rate fault config must not perturb the simulation at all.
  auto run_once = [](bool with_fault_struct) {
    rt::Runtime rt{mach::testing_machine(2)};
    kern::AxpyCase c(1500, /*materialize=*/true);
    rt::OffloadOptions o;
    o.device_ids = {1, 2};
    o.sched.kind = sched::AlgorithmKind::kDynamic;
    if (with_fault_struct) o.fault.seed = 999;  // differs, but rate 0
    auto maps = c.maps();
    auto kernel = c.kernel();
    return rt.offload(kernel, maps, o);
  };
  const auto a = run_once(false);
  const auto b = run_once(true);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_TRUE(a.fault_events.empty());
  EXPECT_TRUE(b.fault_events.empty());
  EXPECT_FALSE(a.degraded);
}

TEST(FaultRecovery, MachineFileFaultKeysReachTheRuntime) {
  // fault_* keys in the machine description alone (no OffloadOptions
  // fault config) must drive injection.
  auto m = mach::testing_machine(2);
  m.devices[2].fault.fail_at_s = 1e-7;
  rt::Runtime rt{std::move(m)};
  kern::AxpyCase c(1000, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {1, 2};
  auto maps = c.maps();
  auto kernel = c.kernel();
  auto res = rt.offload(kernel, maps, o);
  std::string why;
  EXPECT_TRUE(c.verify(&why)) << why;
  EXPECT_TRUE(res.degraded);
  EXPECT_TRUE(res.devices[1].quarantined);
}

TEST(OffloadFailures, RejectsHaloOnUnpartitionedArray) {
  mem::MapSpec s;
  auto a = mem::HostArray<double>::vector(32, 0.0);
  s.name = "a";
  s.binding = mem::bind_array(a);
  s.region = a.region();
  s.halo_before = 1;
  s.halo_after = 1;
  EXPECT_THROW(s.validate(), ConfigError);
}

}  // namespace
}  // namespace homp
