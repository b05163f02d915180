// One execution context per owner: a Runtime and a DataRegion each keep
// one context and reset it before every offload, so an offload on a used
// owner must equal, field by field, the same offload on a fresh one. A
// clock that did not restart would move total_time's low bits; a seq that
// did not would move engine_events; a link that kept state would move a
// device's finish time.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.h"
#include "kernels/case.h"
#include "machine/profiles.h"
#include "memory/host_array.h"
#include "runtime/offload_exec.h"
#include "runtime/runtime.h"
#include "sched/algorithm.h"

namespace homp {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const rt::OffloadResult& used, const rt::OffloadResult& fresh,
                 const std::string& what) {
  EXPECT_EQ(bits(used.total_time), bits(fresh.total_time)) << what;
  EXPECT_EQ(used.engine_events, fresh.engine_events) << what;
  EXPECT_EQ(used.chunks_issued, fresh.chunks_issued) << what;
  ASSERT_EQ(used.devices.size(), fresh.devices.size()) << what;
  for (std::size_t s = 0; s < used.devices.size(); ++s) {
    EXPECT_EQ(bits(used.devices[s].finish_time),
              bits(fresh.devices[s].finish_time))
        << what << ", slot " << s;
  }
}

/// Offloads on one Runtime, each checked against a fresh Runtime whose
/// history is a text copy of the used one's at that moment.
class ReusedRuntime {
 public:
  explicit ReusedRuntime(mach::MachineDescriptor machine)
      : machine_(std::move(machine)), used_(machine_) {}

  rt::Runtime& used() { return used_; }

  rt::OffloadResult fresh(const rt::LoopKernel& kernel,
                          const std::vector<mem::MapSpec>& maps,
                          const rt::OffloadOptions& o) const {
    rt::Runtime fresh(machine_);
    fresh.history().merge_text(used_.history().to_text());
    return fresh.offload(kernel, maps, o);
  }

  void check(const rt::LoopKernel& kernel,
             const std::vector<mem::MapSpec>& maps,
             const rt::OffloadOptions& o, const std::string& what) {
    const rt::OffloadResult want = fresh(kernel, maps, o);
    expect_same(used_.offload(kernel, maps, o), want, what);
  }

 private:
  mach::MachineDescriptor machine_;
  rt::Runtime used_;
};

TEST(ContextReuse, EveryAlgorithmMatchesAFreshRuntime) {
  ReusedRuntime r(mach::builtin("full"));
  auto c = kern::make_case("matvec", 2048, /*materialize=*/false);
  const auto kernel = c->kernel();
  const auto maps = c->maps();
  const sched::AlgorithmKind* every = sched::every_algorithm();
  // Twice over, so HISTORY_AUTO and the watchdog also read a history the
  // first round wrote.
  for (int round = 0; round < 2; ++round) {
    for (int a = 0; a < sched::kNumEveryAlgorithm; ++a) {
      rt::OffloadOptions o;
      o.device_ids = r.used().all_devices();
      o.sched.kind = every[a];
      o.execute_bodies = false;
      o.noise_seed = 7 + static_cast<std::uint64_t>(a);
      r.check(kernel, maps, o,
              std::string(sched::to_string(every[a])) + " round " +
                  std::to_string(round));
    }
  }
}

TEST(ContextReuse, CutoffAndFaultedOffloadsMatchAFreshRuntime) {
  ReusedRuntime r(mach::builtin("full"));
  auto c = kern::make_case("axpy", 1 << 16, /*materialize=*/false);
  const auto kernel = c->kernel();
  const auto maps = c->maps();

  rt::OffloadOptions cut;
  cut.device_ids = r.used().all_devices();
  cut.sched.kind = sched::AlgorithmKind::kModel2Auto;
  cut.sched.cutoff_ratio = 0.15;
  cut.execute_bodies = false;
  const rt::OffloadResult c0 = r.fresh(kernel, maps, cut);
  ASSERT_TRUE(c0.has_cutoff);
  EXPECT_NE(std::count(c0.cutoff.selected.begin(), c0.cutoff.selected.end(),
                       false),
            0);  // the cutoff did drop a device
  r.check(kernel, maps, cut, "MODEL_2_AUTO with CUTOFF 15%");

  rt::OffloadOptions faulted;
  faulted.device_ids = r.used().all_devices();
  faulted.sched.kind = sched::AlgorithmKind::kDynamic;
  faulted.execute_bodies = false;
  faulted.fault.extra.transfer_fault_rate = 0.2;
  faulted.fault.extra.launch_fault_rate = 0.1;
  faulted.fault.extra.slowdown_rate = 0.2;
  const rt::OffloadResult f = r.fresh(kernel, maps, faulted);
  EXPECT_FALSE(f.fault_events.empty());  // the faults did strike
  r.check(kernel, maps, faulted, "faulted SCHED_DYNAMIC");
  r.check(kernel, maps, cut, "CUTOFF after the faulted offload");
}

TEST(ContextReuse, AnOffloadAfterAThrowingBodyMatchesAFreshRuntime) {
  // A body throwing anything but the runtime's own errors escapes the
  // engine drain and leaves events and transfers behind; the next offload
  // must not see them.
  ReusedRuntime r(mach::builtin("gpu4"));
  auto c = kern::make_case("axpy", 1 << 16, /*materialize=*/true);
  auto kernel = c->kernel();
  const auto maps = c->maps();
  const auto body = kernel.body;
  rt::OffloadOptions o;
  o.device_ids = r.used().accelerators();
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.execute_bodies = true;
  for (int throw_at = 1; throw_at <= 8; ++throw_at) {
    int calls = 0;
    kernel.body = [&](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      if (++calls == throw_at) throw std::runtime_error("body failed");
      return body(chunk, env);
    };
    EXPECT_THROW(r.used().offload(kernel, maps, o), std::runtime_error);
    kernel.body = body;
    r.check(kernel, maps, o,
            "after a body threw at call " + std::to_string(throw_at));
  }
}

TEST(ContextReuse, AnExecutionThatFailsValidationHoldsNoGeneration) {
  // The generation table is bounded by live owners only if an execution
  // whose constructor throws takes no tag with it.
  const auto machine = mach::builtin("gpu4");
  rt::ExecContext ctx(machine);
  auto c = kern::make_case("axpy", 1 << 10, /*materialize=*/false);
  const auto kernel = c->kernel();
  const auto maps = c->maps();
  rt::OffloadOptions bad;
  bad.device_ids = {1, 1};  // listed twice
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(rt::OffloadExecution(ctx, machine, kernel, maps, bad),
                 ConfigError);
  }
  EXPECT_EQ(ctx.engine.generation_slots(), 0u);
}

/// A region over `a`, aligned to the loop `label` on every device.
std::unique_ptr<rt::DataRegion> open_region(const rt::Runtime& runtime,
                                            mem::HostArray<double>& a) {
  const std::string label = "L";
  mem::MapSpec s;
  s.name = "a";
  s.dir = mem::MapDirection::kToFrom;
  s.binding = mem::bind_array(a);
  s.region = a.region();
  s.partition.assign(a.rank(), dist::DimPolicy::full());
  s.partition[0] = dist::DimPolicy::align(label);
  rt::RegionOptions ro;
  ro.device_ids = runtime.all_devices();
  ro.loop_label = label;
  ro.loop_domain = a.region().dim(0);
  ro.execute_bodies = false;
  return runtime.map_data({s}, ro);
}

TEST(ContextReuse, TwoOffloadsInOneRegionMatchTwoFreshRegions) {
  const rt::Runtime runtime = rt::Runtime::from_builtin("gpu4");
  constexpr long long kN = 4096;
  auto a = mem::HostArray<double>::vector(kN, 1.0);
  const auto open = [&] { return open_region(runtime, a); };
  rt::LoopKernel k;
  k.name = "scale";
  k.iterations = dist::Range::of_size(kN);
  k.cost.flops_per_iter = 2.0;
  k.cost.mem_bytes_per_iter = 16.0;

  auto region = open();
  const rt::OffloadResult first = region->offload(k);
  const rt::OffloadResult second = region->offload(k, /*parallel=*/false);
  expect_same(first, open()->offload(k), "first region offload");
  expect_same(second, open()->offload(k, false), "second region offload");
}

}  // namespace
}  // namespace homp
