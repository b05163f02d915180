// DataRegion mechanics: entry distribution, residency, halo exchange and
// close-time write-back.

#include <gtest/gtest.h>

#include "machine/profiles.h"
#include "memory/host_array.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

mem::MapSpec aligned_spec(const char* name, mem::HostArray<double>& a,
                          mem::MapDirection dir, long long halo = 0) {
  mem::MapSpec s;
  s.name = name;
  s.dir = dir;
  s.binding = mem::bind_array(a);
  s.region = a.region();
  s.partition.assign(a.rank(), dist::DimPolicy::full());
  s.partition[0] = dist::DimPolicy::align("L");
  s.halo_before = halo;
  s.halo_after = halo;
  return s;
}

rt::RegionOptions region_opts(const rt::Runtime& rt, long long n) {
  rt::RegionOptions ro;
  ro.device_ids = rt.all_devices();
  ro.loop_label = "L";
  ro.loop_domain = dist::Range::of_size(n);
  return ro;
}

TEST(DataRegion, EntryDistributesAndCopiesIn) {
  rt::Runtime rt{mach::testing_machine(3)};
  constexpr long long kN = 120;
  auto a = mem::HostArray<double>::matrix(kN, 8);
  a.fill_with_indices([](long long i, long long j) {
    return static_cast<double>(i * 100 + j);
  });

  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kTo));
  auto region = rt.map_data(std::move(maps), region_opts(rt, kN));

  EXPECT_GT(region->entry_time(), 0.0);
  EXPECT_EQ(region->loop_distribution().num_parts(), 4u);
  EXPECT_TRUE(region->loop_distribution().is_partition());

  // Device copies hold the right slices: probe an element owned by
  // accelerator slot 2.
  const auto part = region->loop_distribution().part(2);
  ASSERT_FALSE(part.empty());
  auto view = const_cast<mem::DeviceDataEnv&>(region->env(2))
                  .view<double>("a");
  EXPECT_EQ(view(part.lo, 3), static_cast<double>(part.lo * 100 + 3));
}

TEST(DataRegion, OffloadsReuseResidentDataWithoutTransfers) {
  rt::Runtime rt{mach::testing_machine(2)};
  constexpr long long kN = 64;
  auto a = mem::HostArray<double>::vector(kN, 1.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom));
  auto region = rt.map_data(std::move(maps), region_opts(rt, kN));

  rt::LoopKernel k;
  k.name = "inc";
  k.iterations = dist::Range::of_size(kN);
  k.cost.flops_per_iter = 1.0;
  k.cost.mem_bytes_per_iter = 16.0;
  k.body = [](const dist::Range& chunk, mem::DeviceDataEnv& env) {
    auto v = env.view<double>("a");
    for (long long i = chunk.lo; i < chunk.hi; ++i) v(i) += 1.0;
    return 0.0;
  };

  for (int rep = 0; rep < 3; ++rep) {
    auto res = region->offload(k);
    for (const auto& d : res.devices) {
      EXPECT_EQ(d.bytes_in, 0.0);
      EXPECT_EQ(d.bytes_out, 0.0);
    }
  }
  region->close();
  for (long long i = 0; i < kN; ++i) {
    ASSERT_EQ(a(i), 4.0) << "a[" << i << "]";
  }
}

TEST(DataRegion, HaloExchangeRefreshesNeighbourRows) {
  rt::Runtime rt{mach::testing_machine(3)};
  constexpr long long kN = 40;
  auto a = mem::HostArray<double>::matrix(kN, 4);
  a.fill(0.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom, 1));
  auto region = rt.map_data(std::move(maps), region_opts(rt, kN));

  // Each device stamps its owned rows with its slot id...
  rt::LoopKernel stamp;
  stamp.name = "stamp";
  stamp.iterations = dist::Range::of_size(kN);
  stamp.cost.flops_per_iter = 1.0;
  stamp.cost.mem_bytes_per_iter = 32.0;
  stamp.body = [](const dist::Range& chunk, mem::DeviceDataEnv& env) {
    auto v = env.view<double>("a");
    for (long long i = chunk.lo; i < chunk.hi; ++i) {
      for (long long j = 0; j < 4; ++j) v(i, j) = 10.0 + chunk.lo;
    }
    return 0.0;
  };
  region->offload(stamp);
  const double t = region->halo_exchange("a");
  EXPECT_GT(t, 0.0);

  // ...then each device must see its neighbour's stamp in the halo row.
  const auto& d = region->loop_distribution();
  for (std::size_t slot = 0; slot + 1 < d.num_parts(); ++slot) {
    const auto mine = d.part(slot);
    const auto next = d.part(slot + 1);
    if (mine.empty() || next.empty()) continue;
    auto view = const_cast<mem::DeviceDataEnv&>(region->env(slot))
                    .view<double>("a");
    // Row next.lo is slot+1's first owned row, visible in slot's halo.
    EXPECT_EQ(view(next.lo, 0), 10.0 + next.lo)
        << "slot " << slot << " halo row " << next.lo;
  }
}

TEST(DataRegion, ModelBasedEntryDistributionSkewsWork) {
  rt::Runtime rt{mach::builtin("full")};
  constexpr long long kN = 700;
  auto a = mem::HostArray<double>::vector(kN, 0.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kTo));
  auto ro = region_opts(rt, kN);
  ro.dist_algorithm = sched::AlgorithmKind::kModel1Auto;
  ro.cost_hint.flops_per_iter = 100.0;
  ro.cost_hint.mem_bytes_per_iter = 8.0;
  auto region = rt.map_data(std::move(maps), ro);
  const auto& d = region->loop_distribution();
  // GPU slots (1..4) should get more than MIC slots (5..6).
  EXPECT_GT(d.part(1).size(), d.part(5).size());
}

TEST(DataRegion, CloseIsIdempotent) {
  rt::Runtime rt{mach::testing_machine(1)};
  auto a = mem::HostArray<double>::vector(16, 2.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom));
  auto region = rt.map_data(std::move(maps), region_opts(rt, 16));
  EXPECT_GT(region->close(), 0.0);
  EXPECT_EQ(region->close(), 0.0);
}

TEST(DataRegion, RejectsChunkSchedulerEntryDistribution) {
  rt::Runtime rt{mach::testing_machine(1)};
  auto a = mem::HostArray<double>::vector(16, 0.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kTo));
  auto ro = region_opts(rt, 16);
  ro.dist_algorithm = sched::AlgorithmKind::kDynamic;
  EXPECT_THROW(rt.map_data(std::move(maps), ro), ConfigError);
}

TEST(DataRegion, RejectsARepeatedDeviceBeforeEntry) {
  // Checked like an offload's device list, before any device storage is
  // allocated or copied in.
  rt::Runtime rt{mach::testing_machine(2)};
  auto a = mem::HostArray<double>::vector(16, 0.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kTo));
  auto ro = region_opts(rt, 16);
  ro.device_ids = {1, 1};
  try {
    rt.map_data(maps, ro);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("device 1 listed twice"),
              std::string::npos)
        << e.what();
  }
  ro.device_ids = {1, 7};
  EXPECT_THROW(rt.map_data(maps, ro), ConfigError);
  ro.device_ids.clear();
  EXPECT_THROW(rt.map_data(std::move(maps), ro), ConfigError);
}

TEST(DataRegion, VerifiedExitRepairsCorruptedHostCopy) {
  rt::Runtime rt{mach::testing_machine(2)};
  constexpr long long kN = 64;
  auto a = mem::HostArray<double>::vector(kN, 0.0);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom));
  auto ro = region_opts(rt, kN);
  ro.verify_exit = true;
  ro.exit_corrupt_seed = 0x5eed;
  ro.exit_corrupt_slot = 1;  // slot 0 is the shared-memory host
  auto region = rt.map_data(std::move(maps), ro);
  const double clean_exit = [&] {
    // Reference: same region, no corruption hook — for the time bill.
    auto b = mem::HostArray<double>::vector(kN, 0.0);
    std::vector<mem::MapSpec> m2;
    m2.push_back(aligned_spec("b", b, mem::MapDirection::kToFrom));
    auto r2 = region_opts(rt, kN);
    r2.verify_exit = true;
    return rt.map_data(std::move(m2), r2)->close();
  }();
  const double t = region->close();
  EXPECT_EQ(region->exit_retries(), 1);
  // The re-sent payload is charged to the exit bill.
  EXPECT_GT(t, clean_exit);
  for (long long i = 0; i < kN; ++i) {
    ASSERT_EQ(a(i), static_cast<double>(i)) << "a[" << i << "]";
  }
}

TEST(DataRegion, VerifiedExitExhaustionThrows) {
  rt::Runtime rt{mach::testing_machine(2)};
  auto a = mem::HostArray<double>::vector(32, 1.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom));
  auto ro = region_opts(rt, 32);
  ro.verify_exit = true;
  ro.max_exit_retries = 0;  // give up on the first mismatch
  ro.exit_corrupt_seed = 0x5eed;
  ro.exit_corrupt_slot = 1;
  auto region = rt.map_data(std::move(maps), ro);
  EXPECT_THROW(region->close(), ConfigError);
}

TEST(DataRegion, ZeroLengthPartsCloseCleanlyUnderVerification) {
  // More devices than iterations: several slots own empty slices whose
  // commit (and exit checksum) must be a clean no-op.
  rt::Runtime rt{mach::testing_machine(6)};
  constexpr long long kN = 3;
  auto a = mem::HostArray<double>::vector(kN, 7.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom));
  auto ro = region_opts(rt, kN);
  ro.verify_exit = true;
  auto region = rt.map_data(std::move(maps), ro);
  EXPECT_GE(region->close(), 0.0);
  EXPECT_EQ(region->exit_retries(), 0);
  for (long long i = 0; i < kN; ++i) ASSERT_EQ(a(i), 7.0);
}

TEST(DataRegion, OverlappingHaloFootprintsCommitOwnedRegionsOnly) {
  // With halo=1 each device also holds (stale) copies of its neighbours'
  // boundary rows; close() must write back only the owned rows, so the
  // stale halo copies can never clobber a neighbour's committed result.
  rt::Runtime rt{mach::testing_machine(3)};
  constexpr long long kN = 30;
  auto a = mem::HostArray<double>::matrix(kN, 4);
  a.fill(0.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom, 1));
  auto ro = region_opts(rt, kN);
  ro.verify_exit = true;
  auto region = rt.map_data(std::move(maps), ro);

  rt::LoopKernel stamp;
  stamp.name = "stamp";
  stamp.iterations = dist::Range::of_size(kN);
  stamp.cost.flops_per_iter = 1.0;
  stamp.cost.mem_bytes_per_iter = 32.0;
  stamp.body = [](const dist::Range& chunk, mem::DeviceDataEnv& env) {
    auto v = env.view<double>("a");
    for (long long i = chunk.lo; i < chunk.hi; ++i) {
      for (long long j = 0; j < 4; ++j) v(i, j) = 100.0 + i;
    }
    return 0.0;
  };
  region->offload(stamp);
  // No halo_exchange: every halo row is stale on purpose.
  region->close();
  EXPECT_EQ(region->exit_retries(), 0);
  for (long long i = 0; i < kN; ++i) {
    for (long long j = 0; j < 4; ++j) {
      ASSERT_EQ(a(i, j), 100.0 + i) << "a(" << i << "," << j << ")";
    }
  }
}

TEST(DataRegion, ArrayAlignedToABlockArrayTakesItsParts) {
  // b's ALIGN chain roots at the BLOCK array a, not at the region's label,
  // so b takes a's parts, as a pinned array of a plain offload does. The
  // label's loop covers only half the rows, so its parts differ from a's.
  rt::Runtime rt{mach::testing_machine(3)};
  constexpr long long kN = 50;
  auto a = mem::HostArray<double>::vector(kN, 0.0);
  auto b = mem::HostArray<double>::vector(kN, 0.0);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  b.fill_with_index([](long long i) { return 1000.0 + i; });
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom));
  maps.back().partition[0] = dist::DimPolicy::block();
  maps.push_back(aligned_spec("b", b, mem::MapDirection::kToFrom));
  maps.back().partition[0] = dist::DimPolicy::align("a");
  auto ro = region_opts(rt, kN / 2);
  ro.verify_exit = true;
  auto region = rt.map_data(std::move(maps), ro);

  const auto parts =
      dist::Distribution::block(dist::Range::of_size(kN), 4).parts();
  for (std::size_t slot = 0; slot < parts.size(); ++slot) {
    const auto& env = region->env(slot);
    EXPECT_EQ(env.mapping("a").owned().dim(0), parts[slot]);
    EXPECT_EQ(env.mapping("b").owned().dim(0), parts[slot]);
    // Each device bumps the rows of b it owns.
    auto v = env.view<double>("b");
    for (long long i = parts[slot].lo; i < parts[slot].hi; ++i) v(i) += 1.0;
  }
  region->close();
  EXPECT_EQ(region->exit_retries(), 0);
  for (long long i = 0; i < kN; ++i) {
    ASSERT_EQ(a(i), static_cast<double>(i)) << "a[" << i << "]";
    ASSERT_EQ(b(i), 1001.0 + i) << "b[" << i << "]";
  }
}

TEST(DataRegion, UseAfterCloseThrows) {
  rt::Runtime rt{mach::testing_machine(2)};
  constexpr long long kN = 16;
  auto a = mem::HostArray<double>::vector(kN, 1.0);
  std::vector<mem::MapSpec> maps;
  maps.push_back(aligned_spec("a", a, mem::MapDirection::kToFrom, 1));
  auto region = rt.map_data(std::move(maps), region_opts(rt, kN));
  region->close();

  rt::LoopKernel k;
  k.name = "noop";
  k.iterations = dist::Range::of_size(kN);
  k.cost.flops_per_iter = 1.0;
  k.cost.mem_bytes_per_iter = 8.0;
  k.body = [](const dist::Range&, mem::DeviceDataEnv&) { return 0.0; };
  EXPECT_THROW(region->offload(k), ConfigError);
  EXPECT_THROW(region->halo_exchange("a"), ConfigError);
}

}  // namespace
}  // namespace homp
