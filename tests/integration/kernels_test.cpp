// End-to-end correctness: every kernel offloaded across a small simulated
// machine must produce results identical to its sequential reference —
// the data path (distribution, alignment, halo, copies) is real even
// though time is virtual.

#include <gtest/gtest.h>

#include <cstring>

#include "kernels/bm2d.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

long long small_size(const std::string& name) {
  if (name == "axpy") return 1000;
  if (name == "matvec") return 64;
  if (name == "matmul") return 48;
  if (name == "stencil2d") return 40;
  if (name == "sum") return 2000;
  if (name == "bm2d") return 64;  // 4x4 blocks
  ADD_FAILURE() << "unknown kernel " << name;
  return 16;
}

std::size_t elements(const mem::ArrayBinding& b) {
  std::size_t n = 1;
  for (long long e : b.shape) n *= static_cast<std::size_t>(e);
  return n;
}

/// The case's one output map (`from` or `tofrom`).
const mem::MapSpec& output_map(const std::vector<mem::MapSpec>& maps) {
  for (const auto& m : maps) {
    if (m.dir == mem::MapDirection::kFrom ||
        m.dir == mem::MapDirection::kToFrom) {
      return m;
    }
  }
  ADD_FAILURE() << "no output map";
  return maps.front();
}

class KernelCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelCorrectness, MatchesSequentialReferenceOnBlockSchedule) {
  const std::string name = GetParam();
  auto rt = rt::Runtime::from_builtin("gpu4");
  auto c = kern::make_case(name, small_size(name), /*materialize=*/true);
  c->init();

  rt::OffloadOptions o;
  o.device_ids = rt.all_devices();
  o.sched.kind = sched::AlgorithmKind::kBlock;
  auto maps = c->maps();
  auto kernel = c->kernel();
  auto res = rt.offload(kernel, maps, o);

  if (name == "sum") {
    dynamic_cast<kern::SumCase&>(*c).set_result(res.reduction);
  }
  std::string why;
  EXPECT_TRUE(c->verify(&why)) << why;
  EXPECT_GT(res.total_time, 0.0);
  EXPECT_EQ(res.total_iterations(), c->kernel().iterations.size());

  // The reference depends only on the kernel and its size: a table from a
  // second fresh case checks this one, as the fuzz oracle relies on.
  const auto expect =
      kern::make_case(name, small_size(name), /*materialize=*/true)
          ->expected();
  EXPECT_TRUE(c->matches(expect, &why)) << why;

  // One wrong output element fails the precomputed path and verify()
  // alike, with the same description.
  if (name == "sum") {
    dynamic_cast<kern::SumCase&>(*c).set_result(res.reduction + 1.0);
  } else {
    const auto& out = output_map(maps).binding;
    static_cast<double*>(out.base)[elements(out) / 2] += 1.0;
  }
  std::string why_table;
  std::string why_verify;
  EXPECT_FALSE(c->matches(expect, &why_table));
  EXPECT_FALSE(c->verify(&why_verify));
  EXPECT_FALSE(why_table.empty());
  EXPECT_EQ(why_table, why_verify);
}

TEST_P(KernelCorrectness, MatchesReferenceOnHostOnly) {
  const std::string name = GetParam();
  auto rt = rt::Runtime::from_builtin("host-only");
  auto c = kern::make_case(name, small_size(name), /*materialize=*/true);
  c->init();

  rt::OffloadOptions o;
  o.device_ids = {0};
  auto maps = c->maps();
  auto kernel = c->kernel();
  auto res = rt.offload(kernel, maps, o);

  if (name == "sum") {
    dynamic_cast<kern::SumCase&>(*c).set_result(res.reduction);
  }
  std::string why;
  EXPECT_TRUE(c->verify(&why)) << why;
  // Host is shared memory: nothing crosses an interconnect.
  EXPECT_EQ(res.devices[0].bytes_in, 0.0);
  EXPECT_EQ(res.devices[0].bytes_out, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelCorrectness,
                         ::testing::ValuesIn(kern::all_kernel_names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

TEST(KernelCases, InitRestoresAFreshCase) {
  // The fuzz oracle runs ten offloads on one case, re-initializing it in
  // between; that is sound only if init() leaves every bound array as a
  // freshly built case holds it.
  for (const auto& name : kern::all_kernel_names()) {
    auto used = kern::make_case(name, small_size(name), /*materialize=*/true);
    const auto fresh =
        kern::make_case(name, small_size(name), /*materialize=*/true);
    const auto used_maps = used->maps();
    const auto fresh_maps = fresh->maps();
    for (const auto& m : used_maps) {
      std::memset(m.binding.base, 0xa5,
                  elements(m.binding) * m.binding.elem_size);
    }
    used->init();
    ASSERT_EQ(used_maps.size(), fresh_maps.size()) << name;
    for (std::size_t i = 0; i < used_maps.size(); ++i) {
      const auto& a = used_maps[i].binding;
      const auto& b = fresh_maps[i].binding;
      ASSERT_EQ(a.shape, b.shape) << name << " " << used_maps[i].name;
      EXPECT_EQ(std::memcmp(a.base, b.base, elements(a) * a.elem_size), 0)
          << name << " " << used_maps[i].name;
    }
  }
}

TEST(KernelCases, Bm2dReferenceChecksMotionVectors) {
  // A distribution bug that scrambles motion vectors but keeps the SADs
  // must fail the reference check, naming the block.
  auto rt = rt::Runtime::from_builtin("gpu4");
  kern::Bm2dCase c(64, /*materialize=*/true);  // 4x4 blocks
  rt::OffloadOptions o;
  o.device_ids = rt.all_devices();
  o.sched.kind = sched::AlgorithmKind::kBlock;
  const auto maps = c.maps();
  (void)rt.offload(c.kernel(), maps, o);
  std::string why;
  ASSERT_TRUE(c.verify(&why)) << why;

  // `best` holds (SAD, encoded motion vector) per block, row-major.
  ASSERT_EQ(output_map(maps).name, "best");
  const auto& best = output_map(maps).binding;
  const long long bi = 1;
  const long long bj = 2;
  double& mv =
      static_cast<double*>(best.base)[bi * best.strides[0] + 2 * bj + 1];
  mv = mv == 0.0 ? 1.0 : mv - 1.0;  // another candidate in the window
  EXPECT_FALSE(c.verify(&why));
  EXPECT_NE(why.find("motion vector of block[1][2]"), std::string::npos)
      << why;
}

TEST(KernelCases, PaperProfilesMatchComputedCharacteristics) {
  // Table IV: our per-iteration accounting must reproduce the paper's
  // MemComp / DataComp within modelling tolerance.
  struct Row {
    const char* name;
    long long n;
    double mem_comp;
    double data_comp;
    double tol;
  };
  const Row rows[] = {
      {"axpy", 1 << 20, 1.5, 1.5, 0.01},
      {"matvec", 1024, 1.0 + 0.5 / 1024, 0.5 + 1.0 / 1024, 0.01},
      {"matmul", 1024, 1.5 / 1024, 1.5 / 1024, 0.01},
      {"stencil2d", 256, 0.5, 1.0 / 13.0, 0.12},
      {"sum", 1 << 20, 1.0, 1.0, 0.01},
  };
  for (const auto& r : rows) {
    auto c = kern::make_case(r.name, r.n, /*materialize=*/false);
    const auto k = c->kernel();
    EXPECT_NEAR(k.cost.mem_comp(), r.mem_comp, r.mem_comp * r.tol) << r.name;
    EXPECT_NEAR(k.cost.data_comp(), r.data_comp, r.data_comp * r.tol)
        << r.name;
  }
}

}  // namespace
}  // namespace homp
