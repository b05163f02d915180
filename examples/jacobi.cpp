// The paper's Fig. 3 Jacobi solver on a multi-device data region:
// persistent mapped arrays aligned to loop1, halo exchange each sweep,
// a '+' reduction on the residual, run until convergence.
//
// The data-region directive itself is parsed from the paper's pragma text
// to show the front-end path; the two inner loops use the runtime API.
//
// Build & run:   ./examples/jacobi [n] [m] [machine]

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common/strings.h"
#include "pragma/parse.h"
#include "runtime/runtime.h"

namespace {
using namespace homp;

constexpr double kTol = 1e-8;
constexpr int kMaxIters = 200;

int run(int argc, char** argv) {
  const long long n = argc > 1 ? parse_scaled_int(argv[1]) : 128;
  const long long m = argc > 2 ? parse_scaled_int(argv[2]) : 128;
  const std::string machine = argc > 3 ? argv[3] : "full";
  auto rt = rt::Runtime::from_builtin(machine);
  std::printf("Jacobi %lldx%lld on machine '%s' (%d devices)\n", n, m,
              machine.c_str(), rt.num_devices());

  const double omega = 0.8;
  const double ax = 1.0, ay = 1.0;
  const double b = -4.0 - 0.01;

  auto u = mem::HostArray<double>::matrix(n, m, 0.0);
  auto uold = mem::HostArray<double>::matrix(n, m, 0.0);
  auto f = mem::HostArray<double>::matrix(n, m);
  f.fill_with_indices([&](long long i, long long j) {
    const double xi = static_cast<double>(i) / static_cast<double>(n);
    const double yj = static_cast<double>(j) / static_cast<double>(m);
    return -2.0 * std::sin(3.14159 * xi) * std::sin(3.14159 * yj);
  });

  // The paper's data-region pragma (Fig. 3 lines 1-7), verbatim modulo
  // whitespace.
  auto directive = pragma::parse_directive(
      "#pragma omp parallel target data device(*) "
      "map(to: n, m, omega, ax, ay, b, "
      "     f[0:n][0:m] partition([ALIGN(loop1)], FULL)) "
      "map(tofrom: u[0:n][0:m] partition([ALIGN(loop1)], FULL)) "
      "map(alloc: uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))");
  pragma::Bindings bind;
  bind.bind("f", f);
  bind.bind("u", u);
  bind.bind("uold", uold);
  bind.let("n", n);
  bind.let("m", m);
  auto maps = pragma::build_map_specs(directive, bind);

  rt::RegionOptions ro;
  ro.device_ids = pragma::resolve_device_clause(directive.device_clause,
                                                rt.machine());
  ro.loop_label = "loop1";
  ro.loop_domain = dist::Range::of_size(n);
  // On a heterogeneous machine an even BLOCK split of the pinned region
  // data leaves the fast devices waiting; distribute rows by modelled
  // capability instead. The residual imbalance the run reports is the
  // model-vs-delivered gap (peak vs sustained bandwidth) that
  // bench_ablation_model_error quantifies.
  ro.dist_algorithm = sched::AlgorithmKind::kModel2Auto;
  ro.cost_hint.flops_per_iter = 13.0 * static_cast<double>(m);
  ro.cost_hint.mem_bytes_per_iter = 7.0 * static_cast<double>(m) * 8.0;
  auto region = rt.map_data(std::move(maps), ro);
  std::printf("region entry: %s, loop1 distribution %s\n",
              format_seconds(region->entry_time()).c_str(),
              region->loop_distribution().to_string().c_str());

  rt::LoopKernel copy_k;
  copy_k.name = "jacobi-copy";
  copy_k.iterations = dist::Range::of_size(n);
  copy_k.cost.flops_per_iter = static_cast<double>(m);
  copy_k.cost.mem_bytes_per_iter = 2.0 * static_cast<double>(m) * 8.0;
  copy_k.body = [m](const dist::Range& chunk, mem::DeviceDataEnv& env) {
    auto u_v = env.view<double>("u");
    auto uold_v = env.view<double>("uold");
    for (long long i = chunk.lo; i < chunk.hi; ++i) {
      for (long long j = 0; j < m; ++j) uold_v(i, j) = u_v(i, j);
    }
    return 0.0;
  };

  rt::LoopKernel sweep_k;
  sweep_k.name = "jacobi-sweep";
  sweep_k.iterations = dist::Range::of_size(n);
  sweep_k.cost.flops_per_iter = 13.0 * static_cast<double>(m);
  sweep_k.cost.mem_bytes_per_iter = 7.0 * static_cast<double>(m) * 8.0;
  sweep_k.has_reduction = true;
  sweep_k.body = [=](const dist::Range& chunk, mem::DeviceDataEnv& env) {
    auto u_v = env.view<double>("u");
    auto uold_v = env.view<double>("uold");
    auto f_v = env.view<double>("f");
    double error = 0.0;
    for (long long i = chunk.lo; i < chunk.hi; ++i) {
      if (i == 0 || i == n - 1) continue;
      for (long long j = 1; j < m - 1; ++j) {
        const double resid =
            (ax * (uold_v(i - 1, j) + uold_v(i + 1, j)) +
             ay * (uold_v(i, j - 1) + uold_v(i, j + 1)) +
             b * uold_v(i, j) - f_v(i, j)) /
            b;
        u_v(i, j) = uold_v(i, j) - omega * resid;
        error += resid * resid;
      }
    }
    return error;
  };

  int k = 0;
  double error = 1.0;
  while (k < kMaxIters && error > kTol) {
    region->offload(copy_k);
    region->halo_exchange("uold");  // #pragma omp halo_exchange (uold)
    auto res = region->offload(sweep_k);
    error = std::sqrt(res.reduction) /
            static_cast<double>(n * m);
    ++k;
    if (k % 20 == 0 || error <= kTol) {
      std::printf("  iter %4d   residual %.3e   (sweep %s, imbalance "
                  "%.2f%%)\n",
                  k, error, format_seconds(res.total_time).c_str(),
                  res.imbalance().percent());
    }
  }
  const double exit_t = region->close();
  std::printf("%s after %d iterations; exit copy %s; total region time %s\n",
              error <= kTol ? "converged" : "stopped", k,
              format_seconds(exit_t).c_str(),
              format_seconds(region->total_time()).c_str());

  // Sanity: interior of u must be non-trivial and finite.
  double checksum = 0.0;
  for (long long i = 0; i < n; ++i) {
    for (long long j = 0; j < m; ++j) checksum += u(i, j);
  }
  std::printf("checksum(u) = %.6f\n", checksum);
  return std::isfinite(checksum) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jacobi: %s\n", e.what());
    return 2;
  }
}
