#include "kernels/stencil2d.h"

#include <cmath>

#include "common/error.h"

namespace homp::kern {

namespace {
double in_init(long long i, long long j) {
  return static_cast<double>((i * 5 + j * 11) % 23) / 23.0;
}

// Star weights: centre plus distance-1..3 arms.
constexpr double kCenter = 0.5;
constexpr double kArm[3] = {0.08, 0.03, 0.01};
}  // namespace

Stencil2DCase::Stencil2DCase(long long n, bool materialize)
    : n_(n), materialize_(materialize) {
  HOMP_REQUIRE(n > 2 * kRadius, "stencil grid too small for radius 3");
  if (materialize_) {
    in_ = mem::HostArray<double>::matrix(n, n);
    out_ = mem::HostArray<double>::matrix(n, n);
    init();
  }
}

void Stencil2DCase::init() {
  if (!materialize_) return;
  in_.fill_with_indices(in_init);
  out_.fill(0.0);
}

rt::LoopKernel Stencil2DCase::kernel() const {
  rt::LoopKernel k;
  k.name = "stencil2d";
  k.iterations = dist::Range::of_size(n_);  // one iteration per row
  const double n = static_cast<double>(n_);
  k.cost.flops_per_iter = 26.0 * n;            // 13 mul + 13 add per point
  k.cost.mem_bytes_per_iter = 14.0 * n * 8.0;  // 13 reads + 1 write
  k.cost.transfer_bytes_per_iter = 2.0 * n * 8.0;  // row in + row out
  if (materialize_) {
    const long long width = n_;
    k.body = [width](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      auto in = env.view<double>("in");
      auto out = env.view<double>("out");
      constexpr long long r = Stencil2DCase::kRadius;
      for (long long i = chunk.lo; i < chunk.hi; ++i) {
        if (i < r || i >= width - r) continue;  // boundary rows unchanged
        for (long long j = r; j < width - r; ++j) {
          double acc = kCenter * in(i, j);
          for (long long d = 1; d <= r; ++d) {
            acc += kArm[d - 1] * (in(i - d, j) + in(i + d, j) +
                                  in(i, j - d) + in(i, j + d));
          }
          out(i, j) = acc;
        }
      }
      return 0.0;
    };
  }
  return k;
}

std::vector<mem::MapSpec> Stencil2DCase::maps() const {
  mem::MapSpec in;
  in.name = "in";
  in.dir = mem::MapDirection::kTo;
  in.binding = materialize_
                   ? mem::bind_array(const_cast<mem::HostArray<double>&>(in_))
                   : mem::phantom_binding(sizeof(double), {n_, n_});
  in.region = dist::Region::of_shape({n_, n_});
  in.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};
  in.halo_before = kRadius;
  in.halo_after = kRadius;

  mem::MapSpec out;
  out.name = "out";
  out.dir = mem::MapDirection::kFrom;
  out.binding =
      materialize_
          ? mem::bind_array(const_cast<mem::HostArray<double>&>(out_))
          : mem::phantom_binding(sizeof(double), {n_, n_});
  out.region = dist::Region::of_shape({n_, n_});
  out.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};
  return {in, out};
}

double Stencil2DCase::reference(long long i, long long j) const {
  if (i < kRadius || i >= n_ - kRadius || j < kRadius || j >= n_ - kRadius) {
    return 0.0;  // outputs at the boundary are never written
  }
  double acc = kCenter * in_init(i, j);
  for (long long d = 1; d <= kRadius; ++d) {
    acc += kArm[d - 1] * (in_init(i - d, j) + in_init(i + d, j) +
                          in_init(i, j - d) + in_init(i, j + d));
  }
  return acc;
}

std::vector<double> Stencil2DCase::expected() const {
  std::vector<double> expect;
  if (!materialize_) return expect;
  expect.reserve(static_cast<std::size_t>(n_ * n_));
  for (long long i = 0; i < n_; ++i) {
    for (long long j = 0; j < n_; ++j) expect.push_back(reference(i, j));
  }
  return expect;
}

bool Stencil2DCase::matches(const std::vector<double>& expect,
                            std::string* why) const {
  if (!materialize_) return true;
  HOMP_REQUIRE(static_cast<long long>(expect.size()) == n_ * n_,
               "stencil2d: expected table of another size");
  for (long long i = 0; i < n_; ++i) {
    for (long long j = 0; j < n_; ++j) {
      const double e = expect[static_cast<std::size_t>(i * n_ + j)];
      if (std::abs(out_(i, j) - e) > 1e-12 * std::max(1.0, std::abs(e))) {
        if (why) {
          *why = "stencil2d: out[" + std::to_string(i) + "][" +
                 std::to_string(j) + "] = " + std::to_string(out_(i, j)) +
                 ", expected " + std::to_string(e);
        }
        return false;
      }
    }
  }
  return true;
}

model::KernelCostProfile Stencil2DCase::paper_profile() const {
  const double n = static_cast<double>(n_);
  model::KernelCostProfile p;
  p.flops_per_iter = 26.0 * n;
  p.mem_bytes_per_iter = 0.5 * p.flops_per_iter * 8.0;          // MemComp 0.5
  p.transfer_bytes_per_iter = (1.0 / 13.0) * p.flops_per_iter * 8.0;
  return p;
}

}  // namespace homp::kern
