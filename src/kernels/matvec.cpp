#include "kernels/matvec.h"

#include <cmath>

#include "common/error.h"

namespace homp::kern {

namespace {
double a_init(long long i, long long j) {
  return static_cast<double>((i * 7 + j * 3) % 19) / 19.0 - 0.4;
}
double x_init(long long j) { return static_cast<double>(j % 11) / 11.0 + 0.1; }
}  // namespace

MatVecCase::MatVecCase(long long n, bool materialize)
    : n_(n), materialize_(materialize) {
  if (materialize_) {
    a_ = mem::HostArray<double>::matrix(n, n);
    x_ = mem::HostArray<double>::vector(n);
    y_ = mem::HostArray<double>::vector(n);
    init();
  }
}

void MatVecCase::init() {
  if (!materialize_) return;
  a_.fill_with_indices(a_init);
  x_.fill_with_index(x_init);
  y_.fill(0.0);
}

rt::LoopKernel MatVecCase::kernel() const {
  rt::LoopKernel k;
  k.name = "matvec";
  k.iterations = dist::Range::of_size(n_);  // one iteration per row
  const double n = static_cast<double>(n_);
  k.cost.flops_per_iter = 2.0 * n;               // N mul + N add
  k.cost.mem_bytes_per_iter = (2.0 * n + 1.0) * 8.0;  // A row + x + y store
  k.cost.transfer_bytes_per_iter = (n + 2.0) * 8.0;   // A row + x/N + y out
  if (materialize_) {
    const long long width = n_;
    k.body = [width](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      auto a = env.view<double>("A");
      auto x = env.view<double>("x");
      auto y = env.view<double>("y");
      for (long long i = chunk.lo; i < chunk.hi; ++i) {
        double acc = 0.0;
        for (long long j = 0; j < width; ++j) acc += a(i, j) * x(j);
        y(i) = acc;
      }
      return 0.0;
    };
  }
  return k;
}

std::vector<mem::MapSpec> MatVecCase::maps() const {
  mem::MapSpec a;
  a.name = "A";
  a.dir = mem::MapDirection::kTo;
  a.binding = materialize_
                  ? mem::bind_array(const_cast<mem::HostArray<double>&>(a_))
                  : mem::phantom_binding(sizeof(double), {n_, n_});
  a.region = dist::Region::of_shape({n_, n_});
  a.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};

  mem::MapSpec x;
  x.name = "x";
  x.dir = mem::MapDirection::kTo;
  x.binding = materialize_
                  ? mem::bind_array(const_cast<mem::HostArray<double>&>(x_))
                  : mem::phantom_binding(sizeof(double), {n_});
  x.region = dist::Region::of_shape({n_});  // replicated (FULL)

  mem::MapSpec y;
  y.name = "y";
  y.dir = mem::MapDirection::kFrom;
  y.binding = materialize_
                  ? mem::bind_array(const_cast<mem::HostArray<double>&>(y_))
                  : mem::phantom_binding(sizeof(double), {n_});
  y.region = dist::Region::of_shape({n_});
  y.partition = {dist::DimPolicy::align("loop")};

  return {a, x, y};
}

std::vector<double> MatVecCase::expected() const {
  std::vector<double> expect;
  if (!materialize_) return expect;
  expect.reserve(static_cast<std::size_t>(n_));
  for (long long i = 0; i < n_; ++i) {
    double acc = 0.0;
    for (long long j = 0; j < n_; ++j) acc += a_init(i, j) * x_init(j);
    expect.push_back(acc);
  }
  return expect;
}

bool MatVecCase::matches(const std::vector<double>& expect,
                         std::string* why) const {
  if (!materialize_) return true;
  HOMP_REQUIRE(static_cast<long long>(expect.size()) == n_,
               "matvec: expected table of another size");
  for (long long i = 0; i < n_; ++i) {
    const double e = expect[static_cast<std::size_t>(i)];
    if (std::abs(y_(i) - e) > 1e-9 * std::max(1.0, std::abs(e))) {
      if (why) {
        *why = "matvec: y[" + std::to_string(i) + "] = " +
               std::to_string(y_(i)) + ", expected " + std::to_string(e);
      }
      return false;
    }
  }
  return true;
}

model::KernelCostProfile MatVecCase::paper_profile() const {
  const double n = static_cast<double>(n_);
  model::KernelCostProfile p;
  p.flops_per_iter = 2.0 * n;
  p.mem_bytes_per_iter = (1.0 + 0.5 / n) * p.flops_per_iter * 8.0;
  p.transfer_bytes_per_iter = (0.5 + 1.0 / n) * p.flops_per_iter * 8.0;
  return p;
}

}  // namespace homp::kern
