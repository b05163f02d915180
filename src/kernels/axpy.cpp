#include "kernels/axpy.h"

#include <cmath>

#include "common/error.h"

namespace homp::kern {

namespace {
double x_init(long long i) { return 0.5 + static_cast<double>(i % 97); }
double y_init(long long i) { return 1.0 + static_cast<double>(i % 31); }
}  // namespace

AxpyCase::AxpyCase(long long n, bool materialize)
    : n_(n), materialize_(materialize) {
  if (materialize_) {
    x_ = mem::HostArray<double>::vector(n);
    y_ = mem::HostArray<double>::vector(n);
    init();
  }
}

void AxpyCase::init() {
  if (!materialize_) return;
  x_.fill_with_index(x_init);
  y_.fill_with_index(y_init);
}

rt::LoopKernel AxpyCase::kernel() const {
  rt::LoopKernel k;
  k.name = "axpy";
  k.iterations = dist::Range::of_size(n_);
  k.cost.flops_per_iter = 2.0;                    // one mul + one add
  k.cost.mem_bytes_per_iter = 3.0 * 8.0;          // load x, load y, store y
  k.cost.transfer_bytes_per_iter = 3.0 * 8.0;     // x in, y in, y out
  if (materialize_) {
    const double a = a_;
    k.body = [a](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      auto x = env.view<double>("x");
      auto y = env.view<double>("y");
      for (long long i = chunk.lo; i < chunk.hi; ++i) {
        y(i) += a * x(i);
      }
      return 0.0;
    };
  }
  return k;
}

std::vector<mem::MapSpec> AxpyCase::maps() const {
  // v2 style (Fig. 2): data follows the loop's distribution.
  mem::MapSpec x;
  x.name = "x";
  x.dir = mem::MapDirection::kTo;
  x.binding = materialize_
                  ? mem::bind_array(const_cast<mem::HostArray<double>&>(x_))
                  : mem::phantom_binding(sizeof(double), {n_});
  x.region = dist::Region::of_shape({n_});
  x.partition = {dist::DimPolicy::align("loop")};

  mem::MapSpec y = x;
  y.name = std::string("y");
  y.dir = mem::MapDirection::kToFrom;
  if (materialize_) {
    y.binding = mem::bind_array(const_cast<mem::HostArray<double>&>(y_));
  }
  return {x, y};
}

std::vector<mem::MapSpec> AxpyCase::maps_v1_block() const {
  auto ms = maps();
  for (auto& m : ms) m.partition = {dist::DimPolicy::block()};
  return ms;
}

std::vector<double> AxpyCase::expected() const {
  std::vector<double> expect;
  if (!materialize_) return expect;
  expect.reserve(static_cast<std::size_t>(n_));
  for (long long i = 0; i < n_; ++i) {
    expect.push_back(y_init(i) + a_ * x_init(i));
  }
  return expect;
}

bool AxpyCase::matches(const std::vector<double>& expect,
                       std::string* why) const {
  if (!materialize_) return true;
  HOMP_REQUIRE(static_cast<long long>(expect.size()) == n_,
               "axpy: expected table of another size");
  for (long long i = 0; i < n_; ++i) {
    const double e = expect[static_cast<std::size_t>(i)];
    if (std::abs(y_(i) - e) > 1e-9 * std::max(1.0, std::abs(e))) {
      if (why) {
        *why = "axpy: y[" + std::to_string(i) + "] = " +
               std::to_string(y_(i)) + ", expected " + std::to_string(e);
      }
      return false;
    }
  }
  return true;
}

model::KernelCostProfile AxpyCase::paper_profile() const {
  model::KernelCostProfile p;
  p.flops_per_iter = 2.0;
  p.mem_bytes_per_iter = 1.5 * 2.0 * 8.0;      // MemComp 1.5
  p.transfer_bytes_per_iter = 1.5 * 2.0 * 8.0; // DataComp 1.5
  return p;
}

}  // namespace homp::kern
