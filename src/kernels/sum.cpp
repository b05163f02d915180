#include "kernels/sum.h"

#include <cmath>

#include "common/error.h"

namespace homp::kern {

namespace {
double x_init(long long i) { return static_cast<double>(i % 13) - 3.0; }
}  // namespace

SumCase::SumCase(long long n, bool materialize)
    : n_(n), materialize_(materialize) {
  if (materialize_) {
    x_ = mem::HostArray<double>::vector(n);
    init();
  }
}

void SumCase::init() {
  if (!materialize_) return;
  x_.fill_with_index(x_init);
  result_ = 0.0;
}

rt::LoopKernel SumCase::kernel() const {
  rt::LoopKernel k;
  k.name = "sum";
  k.iterations = dist::Range::of_size(n_);
  k.cost.flops_per_iter = 1.0;             // one add
  k.cost.mem_bytes_per_iter = 8.0;         // load x
  k.cost.transfer_bytes_per_iter = 8.0;    // x in
  k.has_reduction = true;
  if (materialize_) {
    k.body = [](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      auto x = env.view<double>("x");
      double partial = 0.0;
      for (long long i = chunk.lo; i < chunk.hi; ++i) partial += x(i);
      return partial;
    };
  }
  return k;
}

std::vector<mem::MapSpec> SumCase::maps() const {
  mem::MapSpec x;
  x.name = "x";
  x.dir = mem::MapDirection::kTo;
  x.binding = materialize_
                  ? mem::bind_array(const_cast<mem::HostArray<double>&>(x_))
                  : mem::phantom_binding(sizeof(double), {n_});
  x.region = dist::Region::of_shape({n_});
  x.partition = {dist::DimPolicy::align("loop")};
  return {x};
}

std::vector<double> SumCase::expected() const {
  if (!materialize_) return {};
  double s = 0.0;
  for (long long i = 0; i < n_; ++i) s += x_init(i);
  return {s};
}

bool SumCase::matches(const std::vector<double>& expect,
                      std::string* why) const {
  if (!materialize_) return true;
  HOMP_REQUIRE(expect.size() == 1, "sum: expected table of another kernel");
  const double e = expect[0];
  if (std::abs(result_ - e) > 1e-9 * std::max(1.0, std::abs(e))) {
    if (why) {
      *why = "sum: got " + std::to_string(result_) + ", expected " +
             std::to_string(e);
    }
    return false;
  }
  return true;
}

model::KernelCostProfile SumCase::paper_profile() const {
  model::KernelCostProfile p;
  p.flops_per_iter = 1.0;
  p.mem_bytes_per_iter = 8.0;       // MemComp 1
  p.transfer_bytes_per_iter = 8.0;  // DataComp 1
  return p;
}

}  // namespace homp::kern
