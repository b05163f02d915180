#include "kernels/matmul.h"

#include <cmath>

#include "common/error.h"

namespace homp::kern {

namespace {
double a_init(long long i, long long j) {
  return static_cast<double>((i + 2 * j) % 7) - 3.0;
}
double b_init(long long i, long long j) {
  return static_cast<double>((3 * i + j) % 5) / 5.0;
}
}  // namespace

MatMulCase::MatMulCase(long long n, bool materialize)
    : n_(n), materialize_(materialize) {
  if (materialize_) {
    a_ = mem::HostArray<double>::matrix(n, n);
    b_ = mem::HostArray<double>::matrix(n, n);
    c_ = mem::HostArray<double>::matrix(n, n);
    init();
  }
}

void MatMulCase::init() {
  if (!materialize_) return;
  a_.fill_with_indices(a_init);
  b_.fill_with_indices(b_init);
  c_.fill(0.0);
}

rt::LoopKernel MatMulCase::kernel() const {
  rt::LoopKernel k;
  k.name = "matmul";
  k.iterations = dist::Range::of_size(n_);  // one iteration per row of C
  const double n = static_cast<double>(n_);
  k.cost.flops_per_iter = 2.0 * n * n;  // N^2 mul + N^2 add per row
  // A row (N) + C row (N) + B amortized over rows (N^2 / N = N), assuming
  // B streams from cache-resident tiles — the Table IV accounting.
  k.cost.mem_bytes_per_iter = 3.0 * n * 8.0;
  k.cost.transfer_bytes_per_iter = 3.0 * n * 8.0;  // A in + B/N + C out
  if (materialize_) {
    const long long width = n_;
    k.body = [width](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      auto a = env.view<double>("A");
      auto b = env.view<double>("B");
      auto c = env.view<double>("C");
      for (long long i = chunk.lo; i < chunk.hi; ++i) {
        for (long long j = 0; j < width; ++j) {
          double acc = 0.0;
          for (long long l = 0; l < width; ++l) acc += a(i, l) * b(l, j);
          c(i, j) = acc;
        }
      }
      return 0.0;
    };
  }
  return k;
}

std::vector<mem::MapSpec> MatMulCase::maps() const {
  mem::MapSpec a;
  a.name = "A";
  a.dir = mem::MapDirection::kTo;
  a.binding = materialize_
                  ? mem::bind_array(const_cast<mem::HostArray<double>&>(a_))
                  : mem::phantom_binding(sizeof(double), {n_, n_});
  a.region = dist::Region::of_shape({n_, n_});
  a.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};

  mem::MapSpec b = a;
  b.name = std::string("B");
  b.partition.clear();  // replicated
  if (materialize_) {
    b.binding = mem::bind_array(const_cast<mem::HostArray<double>&>(b_));
  }

  mem::MapSpec c = a;
  c.name = std::string("C");
  c.dir = mem::MapDirection::kFrom;
  if (materialize_) {
    c.binding = mem::bind_array(const_cast<mem::HostArray<double>&>(c_));
  }
  return {a, b, c};
}

std::vector<double> MatMulCase::expected() const {
  std::vector<double> expect;
  if (!materialize_) return expect;
  expect.reserve(static_cast<std::size_t>(n_ * n_));
  for (long long i = 0; i < n_; ++i) {
    for (long long j = 0; j < n_; ++j) {
      double acc = 0.0;
      for (long long l = 0; l < n_; ++l) acc += a_init(i, l) * b_init(l, j);
      expect.push_back(acc);
    }
  }
  return expect;
}

bool MatMulCase::matches(const std::vector<double>& expect,
                         std::string* why) const {
  if (!materialize_) return true;
  HOMP_REQUIRE(static_cast<long long>(expect.size()) == n_ * n_,
               "matmul: expected table of another size");
  for (long long i = 0; i < n_; ++i) {
    for (long long j = 0; j < n_; ++j) {
      const double e = expect[static_cast<std::size_t>(i * n_ + j)];
      if (std::abs(c_(i, j) - e) > 1e-9 * std::max(1.0, std::abs(e))) {
        if (why) {
          *why = "matmul: C[" + std::to_string(i) + "][" + std::to_string(j) +
                 "] = " + std::to_string(c_(i, j)) + ", expected " +
                 std::to_string(e);
        }
        return false;
      }
    }
  }
  return true;
}

model::KernelCostProfile MatMulCase::paper_profile() const {
  const double n = static_cast<double>(n_);
  model::KernelCostProfile p;
  p.flops_per_iter = 2.0 * n * n;
  p.mem_bytes_per_iter = (1.5 / n) * p.flops_per_iter * 8.0;
  p.transfer_bytes_per_iter = (1.5 / n) * p.flops_per_iter * 8.0;
  return p;
}

}  // namespace homp::kern
