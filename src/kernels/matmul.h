#ifndef HOMP_KERNELS_MATMUL_H
#define HOMP_KERNELS_MATMUL_H

/// \file matmul.h
/// Dense matrix multiplication C = A * B (N x N), distributed by rows of
/// A/C with B replicated. Compute-intensive (Table IV: MemComp 1.5/N,
/// DataComp 1.5/N).

#include "kernels/case.h"
#include "memory/host_array.h"

namespace homp::kern {

class MatMulCase final : public KernelCase {
 public:
  MatMulCase(long long n, bool materialize);

  const std::string& name() const override { return name_; }
  rt::LoopKernel kernel() const override;
  std::vector<mem::MapSpec> maps() const override;
  void init() override;
  std::vector<double> expected() const override;
  bool matches(const std::vector<double>& expect,
               std::string* why) const override;
  model::KernelCostProfile paper_profile() const override;
  long long problem_size() const override { return n_; }
  bool materialized() const override { return materialize_; }

 private:
  std::string name_ = "matmul";
  long long n_;
  bool materialize_;
  mem::HostArray<double> a_, b_, c_;
};

}  // namespace homp::kern

#endif  // HOMP_KERNELS_MATMUL_H
