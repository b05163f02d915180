#ifndef HOMP_KERNELS_MATVEC_H
#define HOMP_KERNELS_MATVEC_H

/// \file matvec.h
/// Matrix-vector product y = A * x over an N x N matrix, distributed by
/// rows. Compute/data balanced (Table IV: MemComp 1 + 0.5/N,
/// DataComp 0.5 + 1/N).

#include "kernels/case.h"
#include "memory/host_array.h"

namespace homp::kern {

class MatVecCase final : public KernelCase {
 public:
  MatVecCase(long long n, bool materialize);

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
  std::string name_ = "matvec";
  long long n_;
  bool materialize_;
  mem::HostArray<double> a_, x_, y_;
};

}  // namespace homp::kern

#endif  // HOMP_KERNELS_MATVEC_H
