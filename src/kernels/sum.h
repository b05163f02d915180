#ifndef HOMP_KERNELS_SUM_H
#define HOMP_KERNELS_SUM_H

/// \file sum.h
/// Sum reduction: s = sum_i x[i]. Data-intensive with a reduction clause
/// (Table IV: MemComp 1, DataComp 1).

#include "kernels/case.h"
#include "memory/host_array.h"

namespace homp::kern {

class SumCase final : public KernelCase {
 public:
  SumCase(long long n, bool materialize);

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

  /// Record the offload's reduction result for matches(); expected()
  /// holds the one value it should equal.
  void set_result(double s) { result_ = s; }

 private:
  std::string name_ = "sum";
  long long n_;
  bool materialize_;
  mem::HostArray<double> x_;
  double result_ = 0.0;
};

}  // namespace homp::kern

#endif  // HOMP_KERNELS_SUM_H
