#ifndef HOMP_KERNELS_AXPY_H
#define HOMP_KERNELS_AXPY_H

/// \file axpy.h
/// AXPY: y[i] += a * x[i] — the paper's running example (Fig. 1/2).
/// Data-intensive: MemComp 1.5, DataComp 1.5 (Table IV).

#include "kernels/case.h"
#include "memory/host_array.h"

namespace homp::kern {

class AxpyCase final : public KernelCase {
 public:
  AxpyCase(long long n, bool materialize);

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

  /// Map clauses in the v1 style of Fig. 2: x and y carry their own BLOCK
  /// partitions; use with loop_policy = ALIGN("x").
  std::vector<mem::MapSpec> maps_v1_block() const;

 private:
  std::string name_ = "axpy";
  long long n_;
  bool materialize_;
  double a_ = 2.5;
  mem::HostArray<double> x_, y_;
};

}  // namespace homp::kern

#endif  // HOMP_KERNELS_AXPY_H
