#ifndef HOMP_KERNELS_STENCIL2D_H
#define HOMP_KERNELS_STENCIL2D_H

/// \file stencil2d.h
/// 13-point 2-D stencil (radius-3 star: centre plus 3 neighbours in each
/// of the four directions) on an N x N grid, distributed by rows with a
/// 3-row halo. Compute/data balanced with neighbourhood communication
/// (Table IV: MemComp 0.5, DataComp 1/13).

#include "kernels/case.h"
#include "memory/host_array.h"

namespace homp::kern {

class Stencil2DCase final : public KernelCase {
 public:
  static constexpr long long kRadius = 3;

  Stencil2DCase(long long n, bool materialize);

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
  double reference(long long i, long long j) const;

  std::string name_ = "stencil2d";
  long long n_;
  bool materialize_;
  mem::HostArray<double> in_, out_;
};

}  // namespace homp::kern

#endif  // HOMP_KERNELS_STENCIL2D_H
