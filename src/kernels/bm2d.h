#ifndef HOMP_KERNELS_BM2D_H
#define HOMP_KERNELS_BM2D_H

/// \file bm2d.h
/// 2-D block matching (motion estimation): for every 16x16 block of the
/// current frame, find the displacement within a +-8 pixel search window
/// that minimizes the sum of absolute differences against the reference
/// frame. Compute-intensive with neighbourhood communication (Table IV:
/// MemComp 0.5, DataComp 0.06).
///
/// The distributed loop runs over block rows; frames align to it with
/// ratio 16 (ALIGN(loop, 16)) and the reference frame carries an 8-pixel
/// halo for the search window.

#include <utility>

#include "kernels/case.h"
#include "memory/host_array.h"

namespace homp::kern {

class Bm2dCase final : public KernelCase {
 public:
  static constexpr long long kBlock = 16;
  static constexpr long long kSearch = 8;

  Bm2dCase(long long n, bool materialize);

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
 public:
  /// Computed best SAD of a block (valid after an offload).
  double best_sad(long long bi, long long bj) const {
    return best_(bi, 2 * bj);
  }

  /// Computed motion vector of a block as (dy, dx), decoded from the
  /// kernel's encoding (dy+8)*17 + (dx+8).
  std::pair<long long, long long> motion_vector(long long bi,
                                                long long bj) const {
    const auto enc = static_cast<long long>(best_(bi, 2 * bj + 1));
    return {enc / (2 * kSearch + 1) - kSearch,
            enc % (2 * kSearch + 1) - kSearch};
  }

  long long blocks_per_side() const { return blocks_; }

 private:
  /// Sequential best-SAD search for one block over the frames' initial
  /// values: (SAD, encoded motion vector), as the kernel writes them to
  /// `best`.
  std::pair<double, double> reference(const mem::HostArray<double>& cur,
                                      const mem::HostArray<double>& ref,
                                      long long bi, long long bj) const;

  std::string name_ = "bm2d";
  long long n_;        ///< frame edge, multiple of kBlock
  long long blocks_;   ///< n / kBlock
  bool materialize_;
  mem::HostArray<double> cur_, ref_, best_;
};

}  // namespace homp::kern

#endif  // HOMP_KERNELS_BM2D_H
