#ifndef HOMP_MEMORY_VIEW_H
#define HOMP_MEMORY_VIEW_H

/// \file view.h
/// Global-indexed view over a device-local array slice.
///
/// Kernels are written once against global indices, exactly like the loop
/// bodies in the paper's examples (`y[i] += a * x[i]` with the original i).
/// The paper's compiler "guarantees array references to its original array
/// index spaces are properly translated to references to the array
/// subregion that is mapped to each device" (§V-C); ArrayView is that
/// translation. Out-of-footprint accesses are hard errors — they mean the
/// distribution/alignment machinery mapped too little data, which is
/// precisely the bug class the tests must catch. Every index of every
/// access is checked, against per-dimension bounds the view copies out of
/// the footprint once, at construction.

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "common/error.h"
#include "dist/range.h"

namespace homp::mem {

template <typename T>
class ArrayView {
 public:
  ArrayView() = default;

  /// \param base    first element of the local storage, which holds the
  ///                (contiguous, row-major) elements of `footprint`
  /// \param footprint global region present in local storage
  ArrayView(T* base, const dist::Region& footprint)
      : base_(base), rank_(footprint.rank()) {
    HOMP_ASSERT(rank_ >= 1 && rank_ <= 3);
    for (std::size_t d = 0; d < rank_; ++d) {
      lo_[d] = footprint.dim(d).lo;
      hi_[d] = footprint.dim(d).hi;
    }
    for (std::size_t d = rank_; d-- > 1;) {
      local_strides_[d - 1] = local_strides_[d] * footprint.dim(d).size();
    }
  }

  /// The global region present in local storage, rebuilt from the cached
  /// bounds.
  dist::Region footprint() const {
    std::array<dist::Range, 3> dims;
    for (std::size_t d = 0; d < rank_; ++d) dims[d] = dist::Range(lo_[d], hi_[d]);
    return dist::Region(std::span<const dist::Range>(dims.data(), rank_));
  }
  T* local_data() noexcept { return base_; }

  T& operator()(long long i) const {
    HOMP_ASSERT(rank_ == 1);
    check(0, i);
    return base_[i - lo_[0]];
  }

  T& operator()(long long i, long long j) const {
    HOMP_ASSERT(rank_ == 2);
    check(0, i);
    check(1, j);
    return base_[(i - lo_[0]) * local_strides_[0] + (j - lo_[1])];
  }

  T& operator()(long long i, long long j, long long k) const {
    HOMP_ASSERT(rank_ == 3);
    check(0, i);
    check(1, j);
    check(2, k);
    return base_[(i - lo_[0]) * local_strides_[0] +
                 (j - lo_[1]) * local_strides_[1] + (k - lo_[2])];
  }

  /// True if global index i (dim 0) is present in the footprint; kernels
  /// with neighbourhood access use this to probe halo availability.
  bool covers(long long i) const noexcept { return i >= lo_[0] && i < hi_[0]; }

 private:
  void check(std::size_t d, long long i) const {
    if (i < lo_[d] || i >= hi_[d]) out_of_footprint(d, i);
  }

  [[noreturn, gnu::cold, gnu::noinline]] void out_of_footprint(
      std::size_t d, long long i) const {
    throw ExecutionError(
        "kernel accessed global index " + std::to_string(i) + " in dim " +
        std::to_string(d) + " outside mapped footprint " +
        footprint().to_string() +
        " — data distribution/alignment mapped too little data");
  }

  T* base_ = nullptr;
  std::size_t rank_ = 0;
  // Footprint bounds [lo_[d], hi_[d]) per dimension; unused dimensions stay
  // empty, so a default-constructed view covers nothing.
  std::array<long long, 3> lo_{0, 0, 0};
  std::array<long long, 3> hi_{0, 0, 0};
  std::array<long long, 3> local_strides_{1, 1, 1};
};

}  // namespace homp::mem

#endif  // HOMP_MEMORY_VIEW_H
