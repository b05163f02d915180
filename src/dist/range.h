#ifndef HOMP_DIST_RANGE_H
#define HOMP_DIST_RANGE_H

/// \file range.h
/// Half-open index ranges and N-dimensional regions.
///
/// The key observation in the paper (§III-3) is that a loop iteration space
/// and an array dimension are both just index ranges, so one set of
/// distribution policies serves both. Range is that common currency.

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace homp::dist {

/// Half-open interval [lo, hi) of loop iterations or array indices.
struct Range {
  long long lo = 0;
  long long hi = 0;

  Range() = default;
  Range(long long lo_, long long hi_) : lo(lo_), hi(hi_) {}

  static Range of_size(long long n) { return Range(0, n); }

  long long size() const noexcept { return hi > lo ? hi - lo : 0; }
  bool empty() const noexcept { return hi <= lo; }
  bool contains(long long i) const noexcept { return i >= lo && i < hi; }
  bool contains(const Range& r) const noexcept {
    return r.empty() || (r.lo >= lo && r.hi <= hi);
  }

  Range intersect(const Range& o) const noexcept {
    Range r(lo > o.lo ? lo : o.lo, hi < o.hi ? hi : o.hi);
    if (r.hi < r.lo) r.hi = r.lo;
    return r;
  }

  /// Clamp this range into `bounds`.
  Range clamped_to(const Range& bounds) const noexcept {
    return intersect(bounds);
  }

  /// Widen by `before` on the low side and `after` on the high side
  /// (halo expansion); does not clamp.
  Range widened(long long before, long long after) const noexcept {
    return Range(lo - before, hi + after);
  }

  /// Scale both endpoints by `ratio` (ALIGN(dist, ratio) semantics).
  /// Endpoints are rounded to nearest to keep adjacent scaled ranges
  /// exactly abutting for integral ratios.
  Range scaled(double ratio) const noexcept;

  bool operator==(const Range& o) const noexcept = default;

  std::string to_string() const;
};

/// True if `parts` exactly tile `domain`: disjoint, in order or not,
/// union equal to domain. Empty parts are permitted.
bool exactly_covers(const Range& domain, const std::vector<Range>& parts);

/// N-dimensional region: one Range per dimension (row-major semantics; the
/// first dimension is the slowest varying, matching C arrays in the paper's
/// examples like u[0:n][0:m]). Up to kMaxRank dimensions are held inline,
/// so copying a region allocates nothing; HostArray and ArrayView stop at
/// the same rank.
class Region {
 public:
  static constexpr std::size_t kMaxRank = 3;

  Region() = default;
  /// Throws ConfigError above kMaxRank dimensions.
  explicit Region(std::span<const Range> dims);
  Region(std::initializer_list<Range> dims)
      : Region(std::span<const Range>(dims.begin(), dims.size())) {}

  static Region of_shape(const std::vector<long long>& extents);

  std::size_t rank() const noexcept { return rank_; }
  const Range& dim(std::size_t i) const {
    HOMP_ASSERT(i < rank_);
    return dims_[i];
  }
  Range& dim(std::size_t i) {
    HOMP_ASSERT(i < rank_);
    return dims_[i];
  }

  /// Number of index tuples in the region.
  long long volume() const noexcept;
  bool empty() const noexcept { return volume() == 0; }

  Region intersect(const Region& o) const;
  bool contains(const Region& o) const;

  /// Replace dimension `i` with `r`, returning a new region.
  Region with_dim(std::size_t i, const Range& r) const;

  /// Equal rank and equal dimensions; unused inline slots do not count.
  bool operator==(const Region& o) const noexcept {
    return rank_ == o.rank_ &&
           std::equal(dims_.begin(), dims_.begin() + rank_, o.dims_.begin());
  }

  std::string to_string() const;

 private:
  std::array<Range, kMaxRank> dims_{};
  std::size_t rank_ = 0;
};

}  // namespace homp::dist

#endif  // HOMP_DIST_RANGE_H
