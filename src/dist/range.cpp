#include "dist/range.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace homp::dist {

Range Range::scaled(double ratio) const noexcept {
  return Range(static_cast<long long>(std::llround(lo * ratio)),
               static_cast<long long>(std::llround(hi * ratio)));
}

std::string Range::to_string() const {
  std::string s;
  s.reserve(32);
  s += '[';
  s += std::to_string(lo);
  s += ':';
  s += std::to_string(hi);
  s += ')';
  return s;
}

bool exactly_covers(const Range& domain, const std::vector<Range>& parts) {
  std::vector<Range> sorted;
  sorted.reserve(parts.size());
  for (const Range& p : parts) {
    if (!p.empty()) sorted.push_back(p);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  long long cursor = domain.lo;
  for (const Range& p : sorted) {
    if (p.lo != cursor) return false;
    cursor = p.hi;
  }
  return cursor == domain.hi || (domain.empty() && sorted.empty());
}

Region Region::of_shape(const std::vector<long long>& extents) {
  std::vector<Range> dims;
  dims.reserve(extents.size());
  for (long long e : extents) {
    HOMP_REQUIRE(e >= 0, "negative region extent");
    dims.push_back(Range::of_size(e));
  }
  return Region(std::move(dims));
}

long long Region::volume() const noexcept {
  if (dims_.empty()) return 0;
  long long v = 1;
  for (const Range& r : dims_) v *= r.size();
  return v;
}

Region Region::intersect(const Region& o) const {
  HOMP_REQUIRE(rank() == o.rank(), "region rank mismatch in intersect");
  std::vector<Range> dims;
  dims.reserve(rank());
  for (std::size_t i = 0; i < rank(); ++i) {
    dims.push_back(dims_[i].intersect(o.dims_[i]));
  }
  return Region(std::move(dims));
}

bool Region::contains(const Region& o) const {
  HOMP_REQUIRE(rank() == o.rank(), "region rank mismatch in contains");
  if (o.empty()) return true;
  for (std::size_t i = 0; i < rank(); ++i) {
    if (!dims_[i].contains(o.dims_[i])) return false;
  }
  return true;
}

Region Region::with_dim(std::size_t i, const Range& r) const {
  HOMP_ASSERT(i < dims_.size());
  Region out = *this;
  out.dims_[i] = r;
  return out;
}

std::string Region::to_string() const {
  std::string s;
  for (const Range& r : dims_) s += r.to_string();
  return s;
}

}  // namespace homp::dist
