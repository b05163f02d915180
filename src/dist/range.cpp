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

namespace {
void require_rank(std::size_t rank) {
  HOMP_REQUIRE(rank <= Region::kMaxRank,
               "region rank " + std::to_string(rank) +
                   " exceeds the supported maximum of " +
                   std::to_string(Region::kMaxRank));
}
}  // namespace

Region::Region(std::span<const Range> dims) : rank_(dims.size()) {
  require_rank(dims.size());
  std::copy(dims.begin(), dims.end(), dims_.begin());
}

Region Region::of_shape(const std::vector<long long>& extents) {
  require_rank(extents.size());
  std::array<Range, kMaxRank> dims;
  for (std::size_t d = 0; d < extents.size(); ++d) {
    HOMP_REQUIRE(extents[d] >= 0, "negative region extent");
    dims[d] = Range::of_size(extents[d]);
  }
  return Region(std::span<const Range>(dims.data(), extents.size()));
}

long long Region::volume() const noexcept {
  if (rank_ == 0) return 0;
  long long v = 1;
  for (std::size_t i = 0; i < rank_; ++i) v *= dims_[i].size();
  return v;
}

Region Region::intersect(const Region& o) const {
  HOMP_REQUIRE(rank() == o.rank(), "region rank mismatch in intersect");
  Region out = *this;
  for (std::size_t i = 0; i < rank_; ++i) {
    out.dims_[i] = dims_[i].intersect(o.dims_[i]);
  }
  return out;
}

bool Region::contains(const Region& o) const {
  HOMP_REQUIRE(rank() == o.rank(), "region rank mismatch in contains");
  if (o.empty()) return true;
  for (std::size_t i = 0; i < rank_; ++i) {
    if (!dims_[i].contains(o.dims_[i])) return false;
  }
  return true;
}

Region Region::with_dim(std::size_t i, const Range& r) const {
  HOMP_ASSERT(i < rank_);
  Region out = *this;
  out.dims_[i] = r;
  return out;
}

std::string Region::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < rank_; ++i) s += dims_[i].to_string();
  return s;
}

}  // namespace homp::dist
