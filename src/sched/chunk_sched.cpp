#include "sched/chunk_sched.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace homp::sched {

bool SlotLiveness::deactivate(int slot, long long remaining) {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < active_.size());
  if (!active_[static_cast<std::size_t>(slot)]) return false;
  active_[static_cast<std::size_t>(slot)] = false;
  --alive_;
  if (alive_ == 0 && remaining > 0) {
    throw OffloadError("deactivated the last active device with " +
                           std::to_string(remaining) +
                           " iterations still undistributed",
                       FailClass::kAllDevicesLost);
  }
  return true;
}

bool SlotLiveness::reactivate(int slot) {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < active_.size());
  if (active_[static_cast<std::size_t>(slot)]) return false;
  active_[static_cast<std::size_t>(slot)] = true;
  ++alive_;
  return true;
}

CursorScheduler::CursorScheduler(const LoopContext& ctx,
                                 double chunk_fraction, long long min_chunk)
    : domain_(ctx.loop), cursor_(ctx.loop.lo), live_(ctx.num_devices()) {
  HOMP_REQUIRE(chunk_fraction > 0.0 && chunk_fraction <= 1.0,
               "chunk fraction must be in (0, 1]");
  HOMP_REQUIRE(min_chunk >= 1, "min_chunk must be at least 1");
}

std::optional<dist::Range> CursorScheduler::next_chunk(int slot) {
  if (!live_.active(slot)) return std::nullopt;
  if (cursor_ >= domain_.hi) return std::nullopt;
  dist::Range r(cursor_, cursor_ + chunk_for(domain_.hi - cursor_));
  cursor_ = r.hi;
  ++issued_;
  return r;
}

bool CursorScheduler::finished(int slot) const {
  if (!live_.active(slot)) return true;
  return cursor_ >= domain_.hi;
}

std::vector<dist::Range> CursorScheduler::deactivate(int slot) {
  live_.deactivate(slot, domain_.hi - cursor_);
  return {};
}

void CursorScheduler::reactivate(int slot) { live_.reactivate(slot); }

DynamicScheduler::DynamicScheduler(const LoopContext& ctx,
                                   double chunk_fraction, long long min_chunk)
    : CursorScheduler(ctx, chunk_fraction, min_chunk),
      chunk_(std::max(min_chunk,
                      static_cast<long long>(std::llround(
                          chunk_fraction *
                          static_cast<double>(ctx.loop.size()))))) {}

GuidedScheduler::GuidedScheduler(const LoopContext& ctx,
                                 double chunk_fraction, long long min_chunk)
    : CursorScheduler(ctx, chunk_fraction, min_chunk),
      fraction_(chunk_fraction),
      min_chunk_(min_chunk) {}

long long GuidedScheduler::chunk_for(long long remaining) const {
  return std::min(remaining,
                  std::max(min_chunk_,
                           static_cast<long long>(std::ceil(
                               fraction_ * static_cast<double>(remaining)))));
}

}  // namespace homp::sched
