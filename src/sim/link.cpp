#include "sim/link.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace homp::sim {

namespace {
// Completion slop: transfers whose remaining bytes fall below this are
// done. Rounding enters through `now - last_update` (catastrophic
// cancellation once the virtual clock is large), scaled by bandwidth when
// converted to bytes — so the slop must carry a bandwidth*clock term in
// addition to the per-transfer relative one. All terms stay far below one
// cache line's worth of timing effect.
bool is_done(double remaining, double total, double bandwidth, double now) {
  const double eps =
      1e-6 + total * 1e-9 + bandwidth * (now + 1.0) * 1e-13;
  return remaining <= eps;
}
}  // namespace

SharedLink::SharedLink(Engine& engine, std::string name, double latency_s,
                       double bytes_per_s)
    : engine_(engine),
      name_(std::move(name)),
      latency_(latency_s),
      bandwidth_(bytes_per_s) {
  HOMP_REQUIRE(latency_s >= 0.0, "link latency must be non-negative");
  HOMP_REQUIRE(bytes_per_s > 0.0, "link bandwidth must be positive");
}

void SharedLink::transfer(double bytes, Callback done) {
  HOMP_REQUIRE(bytes >= 0.0, "transfer size must be non-negative");
  HOMP_ASSERT(done);
  // Drop the admitted prefix once it is at least half the queue: the
  // queue then holds little beyond the transfers still paying latency,
  // at amortized O(1) per transfer.
  if (waiting_head_ * 2 >= waiting_.size()) {
    waiting_.erase(waiting_.begin(),
                   waiting_.begin() + static_cast<std::ptrdiff_t>(waiting_head_));
    waiting_head_ = 0;
  }
  waiting_.push_back(Transfer{bytes, bytes, std::move(done)});
  // The fixed latency is paid before the transfer contends for bandwidth.
  engine_.schedule_after(latency_, [this] { admit(); });
}

void SharedLink::reset() {
  waiting_.clear();
  waiting_head_ = 0;
  active_.clear();
  finished_.clear();
  last_update_ = 0.0;
  pending_event_ = 0;
  has_pending_event_ = false;
  bytes_delivered_ = 0.0;
  busy_time_ = 0.0;
  completed_ = 0;
}

void SharedLink::admit() {
  advance();
  active_.push_back(std::move(waiting_[waiting_head_++]));
  reschedule();
}

void SharedLink::advance() {
  const Time now = engine_.now();
  const Time elapsed = now - last_update_;
  last_update_ = now;
  if (active_.empty() || elapsed <= 0.0) return;
  busy_time_ += elapsed;
  const double per_transfer =
      elapsed * bandwidth_ / static_cast<double>(active_.size());
  for (auto& a : active_) a.remaining -= per_transfer;
}

void SharedLink::reschedule() {
  if (has_pending_event_) {
    engine_.cancel(pending_event_);
    has_pending_event_ = false;
  }
  if (active_.empty()) return;
  double min_remaining = active_.front().remaining;
  for (const auto& a : active_) min_remaining = std::min(min_remaining, a.remaining);
  min_remaining = std::max(min_remaining, 0.0);
  const Time dt =
      min_remaining * static_cast<double>(active_.size()) / bandwidth_;
  pending_event_ = engine_.schedule_after(dt, [this] { on_completion_event(); });
  has_pending_event_ = true;
}

void SharedLink::on_completion_event() {
  has_pending_event_ = false;
  advance();
  // Collect finished transfers first, keeping the rest in admission
  // order: a done-callback may start a new transfer on this same link
  // re-entrantly. The local buffer takes the reused capacity, so a
  // callback that throws cannot leave stale entries behind.
  std::vector<Callback> finished;
  finished.swap(finished_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Transfer& a = active_[i];
    if (is_done(a.remaining, a.total, bandwidth_, engine_.now())) {
      bytes_delivered_ += a.total;
      finished.push_back(std::move(a.done));
      ++completed_;
    } else {
      if (kept != i) active_[kept] = std::move(a);
      ++kept;
    }
  }
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                active_.end());
  HOMP_ASSERT(!finished.empty());
  reschedule();
  for (auto& cb : finished) cb();
  finished.clear();
  finished_.swap(finished);
}

}  // namespace homp::sim
