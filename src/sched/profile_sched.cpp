#include "sched/profile_sched.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "dist/distribution.h"

namespace homp::sched {

ProfileScheduler::ProfileScheduler(const LoopContext& ctx, bool model_based,
                                   double sample_fraction,
                                   double cutoff_ratio, long long min_chunk)
    : cutoff_ratio_(cutoff_ratio) {
  HOMP_REQUIRE(ctx.num_devices() > 0, "no devices to schedule onto");
  HOMP_REQUIRE(sample_fraction > 0.0 && sample_fraction < 1.0,
               "sample fraction must be in (0, 1)");
  HOMP_REQUIRE(min_chunk >= 1, "min_chunk must be at least 1");
  const std::size_t m = ctx.num_devices();

  const long long n = ctx.loop.size();
  long long sample_total = std::max(
      static_cast<long long>(m) * min_chunk,
      static_cast<long long>(
          std::llround(sample_fraction * static_cast<double>(n))));
  sample_total = std::min(sample_total, n);
  const dist::Range sample_domain(ctx.loop.lo, ctx.loop.lo + sample_total);
  remaining_ = dist::Range(sample_domain.hi, ctx.loop.hi);

  dist::Distribution stage1 =
      model_based
          ? dist::Distribution::by_weights(
                sample_domain, model::model2_weights(ctx.kernel, ctx.devices))
          : dist::Distribution::block(sample_domain, m);
  sample_ = stage1.parts();

  handed_out_[0].assign(m, false);
  handed_out_[1].assign(m, false);
  rates_.assign(m, 0.0);
  reported_.assign(m, false);
  deactivated_.assign(m, false);
  final_.assign(m, dist::Range());
}

std::optional<dist::Range> ProfileScheduler::next_chunk(int slot) {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < sample_.size());
  const auto s = static_cast<std::size_t>(slot);
  auto& handed = handed_out_[stage_ - 1];
  if (handed[s]) return std::nullopt;
  handed[s] = true;
  const dist::Range chunk = stage_ == 1 ? sample_[s] : final_[s];
  if (chunk.empty()) {
    // A device with an empty sample has nothing to report; mark it so the
    // stage transition does not wait on it.
    if (stage_ == 1) reported_[s] = true;
    return std::nullopt;
  }
  ++issued_;
  return chunk;
}

bool ProfileScheduler::finished(int slot) const {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < sample_.size());
  const auto s = static_cast<std::size_t>(slot);
  return stage_ == 2 && (handed_out_[1][s] || final_[s].empty());
}

void ProfileScheduler::report(int slot, const dist::Range& chunk,
                              double seconds) {
  if (stage_ != 1) return;  // stage-2 timings are not fed back
  const auto s = static_cast<std::size_t>(slot);
  HOMP_ASSERT(s < rates_.size());
  HOMP_REQUIRE(seconds >= 0.0, "negative chunk time reported");
  // Guard zero-duration samples (idealized devices on tiny chunks) with a
  // very small floor so the rate stays finite.
  rates_[s] = static_cast<double>(chunk.size()) / std::max(seconds, 1e-12);
  reported_[s] = true;
}

void ProfileScheduler::advance_stage() {
  HOMP_REQUIRE(stage_ == 1, "advance_stage called twice");
  for (std::size_t s = 0; s < reported_.size(); ++s) {
    HOMP_REQUIRE(reported_[s],
                 "stage barrier released before all samples reported");
  }
  stage_ = 2;

  double total_rate = 0.0;
  for (double r : rates_) total_rate += r;
  std::vector<double> weights;
  if (total_rate <= 0.0) {
    // No device demonstrated throughput (all samples empty or lost) — fall
    // back to an even split over the slots still active. A deactivated
    // slot's stage-2 part is already marked handed out, so any share it
    // got here would never be served.
    const auto active = static_cast<double>(
        std::count(deactivated_.begin(), deactivated_.end(), false));
    weights.assign(rates_.size(), 0.0);
    for (std::size_t s = 0; s < weights.size(); ++s) {
      if (!deactivated_[s]) weights[s] = 1.0 / active;
    }
    HOMP_WARN << "profiling produced no throughput data; falling back to "
                 "even distribution";
  } else {
    weights = model::weights_from_rates(rates_);
  }

  if (cutoff_ratio_ > 0.0) {
    cutoff_ = model::apply_cutoff(weights, cutoff_ratio_);
    has_cutoff_ = true;
    weights = cutoff_.weights;
    if (cutoff_.num_selected < static_cast<int>(rates_.size())) {
      HOMP_INFO << "profiling CUTOFF kept " << cutoff_.num_selected << "/"
                << rates_.size() << " devices for stage 2";
    }
  }
  stage2_weights_ = weights;
  final_ = dist::Distribution::by_weights(remaining_, weights).parts();
}

std::vector<double> ProfileScheduler::planned_weights() const {
  return stage2_weights_;
}

std::vector<dist::Range> ProfileScheduler::deactivate(int slot) {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < sample_.size());
  const auto s = static_cast<std::size_t>(slot);
  deactivated_[s] = true;
  std::vector<dist::Range> orphaned;
  if (stage_ == 1) {
    // The slot's unissued sample is orphaned; an issued-but-unfinished
    // sample is the runtime's to requeue. Either way the slot reports a
    // zero rate so the stage barrier can release without it and stage 2
    // plans it no work.
    if (!handed_out_[0][s] && !sample_[s].empty()) {
      orphaned.push_back(sample_[s]);
    }
    handed_out_[0][s] = true;
    rates_[s] = 0.0;
    reported_[s] = true;
  } else if (!handed_out_[1][s] && !final_[s].empty()) {
    orphaned.push_back(final_[s]);
  }
  handed_out_[1][s] = true;
  return orphaned;
}

}  // namespace homp::sched
