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

  stage1_ = model_based
                ? PartitionScheduler::from_weights(
                      sample_domain,
                      model::model2_weights(ctx.kernel, ctx.devices), 0.0)
                : PartitionScheduler::from_distribution(
                      dist::Distribution::block(sample_domain, m));
  rates_.assign(m, 0.0);
  deactivated_.assign(m, false);
  // A device with an empty sample has nothing to report; the stage
  // transition does not wait on it.
  reported_.assign(m, false);
  for (std::size_t s = 0; s < m; ++s) {
    reported_[s] = stage1_->distribution().part(s).empty();
  }
}

std::optional<dist::Range> ProfileScheduler::next_chunk(int slot) {
  return (stage2_ ? stage2_ : stage1_)->next_chunk(slot);
}

bool ProfileScheduler::finished(int slot) const {
  return stage2_ && stage2_->finished(slot);
}

void ProfileScheduler::report(int slot, const dist::Range& chunk,
                              double seconds) {
  if (stage2_) return;  // stage-2 timings are not fed back
  const auto s = static_cast<std::size_t>(slot);
  HOMP_ASSERT(s < rates_.size());
  HOMP_REQUIRE(seconds >= 0.0, "negative chunk time reported");
  // Guard zero-duration samples (idealized devices on tiny chunks) with a
  // very small floor so the rate stays finite.
  rates_[s] = static_cast<double>(chunk.size()) / std::max(seconds, 1e-12);
  reported_[s] = true;
}

void ProfileScheduler::advance_stage() {
  HOMP_REQUIRE(!stage2_, "advance_stage called twice");
  for (std::size_t s = 0; s < reported_.size(); ++s) {
    HOMP_REQUIRE(reported_[s],
                 "stage barrier released before all samples reported");
  }

  double total_rate = 0.0;
  for (double r : rates_) total_rate += r;
  std::vector<double> weights;
  if (total_rate <= 0.0) {
    // No device demonstrated throughput (all samples empty or lost) — fall
    // back to an even split over the slots still active.
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
  stage2_ = PartitionScheduler::from_weights(remaining_, std::move(weights),
                                             cutoff_ratio_);
  // A slot withdrawn in stage 1 reported a zero rate, so its stage-2 part
  // is empty; withdraw it from stage 2 as well.
  for (std::size_t s = 0; s < deactivated_.size(); ++s) {
    if (deactivated_[s]) stage2_->deactivate(static_cast<int>(s));
  }
}

std::vector<dist::Range> ProfileScheduler::deactivate(int slot) {
  if (stage2_) return stage2_->deactivate(slot);
  // The slot's unissued sample is orphaned; an issued-but-unfinished
  // sample is the runtime's to requeue. Either way the slot reports a
  // zero rate so the stage barrier can release without it and stage 2
  // plans it no work.
  const auto s = static_cast<std::size_t>(slot);
  HOMP_ASSERT(s < rates_.size());
  deactivated_[s] = true;
  rates_[s] = 0.0;
  reported_[s] = true;
  return stage1_->deactivate(slot);
}

}  // namespace homp::sched
