#ifndef HOMP_SCHED_PROFILE_SCHED_H
#define HOMP_SCHED_PROFILE_SCHED_H

/// \file profile_sched.h
/// Two-stage sample-profiling schedulers (§IV-C).
///
/// Stage 1 hands every device a sample chunk — equal sizes for
/// SCHED_PROFILE_AUTO, MODEL_2-weighted sizes for MODEL_PROFILE_AUTO.
/// Devices rendezvous at a stage barrier; the measured per-chunk times
/// ("broadcast" between the proxies in the real runtime) yield observed
/// throughputs, which (after optional CUTOFF) weight the distribution of
/// the remaining iterations in stage 2. Each stage is a PartitionScheduler.

#include <memory>
#include <optional>

#include "sched/partition_sched.h"
#include "sched/scheduler.h"

namespace homp::sched {

class ProfileScheduler : public LoopScheduler {
 public:
  /// \param model_based  false: constant sample sizes (SCHED_PROFILE_AUTO);
  ///                     true: MODEL_2-weighted (MODEL_PROFILE_AUTO)
  /// \param sample_fraction total fraction of the loop consumed in stage 1
  ProfileScheduler(const LoopContext& ctx, bool model_based,
                   double sample_fraction, double cutoff_ratio,
                   long long min_chunk);

  std::optional<dist::Range> next_chunk(int slot) override;
  bool finished(int slot) const override;
  void report(int slot, const dist::Range& chunk, double seconds) override;
  int num_stages() const override { return 2; }
  bool stage_barrier_pending() const override { return !stage2_; }
  void advance_stage() override;
  std::vector<double> planned_weights() const override {
    return stage2_ ? stage2_->planned_weights() : std::vector<double>{};
  }
  const model::CutoffResult* cutoff() const override {
    return stage2_ ? stage2_->cutoff() : nullptr;
  }
  std::size_t chunks_issued() const override {
    return stage1_->chunks_issued() + (stage2_ ? stage2_->chunks_issued() : 0);
  }
  std::vector<dist::Range> deactivate(int slot) override;

  /// Observed stage-1 throughputs (iterations/second), for diagnostics.
  const std::vector<double>& observed_rates() const noexcept {
    return rates_;
  }

 private:
  dist::Range remaining_;  // iterations not consumed by stage 1
  std::vector<double> rates_;         // observed iters/sec per slot
  std::vector<bool> reported_;
  std::vector<bool> deactivated_;     // per slot, withdrawn by deactivate()
  double cutoff_ratio_;
  std::unique_ptr<PartitionScheduler> stage1_;  // one sample per slot
  std::unique_ptr<PartitionScheduler> stage2_;  // set by advance_stage()
};

}  // namespace homp::sched

#endif  // HOMP_SCHED_PROFILE_SCHED_H
