#ifndef HOMP_SCHED_PARTITION_SCHED_H
#define HOMP_SCHED_PARTITION_SCHED_H

/// \file partition_sched.h
/// Single-stage schedulers that compute the whole partition up front:
/// BLOCK (even chunks), the two analytical models and HISTORY_AUTO
/// (weight-proportional chunks, optionally CUTOFF-filtered). One chunk per
/// device, handed out on first request.

#include <optional>
#include <string>

#include "dist/distribution.h"
#include "sched/scheduler.h"

namespace homp::sched {

class PartitionScheduler : public LoopScheduler {
 public:
  /// BLOCK.
  static std::unique_ptr<PartitionScheduler> block(const LoopContext& ctx);

  /// MODEL_1_AUTO / MODEL_2_AUTO; `cutoff_ratio` <= 0 disables selection.
  static std::unique_ptr<PartitionScheduler> from_model(
      const LoopContext& ctx, AlgorithmKind kind, double cutoff_ratio);

  /// HISTORY_AUTO, Qilin-like ([21]; the paper's "improving prediction
  /// models" future work): weights proportional to the throughput each
  /// device demonstrated on `kernel_name` in earlier offloads, with
  /// MODEL_2 rates for devices the history has not seen, so a fresh device
  /// is not starved and can earn history. `device_ids` are the global ids
  /// per slot: history is keyed by device, not slot.
  static std::unique_ptr<PartitionScheduler> from_history(
      const LoopContext& ctx, const ThroughputHistory& history,
      const std::string& kernel_name, const std::vector<int>& device_ids,
      double cutoff_ratio);

  /// Partition `loop` in proportion to `weights`, after CUTOFF when
  /// `cutoff_ratio` > 0 — the one weighted step of every algorithm above
  /// and of the profiling schedulers' second stage.
  static std::unique_ptr<PartitionScheduler> from_weights(
      const dist::Range& loop, std::vector<double> weights,
      double cutoff_ratio);

  /// Loop distribution dictated externally — dist_schedule(target:
  /// [ALIGN(x)]) copies the array's distribution onto the loop (§III-3
  /// "align computation with data").
  static std::unique_ptr<PartitionScheduler> from_distribution(
      dist::Distribution d);

  std::optional<dist::Range> next_chunk(int slot) override;
  bool finished(int slot) const override;
  std::vector<double> planned_weights() const override { return weights_; }
  const model::CutoffResult* cutoff() const override {
    return has_cutoff_ ? &cutoff_ : nullptr;
  }
  std::size_t chunks_issued() const override { return issued_; }
  std::vector<dist::Range> deactivate(int slot) override;

  /// The partition, one part per slot.
  const dist::Distribution& distribution() const noexcept { return dist_; }

 private:
  PartitionScheduler(dist::Distribution d, std::vector<double> weights);

  dist::Distribution dist_;
  std::vector<double> weights_;
  std::vector<bool> consumed_;
  model::CutoffResult cutoff_;
  bool has_cutoff_ = false;
  std::size_t issued_ = 0;
};

}  // namespace homp::sched

#endif  // HOMP_SCHED_PARTITION_SCHED_H
