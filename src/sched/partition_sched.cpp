#include "sched/partition_sched.h"

#include "common/error.h"
#include "common/log.h"
#include "sched/extended_sched.h"  // ThroughputHistory

namespace homp::sched {

PartitionScheduler::PartitionScheduler(dist::Distribution d,
                                       std::vector<double> weights)
    : dist_(std::move(d)),
      weights_(std::move(weights)),
      consumed_(dist_.num_parts(), false) {}

std::unique_ptr<PartitionScheduler> PartitionScheduler::block(
    const LoopContext& ctx) {
  HOMP_REQUIRE(ctx.num_devices() > 0, "no devices to schedule onto");
  auto d = dist::Distribution::block(ctx.loop, ctx.num_devices());
  std::vector<double> w(ctx.num_devices(),
                        1.0 / static_cast<double>(ctx.num_devices()));
  return std::unique_ptr<PartitionScheduler>(
      new PartitionScheduler(std::move(d), std::move(w)));
}

std::unique_ptr<PartitionScheduler> PartitionScheduler::from_model(
    const LoopContext& ctx, AlgorithmKind kind, double cutoff_ratio) {
  HOMP_REQUIRE(ctx.num_devices() > 0, "no devices to schedule onto");
  HOMP_REQUIRE(kind == AlgorithmKind::kModel1Auto ||
                   kind == AlgorithmKind::kModel2Auto,
               "from_model expects an analytical-model algorithm");
  return from_weights(ctx.loop,
                      kind == AlgorithmKind::kModel1Auto
                          ? model::model1_weights(ctx.kernel, ctx.devices)
                          : model::model2_weights(ctx.kernel, ctx.devices),
                      cutoff_ratio);
}

std::unique_ptr<PartitionScheduler> PartitionScheduler::from_history(
    const LoopContext& ctx, const ThroughputHistory& history,
    const std::string& kernel_name, const std::vector<int>& device_ids,
    double cutoff_ratio) {
  HOMP_REQUIRE(ctx.num_devices() > 0, "no devices to schedule onto");
  HOMP_REQUIRE(device_ids.size() == ctx.num_devices(),
               "device id list does not match context");
  std::vector<double> rates(ctx.num_devices(), 0.0);
  std::size_t unseen = 0;
  for (std::size_t s = 0; s < rates.size(); ++s) {
    if (history.has(kernel_name, device_ids[s])) {
      rates[s] = history.rate(kernel_name, device_ids[s]);
    } else {
      ++unseen;
      rates[s] = 1.0 / model::model2_iter_time(ctx.kernel, ctx.devices[s]);
    }
  }
  if (unseen > 0) {
    HOMP_DEBUG << "history incomplete for '" << kernel_name << "'; MODEL_2 "
               << "fills " << unseen << " of " << rates.size() << " slots";
  }
  return from_weights(ctx.loop, model::weights_from_rates(rates),
                      cutoff_ratio);
}

std::unique_ptr<PartitionScheduler> PartitionScheduler::from_weights(
    const dist::Range& loop, std::vector<double> weights,
    double cutoff_ratio) {
  model::CutoffResult cut;
  if (cutoff_ratio > 0.0) {
    cut = model::apply_cutoff(weights, cutoff_ratio);
    if (cut.num_selected < static_cast<int>(weights.size())) {
      HOMP_INFO << "CUTOFF(" << cutoff_ratio << ") kept "
                << cut.num_selected << "/" << weights.size() << " devices";
    }
    weights = cut.weights;
  }
  auto d = dist::Distribution::by_weights(loop, weights);
  std::unique_ptr<PartitionScheduler> sched(
      new PartitionScheduler(std::move(d), std::move(weights)));
  sched->cutoff_ = std::move(cut);
  sched->has_cutoff_ = cutoff_ratio > 0.0;
  return sched;
}

std::unique_ptr<PartitionScheduler> PartitionScheduler::from_distribution(
    dist::Distribution d) {
  HOMP_REQUIRE(d.num_parts() > 0, "empty distribution for loop scheduling");
  const double total = static_cast<double>(d.domain().size());
  std::vector<double> w(d.num_parts(), 0.0);
  if (total > 0.0) {
    for (std::size_t i = 0; i < d.num_parts(); ++i) {
      w[i] = static_cast<double>(d.part(i).size()) / total;
    }
  }
  return std::unique_ptr<PartitionScheduler>(
      new PartitionScheduler(std::move(d), std::move(w)));
}

std::optional<dist::Range> PartitionScheduler::next_chunk(int slot) {
  HOMP_ASSERT(slot >= 0 &&
              static_cast<std::size_t>(slot) < consumed_.size());
  const auto s = static_cast<std::size_t>(slot);
  if (consumed_[s]) return std::nullopt;
  consumed_[s] = true;
  const dist::Range part = dist_.part(s);
  if (part.empty()) return std::nullopt;
  ++issued_;
  return part;
}

std::vector<dist::Range> PartitionScheduler::deactivate(int slot) {
  HOMP_ASSERT(slot >= 0 &&
              static_cast<std::size_t>(slot) < consumed_.size());
  const auto s = static_cast<std::size_t>(slot);
  if (consumed_[s]) return {};
  consumed_[s] = true;
  const dist::Range part = dist_.part(s);
  if (part.empty()) return {};
  return {part};
}

bool PartitionScheduler::finished(int slot) const {
  HOMP_ASSERT(slot >= 0 &&
              static_cast<std::size_t>(slot) < consumed_.size());
  const auto s = static_cast<std::size_t>(slot);
  return consumed_[s] || dist_.part(s).empty();
}

}  // namespace homp::sched
