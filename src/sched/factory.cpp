#include "common/error.h"
#include "sched/chunk_sched.h"
#include "sched/extended_sched.h"
#include "sched/partition_sched.h"
#include "sched/profile_sched.h"
#include "sched/scheduler.h"

namespace homp::sched {

std::unique_ptr<LoopScheduler> make_scheduler(const SchedulerConfig& config,
                                              const LoopContext& context) {
  HOMP_REQUIRE(context.num_devices() > 0, "offload has no devices");
  HOMP_REQUIRE(context.devices.size() < 1u << 16, "absurd device count");
  switch (config.kind) {
    case AlgorithmKind::kBlock:
      return PartitionScheduler::block(context);
    case AlgorithmKind::kDynamic:
      return std::make_unique<DynamicScheduler>(
          context, config.dynamic_chunk_fraction, config.min_chunk);
    case AlgorithmKind::kGuided:
      return std::make_unique<GuidedScheduler>(
          context, config.guided_chunk_fraction, config.min_chunk);
    case AlgorithmKind::kModel1Auto:
    case AlgorithmKind::kModel2Auto:
      return PartitionScheduler::from_model(context, config.kind,
                                            config.cutoff_ratio);
    case AlgorithmKind::kSchedProfileAuto:
      return std::make_unique<ProfileScheduler>(
          context, /*model_based=*/false, config.sample_fraction,
          config.cutoff_ratio, config.min_chunk);
    case AlgorithmKind::kModelProfileAuto:
      return std::make_unique<ProfileScheduler>(
          context, /*model_based=*/true, config.sample_fraction,
          config.cutoff_ratio, config.min_chunk);
    case AlgorithmKind::kCyclic:
      return std::make_unique<CyclicScheduler>(
          context, config.cyclic_block_fraction, config.min_chunk,
          config.cyclic_absolute_block);
    case AlgorithmKind::kWorkStealing:
      return std::make_unique<WorkStealingScheduler>(
          context, config.steal_grain_fraction, config.min_chunk);
    case AlgorithmKind::kHistoryAuto:
      HOMP_REQUIRE(config.history != nullptr,
                   "HISTORY_AUTO needs a ThroughputHistory (use the "
                   "Runtime facade, which provides one)");
      return PartitionScheduler::from_history(
          context, *config.history, config.history_kernel,
          config.history_device_ids, config.cutoff_ratio);
  }
  throw ConfigError("unhandled algorithm kind");
}

}  // namespace homp::sched
