// LoopScheduler::deactivate / reactivate contract (scheduler.h): orphaned
// work is handed back exactly once, double-deactivate is idempotent,
// deactivating the last active slot with work still inside the scheduler
// throws OffloadError, and a reactivated slot serves chunks again — the
// edge the probation re-admission path in the offload runtime relies on.

#include <gtest/gtest.h>

#include "common/error.h"
#include "sched/chunk_sched.h"
#include "sched/extended_sched.h"
#include "sched/partition_sched.h"
#include "sched/profile_sched.h"

namespace homp::sched {
namespace {

LoopContext ctx(long long n, std::size_t m) {
  LoopContext c;
  c.loop = dist::Range::of_size(n);
  c.devices.resize(m);
  for (auto& d : c.devices) {
    d.peak_flops = 1e9;
    d.peak_membw_Bps = 1e9;
  }
  return c;
}

long long total_size(const std::vector<dist::Range>& rs) {
  long long n = 0;
  for (const auto& r : rs) n += r.size();
  return n;
}

TEST(Deactivate, DynamicSlotStopsServingAndSurvivorsDrain) {
  DynamicScheduler s(ctx(100, 2), /*chunk_fraction=*/0.1, /*min_chunk=*/1);
  ASSERT_TRUE(s.next_chunk(0).has_value());
  EXPECT_TRUE(s.deactivate(0).empty());  // shared cursor: nothing reserved
  EXPECT_FALSE(s.next_chunk(0).has_value());
  EXPECT_TRUE(s.finished(0));
  // The survivor drains everything the dead slot would have taken.
  long long served = 10;  // slot 0's first chunk
  while (auto c = s.next_chunk(1)) served += c->size();
  EXPECT_EQ(served, 100);
}

TEST(Deactivate, DynamicDoubleDeactivateIsIdempotent) {
  DynamicScheduler s(ctx(100, 2), 0.1, 1);
  EXPECT_TRUE(s.deactivate(0).empty());
  EXPECT_TRUE(s.deactivate(0).empty());  // no throw, no change
  EXPECT_TRUE(s.next_chunk(1).has_value());
}

TEST(Deactivate, DynamicLastActiveSlotWithRemainingWorkThrows) {
  DynamicScheduler s(ctx(100, 2), 0.1, 1);
  s.deactivate(0);
  EXPECT_THROW(s.deactivate(1), OffloadError);
}

TEST(Deactivate, DynamicLastActiveSlotWithNothingLeftIsFine) {
  DynamicScheduler s(ctx(20, 2), 0.5, 1);
  ASSERT_TRUE(s.next_chunk(0).has_value());
  ASSERT_TRUE(s.next_chunk(1).has_value());
  ASSERT_FALSE(s.next_chunk(0).has_value());  // drained
  s.deactivate(0);
  EXPECT_NO_THROW(s.deactivate(1));
}

TEST(Deactivate, DynamicReactivateServesChunksAgain) {
  DynamicScheduler s(ctx(100, 2), 0.1, 1);
  s.deactivate(0);
  ASSERT_FALSE(s.next_chunk(0).has_value());
  s.reactivate(0);
  auto c = s.next_chunk(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 10);
  // Reactivating a never-deactivated (or already active) slot is a no-op.
  s.reactivate(0);
  EXPECT_TRUE(s.next_chunk(0).has_value());
}

TEST(Deactivate, GuidedMirrorsTheDynamicContract) {
  GuidedScheduler s(ctx(1000, 2), /*fraction=*/0.5, /*min_chunk=*/1);
  ASSERT_TRUE(s.next_chunk(0).has_value());
  EXPECT_TRUE(s.deactivate(0).empty());
  EXPECT_FALSE(s.next_chunk(0).has_value());
  EXPECT_TRUE(s.deactivate(0).empty());  // idempotent
  s.reactivate(0);
  EXPECT_TRUE(s.next_chunk(0).has_value());
  s.deactivate(0);
  EXPECT_THROW(s.deactivate(1), OffloadError);
}

TEST(Deactivate, WorkStealingHandsBackTheDequeAndStopsStealing) {
  WorkStealingScheduler s(ctx(100, 2), /*grain_fraction=*/0.1,
                          /*min_chunk=*/1);
  auto first = s.next_chunk(0);
  ASSERT_TRUE(first.has_value());
  auto orphaned = s.deactivate(0);
  EXPECT_EQ(total_size(orphaned), 50 - first->size());
  EXPECT_TRUE(s.deactivate(0).empty());  // idempotent
  // A deactivated slot neither serves its deque nor steals from others.
  EXPECT_FALSE(s.next_chunk(0).has_value());
  EXPECT_TRUE(s.finished(0));
  long long survivor = 0;
  while (auto c = s.next_chunk(1)) survivor += c->size();
  EXPECT_EQ(survivor, 50);  // its own half; the orphaned half went back
}

TEST(Deactivate, WorkStealingReactivatedSlotEarnsWorkByStealing) {
  WorkStealingScheduler s(ctx(100, 2), 0.1, 1);
  auto orphaned = s.deactivate(0);
  EXPECT_EQ(total_size(orphaned), 50);
  s.reactivate(0);
  // Its own deque is gone for good (handed back above): the readmitted
  // slot cold-starts by stealing from the survivor.
  auto c = s.next_chunk(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_GE(s.steals(), 1u);
  long long served = c->size();
  while (auto n = s.next_chunk(0)) served += n->size();
  while (auto n = s.next_chunk(1)) served += n->size();
  EXPECT_EQ(served, 50);
}

TEST(Deactivate, CyclicReturnsExactlyTheSlotsRemainingBlocks) {
  CyclicScheduler s(ctx(100, 2), /*block_fraction=*/0.1, /*min_chunk=*/1);
  ASSERT_EQ(s.block_size(), 10);
  auto c = s.next_chunk(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, dist::Range(0, 10));
  // Slot 0 owns blocks 0, 2, 4, 6, 8 and consumed the first: 4 remain.
  auto orphaned = s.deactivate(0);
  EXPECT_EQ(orphaned.size(), 4u);
  EXPECT_EQ(total_size(orphaned), 40);
  EXPECT_TRUE(s.finished(0));
  EXPECT_FALSE(s.next_chunk(0).has_value());
  EXPECT_TRUE(s.deactivate(0).empty());  // idempotent
  // Slot 1's interleaved blocks are untouched.
  long long survivor = 0;
  while (auto n = s.next_chunk(1)) survivor += n->size();
  EXPECT_EQ(survivor, 50);
}

TEST(Deactivate, PartitionReturnsTheUnconsumedPartOnce) {
  auto s = PartitionScheduler::from_distribution(
      dist::Distribution::block(dist::Range::of_size(100), 2));
  auto orphaned = s->deactivate(0);
  EXPECT_EQ(total_size(orphaned), 50);
  EXPECT_TRUE(s->finished(0));
  EXPECT_FALSE(s->next_chunk(0).has_value());
  EXPECT_TRUE(s->deactivate(0).empty());  // idempotent
  // A part already served is consumed: deactivate returns nothing.
  ASSERT_TRUE(s->next_chunk(1).has_value());
  EXPECT_TRUE(s->deactivate(1).empty());
}

TEST(Deactivate, FromHistoryMatchesThePartitionContract) {
  ThroughputHistory h;
  h.record("k", 1, 1e9);
  h.record("k", 2, 1e9);
  auto s = PartitionScheduler::from_history(ctx(100, 2), h, "k", {1, 2},
                                            /*cutoff_ratio=*/0.0);
  auto orphaned = s->deactivate(0);
  EXPECT_EQ(total_size(orphaned), 50);
  EXPECT_TRUE(s->deactivate(0).empty());
  ASSERT_TRUE(s->next_chunk(1).has_value());
  EXPECT_TRUE(s->deactivate(1).empty());
}

TEST(Deactivate, ProfileSlotLostWithTheWholeSampleGetsNoStage2Work) {
  // Slot 0 is so slow that MODEL_2 gives slot 1 the whole stage-1 sample.
  // Slot 1 is lost after taking it, so no slot reports a rate and stage 2
  // falls back to an even split — over the one slot still active.
  auto c = ctx(1000, 2);
  c.devices[0].peak_flops = 1.0;
  c.devices[0].peak_membw_Bps = 1.0;
  c.kernel.flops_per_iter = 1000.0;
  c.kernel.mem_bytes_per_iter = 8.0;
  ProfileScheduler s(c, /*model_based=*/true, /*sample_fraction=*/0.1,
                     /*cutoff_ratio=*/0.0, /*min_chunk=*/1);
  EXPECT_FALSE(s.next_chunk(0).has_value());  // empty sample
  auto sample = s.next_chunk(1);
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->size(), 100);
  EXPECT_TRUE(s.deactivate(1).empty());  // issued: the runtime requeues it
  s.advance_stage();
  auto rest = s.next_chunk(0);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->lo, 100);
  EXPECT_EQ(rest->hi, 1000);
  EXPECT_TRUE(s.finished(0));
  EXPECT_FALSE(s.next_chunk(1).has_value());
}

}  // namespace
}  // namespace homp::sched
