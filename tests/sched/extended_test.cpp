// Extended schedulers: CYCLIC, WORK_STEALING, HISTORY_AUTO.

#include "sched/extended_sched.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "kernels/axpy.h"
#include "machine/profiles.h"
#include "runtime/runtime.h"
#include "sched/partition_sched.h"

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
  c.kernel.flops_per_iter = 1.0;
  c.kernel.mem_bytes_per_iter = 8.0;
  return c;
}

TEST(CyclicScheduler, RoundRobinBlocks) {
  CyclicScheduler s(ctx(100, 3), /*fraction=*/0.1, 1);  // blocks of 10
  EXPECT_EQ(s.block_size(), 10);
  EXPECT_EQ(*s.next_chunk(0), dist::Range(0, 10));
  EXPECT_EQ(*s.next_chunk(1), dist::Range(10, 20));
  EXPECT_EQ(*s.next_chunk(2), dist::Range(20, 30));
  EXPECT_EQ(*s.next_chunk(0), dist::Range(30, 40));  // slot 0's 2nd block
  EXPECT_EQ(*s.next_chunk(2), dist::Range(50, 60));
  EXPECT_FALSE(s.finished(1));
}

TEST(CyclicScheduler, AssignmentIsStaticPerSlot) {
  // Unlike dynamic chunking, slot k's blocks are fixed: k, k+M, k+2M, ...
  CyclicScheduler a(ctx(90, 3), 0.1, 1);
  long long covered = 0;
  for (int slot = 0; slot < 3; ++slot) {
    long long expect_lo = slot * 9;  // block = 9
    while (auto c = a.next_chunk(slot)) {
      EXPECT_EQ(c->lo, expect_lo);
      expect_lo += 3 * 9;
      covered += c->size();
    }
    EXPECT_TRUE(a.finished(slot));
  }
  EXPECT_EQ(covered, 90);
}

TEST(CyclicScheduler, AbsoluteBlockOverridesFraction) {
  CyclicScheduler s(ctx(100, 2), 0.5, 1, /*absolute_block=*/7);
  EXPECT_EQ(s.block_size(), 7);
  EXPECT_EQ(*s.next_chunk(1), dist::Range(7, 14));
  // Tail block is truncated.
  CyclicScheduler t(ctx(10, 1), 0.5, 1, 7);
  EXPECT_EQ(t.next_chunk(0)->size(), 7);
  EXPECT_EQ(t.next_chunk(0)->size(), 3);
}

TEST(WorkStealingScheduler, ServesOwnDequeFirst) {
  WorkStealingScheduler s(ctx(100, 2), /*grain=*/0.1, 1);
  EXPECT_EQ(*s.next_chunk(0), dist::Range(0, 10));
  EXPECT_EQ(*s.next_chunk(0), dist::Range(10, 20));
  EXPECT_EQ(*s.next_chunk(1), dist::Range(50, 60));
  EXPECT_EQ(s.steals(), 0u);
}

TEST(WorkStealingScheduler, IdleDeviceStealsHalf) {
  WorkStealingScheduler s(ctx(100, 2), 0.1, 1);
  // Drain slot 0's own half entirely.
  for (int i = 0; i < 5; ++i) s.next_chunk(0);
  EXPECT_EQ(s.steals(), 0u);
  // Next request steals the back half of slot 1's untouched [50,100).
  auto stolen = *s.next_chunk(0);
  EXPECT_EQ(s.steals(), 1u);
  EXPECT_EQ(stolen, dist::Range(75, 85));
  // Victim keeps its front.
  EXPECT_EQ(*s.next_chunk(1), dist::Range(50, 60));
}

TEST(WorkStealingScheduler, TerminatesAndCoversExactly) {
  WorkStealingScheduler s(ctx(997, 3), 0.03, 1);
  std::vector<dist::Range> chunks;
  int slot = 0;
  int idle_rounds = 0;
  while (!s.finished(0)) {
    auto c = s.next_chunk(slot % 3);
    ++slot;
    if (c) {
      chunks.push_back(*c);
      idle_rounds = 0;
    } else {
      ASSERT_LT(++idle_rounds, 10) << "no progress";
    }
  }
  EXPECT_TRUE(exactly_covers(dist::Range(0, 997), chunks));
}

TEST(ThroughputHistory, EwmaBlending) {
  ThroughputHistory h;
  EXPECT_FALSE(h.has("axpy", 1));
  EXPECT_EQ(h.rate("axpy", 1), 0.0);
  h.record("axpy", 1, 100.0);
  EXPECT_EQ(h.rate("axpy", 1), 100.0);
  h.record("axpy", 1, 200.0, 0.5);
  EXPECT_EQ(h.rate("axpy", 1), 150.0);
  // Keys are (kernel, device).
  h.record("axpy", 2, 50.0);
  h.record("sum", 1, 7.0);
  EXPECT_EQ(h.rate("axpy", 2), 50.0);
  EXPECT_EQ(h.rate("sum", 1), 7.0);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_THROW(h.record("x", 0, -1.0), homp::ConfigError);
}

TEST(ThroughputHistory, TextRoundTrip) {
  ThroughputHistory h;
  h.record("axpy", 0, 123.456);
  h.record("axpy", 3, 1e9);
  h.record("mat mul", 1, 0.25);  // names may contain spaces
  ThroughputHistory h2;
  h2.merge_text(h.to_text());
  EXPECT_EQ(h2.size(), 3u);
  EXPECT_EQ(h2.rate("axpy", 0), h.rate("axpy", 0));
  EXPECT_EQ(h2.rate("axpy", 3), h.rate("axpy", 3));
  EXPECT_EQ(h2.rate("mat mul", 1), 0.25);
}

TEST(ThroughputHistory, MergeOverwritesExisting) {
  ThroughputHistory h;
  h.record("k", 0, 1.0);
  h.merge_text("k\t0\t99\nother\t2\t5\n");
  EXPECT_EQ(h.rate("k", 0), 99.0);
  EXPECT_EQ(h.rate("other", 2), 5.0);
}

/// The ConfigError merge_text throws for `text`, or "" when it throws none.
std::string merge_error(const std::string& text) {
  ThroughputHistory h;
  try {
    h.merge_text(text);
  } catch (const homp::ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(ThroughputHistory, DeviceWithTrailingCharactersFailsAtItsLine) {
  EXPECT_EQ(merge_error("k\t0\t1\naxpy\t2x\t1.5\n"),
            "throughput history line 2: device needs an integer, got '2x' "
            "(trailing characters after the number)");
}

TEST(ThroughputHistory, FractionalDeviceFailsAtItsLine) {
  EXPECT_EQ(merge_error("axpy\t1.9\t1.5\n"),
            "throughput history line 1: device needs an integer, got '1.9' "
            "(trailing characters after the number)");
}

TEST(ThroughputHistory, RateWithTrailingCharactersFailsAtItsLine) {
  EXPECT_EQ(merge_error("k\t0\t1\n\naxpy\t1\t1.5junk\n"),
            "throughput history line 3: rate needs a number, got '1.5junk' "
            "(trailing characters after the number)");
}

TEST(ThroughputHistory, MalformedTextRejected) {
  ThroughputHistory h;
  EXPECT_THROW(h.merge_text("no tabs here"), homp::ConfigError);
  EXPECT_THROW(h.merge_text("k\tx\t1.0\n"), homp::ConfigError);
  EXPECT_THROW(h.merge_text("k\t0\tfast\n"), homp::ConfigError);
  EXPECT_THROW(h.merge_text("k\t0\t-3\n"), homp::ConfigError);
  EXPECT_THROW(h.merge_text("\t0\t3\n"), homp::ConfigError);
}

TEST(ThroughputHistory, ClearEmptiesTheStore) {
  ThroughputHistory h;
  h.record("axpy", 0, 10.0);
  h.record("sum", 1, 20.0);
  h.clear();
  EXPECT_EQ(h.size(), 0u);
  EXPECT_FALSE(h.has("axpy", 0));
  h.record("axpy", 0, 5.0);  // usable after clear
  EXPECT_EQ(h.rate("axpy", 0), 5.0);
}

TEST(ThroughputHistory, CapacityEvictsOldestEntries) {
  // A long-lived runtime records one entry per (kernel, device) pair ever
  // offloaded; the cap bounds the store, evicting in insertion order.
  ThroughputHistory h;
  EXPECT_EQ(h.capacity(), ThroughputHistory::kDefaultCapacity);
  h.set_capacity(3);
  h.record("k0", 0, 1.0);
  h.record("k1", 0, 2.0);
  h.record("k2", 0, 3.0);
  h.record("k3", 0, 4.0);  // evicts k0
  EXPECT_EQ(h.size(), 3u);
  EXPECT_FALSE(h.has("k0", 0));
  EXPECT_TRUE(h.has("k1", 0));
  EXPECT_TRUE(h.has("k3", 0));

  // Updating an existing entry is not an insertion: nothing is evicted.
  h.record("k1", 0, 20.0, /*alpha=*/1.0);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.rate("k1", 0), 20.0);
  EXPECT_TRUE(h.has("k2", 0));

  // Shrinking below the current size evicts immediately, oldest first.
  h.set_capacity(1);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_TRUE(h.has("k3", 0));
  EXPECT_THROW(h.set_capacity(0), homp::ConfigError);
}

TEST(ThroughputHistory, DefaultCapBoundsUnboundedRecording) {
  ThroughputHistory h;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    h.record(key, 0, 1.0 + i);
  }
  EXPECT_EQ(h.size(), ThroughputHistory::kDefaultCapacity);
  EXPECT_FALSE(h.has("k0", 0));      // oldest evicted
  EXPECT_TRUE(h.has("k1999", 0));    // newest kept
}

TEST(ThroughputHistory, FileRoundTrip) {
  ThroughputHistory h;
  h.record("sum", 5, 42.5);
  const std::string path = "/tmp/homp_history_test.tsv";
  h.save_file(path);
  ThroughputHistory h2;
  h2.load_file(path);
  EXPECT_EQ(h2.rate("sum", 5), 42.5);
  EXPECT_THROW(h2.load_file("/nonexistent/h.tsv"), homp::ConfigError);
}

TEST(FromHistory, SplitsByRecordedRates) {
  ThroughputHistory h;
  h.record("k", 10, 300.0);
  h.record("k", 11, 100.0);
  auto s = PartitionScheduler::from_history(ctx(100, 2), h, "k", {10, 11},
                                            0.0);
  // Every device has history, so the recorded rates alone set the weights.
  EXPECT_EQ(s->planned_weights(), (std::vector<double>{0.75, 0.25}));
  EXPECT_EQ(s->next_chunk(0)->size(), 75);
  EXPECT_EQ(s->next_chunk(1)->size(), 25);
  EXPECT_TRUE(s->finished(0));
}

TEST(FromHistory, FallsBackToModelForUnseenDevices) {
  ThroughputHistory h;
  h.record("k", 10, 300.0);
  const LoopContext c = ctx(100, 2);
  auto s = PartitionScheduler::from_history(c, h, "k", {10, 99}, 0.0);
  // Device 99 has no history: its MODEL_2 rate stands in for one.
  const double model_rate =
      1.0 / model::model2_iter_time(c.kernel, c.devices[1]);
  EXPECT_DOUBLE_EQ(s->planned_weights()[1],
                   model_rate / (300.0 + model_rate));
  // The unseen device still gets a share (model fallback), so it can earn
  // history.
  EXPECT_GT(s->next_chunk(1)->size(), 0);
}

TEST(FromHistory, CutoffApplies) {
  ThroughputHistory h;
  h.record("k", 1, 100.0);
  h.record("k", 2, 100.0);
  h.record("k", 3, 1.0);
  auto s = PartitionScheduler::from_history(ctx(100, 3), h, "k", {1, 2, 3},
                                            0.15);
  ASSERT_NE(s->cutoff(), nullptr);
  EXPECT_EQ(s->cutoff()->num_selected, 2);
  EXPECT_FALSE(s->next_chunk(2).has_value());
}

TEST(HistoryIntegration, SecondOffloadUsesObservedRates) {
  // End-to-end: a first offload (any algorithm) trains the runtime's
  // history; a HISTORY_AUTO offload then splits by what devices actually
  // delivered — on the heterogeneous machine that beats a BLOCK split.
  auto rt = rt::Runtime::from_builtin("full");
  kern::AxpyCase c(4'000'000, /*materialize=*/false);
  auto maps = c.maps();
  auto kernel = c.kernel();

  rt::OffloadOptions warm;
  warm.device_ids = rt.all_devices();
  warm.sched.kind = sched::AlgorithmKind::kBlock;
  warm.execute_bodies = false;
  const double t_block = rt.offload(kernel, maps, warm).total_time;
  EXPECT_TRUE(rt.history().has("axpy", 0));

  rt::OffloadOptions hist;
  hist.device_ids = rt.all_devices();
  hist.sched.kind = sched::AlgorithmKind::kHistoryAuto;
  hist.execute_bodies = false;
  const auto res = rt.offload(kernel, maps, hist);
  EXPECT_LT(res.total_time, t_block);
  // And the second history run refines further (or at least holds).
  const auto res2 = rt.offload(kernel, maps, hist);
  EXPECT_LT(res2.total_time, t_block);
}

TEST(HistoryIntegration, WithoutRuntimeFacadeRequiresStore) {
  SchedulerConfig cfg;
  cfg.kind = AlgorithmKind::kHistoryAuto;
  EXPECT_THROW(make_scheduler(cfg, ctx(10, 1)), homp::ConfigError);
}

}  // namespace
}  // namespace homp::sched
