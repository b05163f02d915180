// The fault model must be deterministic (same seed + script => same fault
// sequence) and script placement must be exact — the recovery tests in
// tests/runtime/failure_test.cpp depend on both.

#include "sim/fault.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.h"

namespace homp::sim {
namespace {

TEST(FaultProfile, ValidateRejectsOutOfRangeRates) {
  FaultProfile p;
  p.transfer_fault_rate = 1.0;  // must be < 1
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.launch_fault_rate = -0.1;
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.slowdown_factor = 0.5;  // must be >= 1
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.transfer_fault_rate = 0.5;
  EXPECT_NO_THROW(p.validate("dev"));
}

TEST(FaultProfile, InfiniteFactorsAndANegativeLossTimeEachViolate) {
  // The machine file's rules: finite factors, and a loss time of -1
  // (never) or a finite time >= 0.
  FaultProfile p;
  p.slowdown_factor = std::numeric_limits<double>::infinity();
  p.degrade_factor = std::numeric_limits<double>::infinity();
  p.fail_at_s = -5.0;
  const std::vector<std::string> v = p.violations("dev");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NE(v[0].find("fault_slowdown_factor"), std::string::npos) << v[0];
  EXPECT_NE(v[1].find("fault_degrade_factor"), std::string::npos) << v[1];
  EXPECT_NE(v[2].find("fault_fail_at_s"), std::string::npos) << v[2];

  p = FaultProfile{};
  p.fail_at_s = std::numeric_limits<double>::infinity();
  EXPECT_EQ(p.violations("dev").size(), 1u);
  p.fail_at_s = 0.0;
  EXPECT_TRUE(p.violations("dev").empty());
}

TEST(FaultProfile, CombinedTreatsSourcesAsIndependent) {
  FaultProfile a, b;
  a.transfer_fault_rate = 0.5;
  b.transfer_fault_rate = 0.5;
  a.fail_at_s = 3.0;
  b.fail_at_s = 2.0;
  b.slowdown_factor = 8.0;
  const FaultProfile c = a.combined(b);
  EXPECT_DOUBLE_EQ(c.transfer_fault_rate, 0.75);  // 1 - 0.5 * 0.5
  EXPECT_DOUBLE_EQ(c.fail_at_s, 2.0);             // earliest loss wins
  EXPECT_DOUBLE_EQ(c.slowdown_factor, 8.0);
  EXPECT_TRUE(c.any());
  EXPECT_FALSE(FaultProfile{}.any());
}

TEST(FaultPlan, InactiveWithoutProfilesOrScripts) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  // Zero-rate profile keeps the plan inactive — the runtime relies on
  // this to skip fault bookkeeping on clean machines.
  plan.set_profile(0, FaultProfile{});
  EXPECT_FALSE(plan.active());
  EXPECT_FALSE(plan.transfer_fails(0));
  EXPECT_FALSE(plan.launch_fails(0));
  EXPECT_DOUBLE_EQ(plan.slowdown(0), 1.0);
  EXPECT_LT(plan.loss_time(0), 0.0);
}

TEST(FaultPlan, SameSeedSameSequence) {
  FaultProfile p;
  p.transfer_fault_rate = 0.3;
  p.launch_fault_rate = 0.2;

  auto sample = [&](std::uint64_t seed) {
    FaultPlan plan;
    plan.set_seed(seed);
    plan.set_profile(1, p);
    plan.set_profile(2, p);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(plan.transfer_fails(1));
      out.push_back(plan.launch_fails(2));
    }
    return out;
  };
  EXPECT_EQ(sample(7), sample(7));
  EXPECT_NE(sample(7), sample(8));
}

TEST(FaultPlan, DevicesHaveIndependentStreams) {
  FaultProfile p;
  p.transfer_fault_rate = 0.5;
  FaultPlan plan;
  plan.set_profile(0, p);
  plan.set_profile(1, p);
  std::vector<bool> a, b;
  for (int i = 0; i < 64; ++i) {
    a.push_back(plan.transfer_fails(0));
    b.push_back(plan.transfer_fails(1));
  }
  EXPECT_NE(a, b);

  // Interleaving order must not change each device's own sequence.
  FaultPlan plan2;
  plan2.set_profile(0, p);
  plan2.set_profile(1, p);
  std::vector<bool> b2;
  for (int i = 0; i < 64; ++i) b2.push_back(plan2.transfer_fails(1));
  std::vector<bool> a2;
  for (int i = 0; i < 64; ++i) a2.push_back(plan2.transfer_fails(0));
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
}

TEST(FaultPlan, ScriptedFaultFiresAtExactOp) {
  FaultPlan plan;
  ScriptedFault f;
  f.device_id = 3;
  f.kind = FaultKind::kTransfer;
  f.op = 2;
  plan.add_scripted(f);
  EXPECT_TRUE(plan.active());
  EXPECT_FALSE(plan.transfer_fails(3));  // op 0
  EXPECT_FALSE(plan.transfer_fails(3));  // op 1
  EXPECT_TRUE(plan.transfer_fails(3));   // op 2 <- scripted
  EXPECT_FALSE(plan.transfer_fails(3));  // op 3
  // Launch ops are counted separately.
  EXPECT_FALSE(plan.launch_fails(3));
}

TEST(FaultPlan, ScriptedFaultDoesNotShiftRandomSequence) {
  // Adding a scripted fault must not perturb which *random* ops fail —
  // the draw is consumed on every query regardless.
  FaultProfile p;
  p.transfer_fault_rate = 0.3;
  auto sample = [&](bool with_script) {
    FaultPlan plan;
    plan.set_profile(0, p);
    if (with_script) {
      ScriptedFault f;
      f.device_id = 0;
      f.op = 5;
      plan.add_scripted(f);
    }
    std::vector<bool> out;
    for (int i = 0; i < 32; ++i) out.push_back(plan.transfer_fails(0));
    return out;
  };
  auto plain = sample(false);
  auto scripted = sample(true);
  scripted[5] = plain[5];  // the scripted op itself differs, nothing else
  EXPECT_EQ(plain, scripted);
}

TEST(FaultPlan, ScriptedSlowdownFactorOverride) {
  FaultPlan plan;
  ScriptedFault f;
  f.device_id = 0;
  f.kind = FaultKind::kSlowdown;
  f.op = 0;
  f.factor = 6.0;
  plan.add_scripted(f);
  EXPECT_DOUBLE_EQ(plan.slowdown(0), 6.0);
  EXPECT_DOUBLE_EQ(plan.slowdown(0), 1.0);
}

TEST(FaultPlan, LossTimeEarliestWins) {
  FaultPlan plan;
  FaultProfile p;
  p.fail_at_s = 5.0;
  plan.set_profile(0, p);
  EXPECT_DOUBLE_EQ(plan.loss_time(0), 5.0);
  ScriptedFault f;
  f.device_id = 0;
  f.kind = FaultKind::kDeviceLoss;
  f.at_s = 2.0;
  plan.add_scripted(f);
  EXPECT_DOUBLE_EQ(plan.loss_time(0), 2.0);
  EXPECT_LT(plan.loss_time(1), 0.0);  // other devices unaffected
}

TEST(FaultPlan, RejectsMalformedScripts) {
  FaultPlan plan;
  ScriptedFault f;
  f.device_id = -1;
  EXPECT_THROW(plan.add_scripted(f), ConfigError);
  f.device_id = 0;
  f.kind = FaultKind::kDeviceLoss;
  f.at_s = -1.0;
  EXPECT_THROW(plan.add_scripted(f), ConfigError);
  f.kind = FaultKind::kTransfer;
  f.op = -2;
  EXPECT_THROW(plan.add_scripted(f), ConfigError);
}

TEST(FaultKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(FaultKind::kTransfer), "transfer-fault");
  EXPECT_STREQ(to_string(FaultKind::kLaunch), "launch-fault");
  EXPECT_STREQ(to_string(FaultKind::kSlowdown), "slowdown");
  EXPECT_STREQ(to_string(FaultKind::kDeviceLoss), "device-loss");
  EXPECT_STREQ(to_string(FaultKind::kHang), "hang");
  EXPECT_STREQ(to_string(FaultKind::kDegrade), "degrade");
}

TEST(FaultProfile, ValidateRejectsBadHangAndDegrade) {
  FaultProfile p;
  p.hang_rate = 1.0;  // must be < 1
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.degrade_rate = -0.1;
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.degrade_factor = 0.5;  // must be >= 1
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.hang_rate = 0.1;
  p.degrade_rate = 0.1;
  EXPECT_NO_THROW(p.validate("dev"));
  EXPECT_TRUE(p.any());
}

TEST(FaultProfile, CombinedMergesHangAndDegrade) {
  FaultProfile a, b;
  a.hang_rate = 0.5;
  b.hang_rate = 0.5;
  a.degrade_rate = 0.2;
  a.degrade_factor = 4.0;
  b.degrade_factor = 16.0;
  const FaultProfile c = a.combined(b);
  EXPECT_DOUBLE_EQ(c.hang_rate, 0.75);  // independent sources
  EXPECT_DOUBLE_EQ(c.degrade_rate, 0.2);
  EXPECT_DOUBLE_EQ(c.degrade_factor, 16.0);  // worst factor wins
}

TEST(FaultPlan, ScriptedHangHitsTheExactComputeOp) {
  FaultPlan plan;
  ScriptedFault f;
  f.device_id = 3;
  f.kind = FaultKind::kHang;
  f.op = 2;
  plan.add_scripted(f);
  EXPECT_TRUE(plan.active());
  EXPECT_FALSE(plan.compute_hangs(3));  // op 0
  EXPECT_FALSE(plan.compute_hangs(3));  // op 1
  EXPECT_TRUE(plan.compute_hangs(3));   // op 2: the scripted hang
  EXPECT_FALSE(plan.compute_hangs(3));  // op 3
  EXPECT_FALSE(plan.compute_hangs(0));  // other devices unaffected
}

TEST(FaultPlan, ScriptedDegradeUsesTheFactorOverride) {
  FaultPlan plan;
  ScriptedFault f;
  f.device_id = 1;
  f.kind = FaultKind::kDegrade;
  f.op = 1;
  f.factor = 32.0;
  plan.add_scripted(f);
  EXPECT_DOUBLE_EQ(plan.degrade(1), 1.0);   // op 0: healthy
  EXPECT_DOUBLE_EQ(plan.degrade(1), 32.0);  // op 1: scripted factor
  EXPECT_DOUBLE_EQ(plan.degrade(1), 1.0);

  // Factor <= 1 falls back to the profile's (or the 8x default).
  FaultPlan plan2;
  f.factor = 0.0;
  f.op = 0;
  plan2.add_scripted(f);
  EXPECT_DOUBLE_EQ(plan2.degrade(1), 8.0);
}

TEST(FaultPlan, HangAndDegradeStreamsAreDeterministic) {
  FaultProfile p;
  p.hang_rate = 0.3;
  p.degrade_rate = 0.3;
  p.degrade_factor = 5.0;
  auto sample = [&](std::uint64_t seed) {
    FaultPlan plan;
    plan.set_seed(seed);
    plan.set_profile(2, p);
    std::vector<double> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(plan.compute_hangs(2) ? 1.0 : 0.0);
      out.push_back(plan.degrade(2));
    }
    return out;
  };
  EXPECT_EQ(sample(11), sample(11));
  EXPECT_NE(sample(11), sample(12));
}

TEST(FaultKindNames, CorruptionKindsAreDistinct) {
  EXPECT_STREQ(to_string(FaultKind::kCorruptTransfer), "corrupt-transfer");
  EXPECT_STREQ(to_string(FaultKind::kCorruptCompute), "corrupt-compute");
}

TEST(FaultProfile, ValidateRejectsBadCorruptionRates) {
  FaultProfile p;
  p.corrupt_transfer_rate = 1.0;  // must be < 1
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.corrupt_compute_rate = -0.1;
  EXPECT_THROW(p.validate("dev"), ConfigError);
  p = FaultProfile{};
  p.corrupt_transfer_rate = 0.01;
  p.corrupt_compute_rate = 0.01;
  EXPECT_NO_THROW(p.validate("dev"));
  EXPECT_TRUE(p.any());
  const auto v = FaultProfile{}.violations("dev");
  EXPECT_TRUE(v.empty());
}

TEST(FaultProfile, CombinedMergesCorruptionRates) {
  FaultProfile a, b;
  a.corrupt_transfer_rate = 0.5;
  b.corrupt_transfer_rate = 0.5;
  b.corrupt_compute_rate = 0.25;
  const FaultProfile c = a.combined(b);
  EXPECT_DOUBLE_EQ(c.corrupt_transfer_rate, 0.75);  // independent sources
  EXPECT_DOUBLE_EQ(c.corrupt_compute_rate, 0.25);
}

TEST(FaultPlan, ZeroCorruptionRateNeverCorrupts) {
  FaultPlan plan;
  FaultProfile p;
  p.transfer_fault_rate = 0.5;  // other faults active, corruption off
  plan.set_profile(0, p);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(plan.transfer_corrupts(0), 0u);
    EXPECT_EQ(plan.compute_corrupts(0), 0u);
  }
}

TEST(FaultPlan, ScriptedCorruptionFiresAtExactOpWithNonzeroSeed) {
  FaultPlan plan;
  ScriptedFault f;
  f.device_id = 2;
  f.kind = FaultKind::kCorruptTransfer;
  f.op = 1;
  plan.add_scripted(f);
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.transfer_corrupts(2), 0u);  // op 0: intact
  EXPECT_NE(plan.transfer_corrupts(2), 0u);  // op 1: the scripted flip
  EXPECT_EQ(plan.transfer_corrupts(2), 0u);  // op 2: intact again
  // Compute corruption counts its own ops on its own counter.
  f.kind = FaultKind::kCorruptCompute;
  f.op = 0;
  plan.add_scripted(f);
  EXPECT_NE(plan.compute_corrupts(2), 0u);
  EXPECT_EQ(plan.compute_corrupts(2), 0u);
  EXPECT_EQ(plan.compute_corrupts(0), 0u);  // other devices unaffected
}

TEST(FaultPlan, CorruptionSeedsAreDeterministicAndPerDevice) {
  FaultProfile p;
  p.corrupt_transfer_rate = 0.4;
  p.corrupt_compute_rate = 0.4;
  auto sample = [&](std::uint64_t seed, int dev) {
    FaultPlan plan;
    plan.set_seed(seed);
    plan.set_profile(dev, p);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(plan.transfer_corrupts(dev));
      out.push_back(plan.compute_corrupts(dev));
    }
    return out;
  };
  EXPECT_EQ(sample(21, 1), sample(21, 1));
  EXPECT_NE(sample(21, 1), sample(22, 1));
  EXPECT_NE(sample(21, 1), sample(21, 2));
}

TEST(FaultPlan, CorruptionQueriesDoNotPerturbFailureStreams) {
  // The corruption draws are *pure* (hash of device/kind/op), not pulls
  // from the shared PRNG — interleaving them must leave the pre-existing
  // transfer/launch failure sequences bit-identical, so enabling
  // checksums never changes which ops fail.
  FaultProfile p;
  p.transfer_fault_rate = 0.3;
  p.launch_fault_rate = 0.3;
  p.corrupt_transfer_rate = 0.3;
  p.corrupt_compute_rate = 0.3;
  auto sample = [&](bool interleave) {
    FaultPlan plan;
    plan.set_profile(0, p);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) {
      if (interleave) {
        plan.transfer_corrupts(0);
        plan.compute_corrupts(0);
      }
      out.push_back(plan.transfer_fails(0));
      out.push_back(plan.launch_fails(0));
    }
    return out;
  };
  EXPECT_EQ(sample(false), sample(true));
}

}  // namespace
}  // namespace homp::sim
