// OffloadOptions::validate() centralizes every knob-range check — sched,
// fault rates, scripted faults and harness — and reports *all* violations
// in one pass, so a misconfigured offload fails with a complete
// diagnostic instead of one error per attempt.

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/axpy.h"
#include "machine/profiles.h"
#include "runtime/runtime.h"

namespace homp {
namespace {

bool mentions(const std::vector<std::string>& v, const std::string& what) {
  for (const auto& msg : v) {
    if (msg.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(OptionsValidate, DefaultsAreValid) {
  EXPECT_TRUE(rt::OffloadOptions{}.validate().empty());
  EXPECT_NO_THROW(rt::OffloadOptions{}.validate_or_throw());
}

TEST(OptionsValidate, RejectsBadSchedulerFractions) {
  rt::OffloadOptions o;
  o.sched.dynamic_chunk_fraction = 0.0;
  auto v = o.validate();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "dynamic_chunk_fraction"));

  o = rt::OffloadOptions{};
  o.sched.guided_chunk_fraction = 1.5;
  EXPECT_TRUE(mentions(o.validate(), "guided_chunk_fraction"));

  o = rt::OffloadOptions{};
  o.sched.cutoff_ratio = 1.0;  // [0, 1)
  EXPECT_TRUE(mentions(o.validate(), "cutoff_ratio"));

  o = rt::OffloadOptions{};
  o.sched.min_chunk = 0;
  EXPECT_TRUE(mentions(o.validate(), "min_chunk"));
}

TEST(OptionsValidate, RejectsBadFaultKnobs) {
  rt::OffloadOptions o;
  o.fault.extra.corrupt_transfer_rate = 1.0;  // must be < 1
  EXPECT_TRUE(mentions(o.validate(), "fault_corrupt_transfer_rate"));

  o = rt::OffloadOptions{};
  o.fault.extra.corrupt_compute_rate = -0.1;
  EXPECT_TRUE(mentions(o.validate(), "fault_corrupt_compute_rate"));
}

TEST(OptionsValidate, RejectsMalformedScriptedFaults) {
  // The checks FaultPlan::add_scripted makes, reported up front.
  sim::ScriptedFault valid;
  valid.device_id = 1;
  auto violations = [valid](const sim::ScriptedFault& f) {
    rt::OffloadOptions o;
    o.fault.scripted = {valid, f};
    return o.validate();
  };
  EXPECT_TRUE(violations(valid).empty());
  sim::ScriptedFault f = valid;
  f.device_id = -1;
  EXPECT_TRUE(mentions(violations(f), "fault.scripted[1] needs a "
                                      "non-negative device id"));
  f = valid;
  f.op = -1;
  EXPECT_TRUE(mentions(violations(f), "non-negative op ordinal"));
  f = valid;
  f.kind = sim::FaultKind::kDeviceLoss;
  f.at_s = -1.0;
  EXPECT_TRUE(mentions(violations(f), "non-negative time"));
  for (double factor : {0.5, std::nan("")}) {
    f = valid;
    f.kind = sim::FaultKind::kDegrade;
    f.factor = factor;
    EXPECT_TRUE(mentions(violations(f), "factor")) << factor;
  }
  f = valid;
  f.kind = sim::FaultKind::kSlowdown;
  f.factor = 0.0;  // <= 0 uses the device profile's
  EXPECT_TRUE(violations(f).empty());
}

TEST(OptionsValidate, HarnessKnobs) {
  rt::OffloadOptions o;
  o.harness.step_budget = -1;
  EXPECT_TRUE(mentions(o.validate(), "step_budget"));

  o.harness.step_budget = 0;  // disabled is fine
  EXPECT_TRUE(o.validate().empty());

  // A budget below one event per device can never make progress.
  o.device_ids = {0, 1, 2, 3};
  o.harness.step_budget = 3;
  EXPECT_TRUE(mentions(o.validate(), "step_budget"));
  o.harness.step_budget = 4;
  EXPECT_TRUE(o.validate().empty());
}

TEST(OptionsValidate, ReportsEveryViolationInOnePass) {
  rt::OffloadOptions o;
  o.sched.min_chunk = 0;
  o.fault.extra.hang_rate = 1.5;
  sim::ScriptedFault bad;
  bad.device_id = 2;
  bad.op = -1;  // a transfer fault with no valid ordinal
  o.fault.scripted.push_back(bad);
  o.harness.step_budget = -1;
  const auto v = o.validate();
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(mentions(v, "min_chunk"));
  EXPECT_TRUE(mentions(v, "fault_hang_rate"));
  EXPECT_TRUE(mentions(v, "fault.scripted[0]"));
  EXPECT_TRUE(mentions(v, "step_budget"));

  // ...and the thrown diagnostic carries all of them too.
  try {
    o.validate_or_throw();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invalid offload options"), std::string::npos);
    EXPECT_NE(msg.find("min_chunk"), std::string::npos);
    EXPECT_NE(msg.find("fault.scripted[0]"), std::string::npos);
  }
}

TEST(OptionsValidate, RuntimeOffloadRejectsBadKnobsUpFront) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(64, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {0, 1};
  sim::ScriptedFault bad;
  bad.device_id = 1;
  bad.op = -1;
  o.fault.scripted.push_back(bad);
  auto maps = c.maps();
  auto kernel = c.kernel();
  try {
    rt.offload(kernel, maps, o);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    // Rejected by validate() before planning, not later by the fault plan.
    EXPECT_NE(std::string(e.what()).find("invalid offload options"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace homp
