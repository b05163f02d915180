// OffloadOptions::validate() centralizes every knob-range check — sched,
// fault, watchdog and integrity — and reports *all* violations in one
// pass, so a misconfigured offload fails with a complete diagnostic
// instead of one error per attempt.

#include <gtest/gtest.h>

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
  o.fault.max_retries = -1;
  EXPECT_TRUE(mentions(o.validate(), "max_retries"));

  o = rt::OffloadOptions{};
  o.fault.backoff_base_s = 2.0;
  o.fault.backoff_cap_s = 1.0;  // cap < base
  EXPECT_TRUE(mentions(o.validate(), "backoff"));

  o = rt::OffloadOptions{};
  o.fault.extra.corrupt_transfer_rate = 1.0;  // must be < 1
  EXPECT_TRUE(mentions(o.validate(), "fault_corrupt_transfer_rate"));

  o = rt::OffloadOptions{};
  o.fault.extra.corrupt_compute_rate = -0.1;
  EXPECT_TRUE(mentions(o.validate(), "fault_corrupt_compute_rate"));
}

TEST(OptionsValidate, RejectsBadWatchdogKnobs) {
  rt::OffloadOptions o;
  o.watchdog.deadline_multiplier = 0.0;
  EXPECT_TRUE(mentions(o.validate(), "deadline_multiplier"));

  o = rt::OffloadOptions{};
  o.watchdog.hard_kill_multiplier = 0.5;  // hard before soft
  EXPECT_TRUE(mentions(o.validate(), "hard_kill_multiplier"));

  o = rt::OffloadOptions{};
  o.watchdog.tardy_quarantine_threshold = -1;
  EXPECT_TRUE(mentions(o.validate(), "tardy_quarantine_threshold"));

  o = rt::OffloadOptions{};
  o.watchdog.cooldown_growth = 0.5;  // must be >= 1
  EXPECT_TRUE(mentions(o.validate(), "cooldown"));

  o = rt::OffloadOptions{};
  o.watchdog.probation_successes = 0;
  EXPECT_TRUE(mentions(o.validate(), "probation"));
}

TEST(OptionsValidate, RejectsBadIntegrityKnobs) {
  rt::OffloadOptions o;
  o.integrity.vote_after_failures = 0;
  EXPECT_TRUE(mentions(o.validate(), "integrity.vote_after_failures"));

  o = rt::OffloadOptions{};
  o.integrity.vote_quorum = 0;
  EXPECT_TRUE(mentions(o.validate(), "integrity.vote_quorum"));

  o = rt::OffloadOptions{};
  o.integrity.max_attempts = 1;  // needs the original + one re-execution
  EXPECT_TRUE(mentions(o.validate(), "integrity.max_attempts"));

  o = rt::OffloadOptions{};
  o.integrity.quarantine_threshold = -1;
  EXPECT_TRUE(mentions(o.validate(), "integrity.quarantine_threshold"));
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
  o.fault.max_retries = -1;
  o.watchdog.hard_kill_multiplier = 0.0;
  o.integrity.vote_quorum = 0;
  const auto v = o.validate();
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(mentions(v, "min_chunk"));
  EXPECT_TRUE(mentions(v, "max_retries"));
  EXPECT_TRUE(mentions(v, "hard_kill_multiplier"));
  EXPECT_TRUE(mentions(v, "vote_quorum"));

  // ...and the thrown diagnostic carries all of them too.
  try {
    o.validate_or_throw();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invalid offload options"), std::string::npos);
    EXPECT_NE(msg.find("min_chunk"), std::string::npos);
    EXPECT_NE(msg.find("vote_quorum"), std::string::npos);
  }
}

TEST(OptionsValidate, RuntimeOffloadRejectsBadKnobsUpFront) {
  rt::Runtime rt{mach::testing_machine(1)};
  kern::AxpyCase c(64, /*materialize=*/true);
  rt::OffloadOptions o;
  o.device_ids = {0, 1};
  o.integrity.max_attempts = 0;
  auto maps = c.maps();
  auto kernel = c.kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), ConfigError);
}

}  // namespace
}  // namespace homp
