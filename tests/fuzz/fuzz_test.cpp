// Unit coverage for the homp-fuzz harness itself (docs/FUZZING.md):
// scenario generation must be deterministic and always-valid, the
// serialization formats must round-trip exactly, the oracle must catch a
// planted violation, and the shrinker must minimize while preserving the
// failure. The end-to-end CLI contract (byte-identical summaries, repro
// files on disk, --replay) lives in tests/fuzz/run_fuzz_tests.py.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fuzz/oracle.h"
#include "fuzz/scenario.h"
#include "fuzz/shrink.h"
#include "kernels/case.h"
#include "machine/parser.h"
#include "runtime/runtime.h"
#include "sched/algorithm.h"

namespace homp {
namespace {

TEST(FuzzScenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 22ull, 1000003ull}) {
    const auto a = fuzz::generate_scenario(seed);
    const auto b = fuzz::generate_scenario(seed);
    EXPECT_EQ(fuzz::to_toml(a), fuzz::to_toml(b)) << "seed " << seed;
    EXPECT_EQ(mach::to_text(a.machine), mach::to_text(b.machine))
        << "seed " << seed;
  }
}

TEST(FuzzScenario, DifferentSeedsExploreTheSpace) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    distinct.insert(fuzz::to_toml(fuzz::generate_scenario(seed)));
  }
  // Collisions are possible in principle but 16 identical scenarios
  // would mean the seed is ignored.
  EXPECT_GT(distinct.size(), 8u);
}

TEST(FuzzScenario, GeneratedScenariosAreAlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto s = fuzz::generate_scenario(seed);
    EXPECT_NO_THROW(s.machine.validate()) << "seed " << seed;
    EXPECT_GE(s.machine.devices.size(), 1u);
    EXPECT_EQ(s.n, fuzz::quantize_trip(s.kernel, s.n)) << "seed " << seed;
    EXPECT_GT(s.step_budget, 0) << "seed " << seed;
    for (const auto& f : s.faults) {
      EXPECT_GT(f.device_id, 0) << "seed " << seed << ": host must not fault";
      EXPECT_LT(static_cast<std::size_t>(f.device_id),
                s.machine.devices.size())
          << "seed " << seed;
      if (f.kind == sim::FaultKind::kCorruptCompute ||
          f.kind == sim::FaultKind::kCorruptTransfer) {
        EXPECT_TRUE(s.integrity)
            << "seed " << seed
            << ": corruption scripted with integrity disabled";
      }
      if (f.kind == sim::FaultKind::kHang) {
        EXPECT_TRUE(s.watchdog) << "seed " << seed;
      }
    }
  }
}

TEST(FuzzScenario, MachineTextRoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto s = fuzz::generate_scenario(seed);
    const std::string once = mach::to_text(s.machine);
    const std::string twice = mach::to_text(mach::parse_machine(once));
    EXPECT_EQ(once, twice) << "seed " << seed;
  }
}

TEST(FuzzScenario, TomlRoundTripsExactly) {
  for (std::uint64_t seed : {1ull, 7ull, 22ull, 75ull}) {
    const auto s = fuzz::generate_scenario(seed);
    const std::string once =
        fuzz::to_toml(s, "repro.ini", "progress", "BLOCK");
    const auto parsed = fuzz::parse_scenario(once);
    EXPECT_EQ(parsed.machine_file, "repro.ini");
    EXPECT_EQ(parsed.invariant, "progress");
    EXPECT_EQ(parsed.algorithm, "BLOCK");
    auto round = parsed.scenario;
    round.machine = s.machine;  // machine travels in the paired .ini
    EXPECT_EQ(once, fuzz::to_toml(round, "repro.ini", "progress", "BLOCK"))
        << "seed " << seed;
  }
}

TEST(FuzzScenario, ParserRejectsGarbageWithLineNumbers) {
  EXPECT_THROW(fuzz::parse_scenario("[scenario]\nseed = frog\n"),
               ConfigError);
  EXPECT_THROW(fuzz::parse_scenario("no section header\n"), ConfigError);

  // A repeated key used to replay with its last copy, and "2x" as 2.
  const auto fails_at = [](const std::string& text, const std::string& why) {
    try {
      fuzz::parse_scenario(text);
    } catch (const ConfigError& e) {
      return std::string(e.what()).find(why) != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(fails_at("[scenario]\nkernel = axpy\nn = 8\nn = 16\n",
                       "line 4: duplicate key 'n' (first at line 3)"));
  EXPECT_TRUE(fails_at("[scenario]\nkernel = axpy\n[sched]\nmin_chunk = 2x\n",
                       "line 4: 'min_chunk' needs an integer, got '2x'"));
}

TEST(FuzzScenario, ParserRejectsAReproWithoutItsFaultSeed) {
  // A repro replays one fault trajectory; a defaulted seed would silently
  // replay another.
  const std::string text = fuzz::to_toml(fuzz::generate_scenario(7));
  const auto at = text.find("fault_seed = ");
  ASSERT_NE(at, std::string::npos);
  std::string stripped = text;
  stripped.erase(at, text.find('\n', at) + 1 - at);
  EXPECT_NO_THROW(fuzz::parse_scenario(text));
  EXPECT_THROW(fuzz::parse_scenario(stripped), ConfigError);
}

TEST(FuzzOracle, CleanScenarioPassesEveryInvariant) {
  fuzz::GeneratorLimits limits;
  limits.max_devices = 3;
  limits.max_trip = 256;
  limits.allow_faults = false;
  const auto s = fuzz::generate_scenario(5, limits);
  const auto report = fuzz::run_oracle(s);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0].invariant + ": " +
                                         report.violations[0].detail);
  EXPECT_EQ(report.runs.size(),
            static_cast<std::size_t>(sched::kNumEveryAlgorithm));
  for (const auto& r : report.runs) {
    EXPECT_TRUE(r.completed) << r.algorithm;
    EXPECT_GT(r.engine_events, 0u) << r.algorithm;
  }
}

// Trophy seeds (docs/FUZZING.md): 9119 lost the device holding the whole
// MODEL_PROFILE_AUTO sample and handed it stage-2 work anyway (the
// coverage assert aborted); 2520 lost a device after the others finished
// and reported an offload that ended before the loss (imbalance-bounds).
TEST(FuzzOracle, LateDeviceLossSeedsPassEveryInvariant) {
  for (std::uint64_t seed : {9119u, 2520u}) {
    const auto report = fuzz::run_oracle(fuzz::generate_scenario(seed));
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": "
        << (report.violations.empty()
                ? ""
                : report.violations[0].invariant + ": " +
                      report.violations[0].detail);
  }
}

TEST(FuzzOracle, DigestIsDeterministic) {
  const auto s = fuzz::generate_scenario(9);
  EXPECT_EQ(fuzz::run_oracle(s).digest(), fuzz::run_oracle(s).digest());
}

TEST(FuzzOracle, CatchesPlantedCorruptCommit) {
  fuzz::GeneratorLimits limits;
  limits.max_devices = 3;
  limits.max_trip = 256;
  auto s = fuzz::generate_scenario(11, limits);
  fuzz::plant_corrupt_commit(s);
  ASSERT_FALSE(s.integrity);
  const auto report = fuzz::run_oracle(s);
  ASSERT_FALSE(report.ok());
  bool caught = false;
  for (const auto& v : report.violations) {
    if (v.invariant == "reference" || v.invariant == "differential-results") {
      caught = true;
    }
  }
  EXPECT_TRUE(caught)
      << "planted silent corruption must trip the result invariants; got "
      << report.violations[0].invariant;
}

TEST(FuzzShrink, MinimizesWhilePreservingTheFailure) {
  fuzz::GeneratorLimits limits;
  limits.max_devices = 5;
  auto s = fuzz::generate_scenario(13, limits);
  fuzz::plant_corrupt_commit(s);
  const auto before = fuzz::run_oracle(s);
  ASSERT_FALSE(before.ok());
  const std::string invariant = before.violations[0].invariant;

  const auto shrunk = fuzz::shrink(s, invariant, /*max_oracle_runs=*/24);
  EXPECT_LE(shrunk.scenario.machine.devices.size(),
            s.machine.devices.size());
  EXPECT_LE(shrunk.scenario.n, s.n);
  EXPECT_LE(shrunk.oracle_runs, 24);

  // The minimized scenario still fails the same invariant.
  const auto after = fuzz::run_oracle(shrunk.scenario);
  bool still = false;
  for (const auto& v : after.violations) {
    if (v.invariant == invariant) still = true;
  }
  EXPECT_TRUE(still);
}

TEST(FuzzHarness, StepBudgetAbortsRunawayOffloadLoudly) {
  const auto s = fuzz::generate_scenario(3);
  rt::Runtime rt{s.machine};
  auto c = kern::make_case(s.kernel, s.n, /*materialize=*/false);
  rt::OffloadOptions o;
  for (std::size_t d = 0; d < s.machine.devices.size(); ++d) {
    o.device_ids.push_back(static_cast<int>(d));
  }
  o.execute_bodies = false;
  o.harness.step_budget = static_cast<long long>(o.device_ids.size());
  auto maps = c->maps();
  auto kernel = c->kernel();
  EXPECT_THROW(rt.offload(kernel, maps, o), OffloadError);
}

TEST(FuzzHarness, ResultChecksumIsCapturedAndStable) {
  const auto s = fuzz::generate_scenario(4);
  rt::Runtime rt{s.machine};
  auto run = [&] {
    auto c = kern::make_case("axpy", 512, /*materialize=*/true);
    c->init();
    rt::OffloadOptions o;
    o.device_ids = {0};
    o.harness.capture_result_checksum = true;
    auto maps = c->maps();
    auto kernel = c->kernel();
    return rt.offload(kernel, maps, o);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_TRUE(a.result_checksum_valid);
  ASSERT_TRUE(b.result_checksum_valid);
  EXPECT_EQ(a.result_checksum, b.result_checksum);
  EXPECT_NE(a.result_checksum, 0u);
}

}  // namespace
}  // namespace homp
