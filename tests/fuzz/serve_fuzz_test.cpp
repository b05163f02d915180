// Unit coverage for homp-fuzz's serve mode (docs/FUZZING.md "--serve"):
// serve-scenario generation must be deterministic and always-valid, the
// TOML serialization must round-trip exactly, the replay sniffer must
// tell serve repros from single-offload ones, the serve oracle must pass
// clean scenarios and catch an injected mid-run abort, the shrinker must
// minimize that abort, and the corpus driver's summary must be
// byte-identical across same-config runs.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/error.h"
#include "fuzz/serve_driver.h"
#include "fuzz/serve_oracle.h"
#include "fuzz/serve_scenario.h"
#include "fuzz/shrink.h"
#include "machine/parser.h"

namespace homp {
namespace {

TEST(ServeScenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 1000003ull}) {
    const auto a = fuzz::generate_serve_scenario(seed);
    const auto b = fuzz::generate_serve_scenario(seed);
    EXPECT_EQ(fuzz::serve_to_toml(a), fuzz::serve_to_toml(b))
        << "seed " << seed;
    EXPECT_EQ(mach::to_text(a.machine), mach::to_text(b.machine))
        << "seed " << seed;
  }
}

TEST(ServeScenario, DifferentSeedsExploreTheSpace) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    distinct.insert(fuzz::serve_to_toml(fuzz::generate_serve_scenario(seed)));
  }
  EXPECT_GT(distinct.size(), 8u);
}

TEST(ServeScenario, GeneratedScenariosAreAlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto s = fuzz::generate_serve_scenario(seed);
    EXPECT_NO_THROW(s.machine.validate()) << "seed " << seed;
    EXPECT_GE(s.tenants.size(), 1u) << "seed " << seed;
    EXPECT_GE(s.jobs.size(), 1u) << "seed " << seed;
    for (const auto& j : s.jobs) {
      EXPECT_GE(j.tenant, 0) << "seed " << seed;
      EXPECT_LT(static_cast<std::size_t>(j.tenant), s.tenants.size())
          << "seed " << seed;
      EXPECT_EQ(j.job.n, fuzz::quantize_trip(j.job.kernel, j.job.n))
          << "seed " << seed;
      EXPECT_GE(j.at_s, 0.0) << "seed " << seed;
    }
    // Livelocks must be containable: the step budget is always armed.
    EXPECT_GT(s.options.base.harness.step_budget, 0) << "seed " << seed;
  }
}

TEST(ServeScenario, TomlRoundTripsExactly) {
  for (std::uint64_t seed : {1ull, 7ull, 22ull}) {
    const auto s = fuzz::generate_serve_scenario(seed);
    const std::string once =
        fuzz::serve_to_toml(s, "serve-repro.ini", "serve-progress");
    const auto parsed = fuzz::parse_serve_scenario(once);
    EXPECT_EQ(parsed.machine_file, "serve-repro.ini");
    EXPECT_EQ(parsed.invariant, "serve-progress");
    auto round = parsed.scenario;
    round.machine = s.machine;  // machine travels in the paired .ini
    EXPECT_EQ(once,
              fuzz::serve_to_toml(round, "serve-repro.ini", "serve-progress"))
        << "seed " << seed;
  }
}

TEST(ServeScenario, SnifferTellsServeFromOffloadRepros) {
  const auto s = fuzz::generate_serve_scenario(3);
  EXPECT_TRUE(fuzz::is_serve_scenario(fuzz::serve_to_toml(s)));
  EXPECT_FALSE(fuzz::is_serve_scenario("[scenario]\nseed = 3\n"));
  EXPECT_FALSE(fuzz::is_serve_scenario("# just a comment\n"));
}

TEST(ServeScenario, ParserRejectsGarbageWithLineNumbers) {
  EXPECT_THROW(fuzz::parse_serve_scenario("[serve]\nseed = frog\n"),
               ConfigError);
  EXPECT_THROW(fuzz::parse_serve_scenario("[serve]\nseed = 1\n"),
               ConfigError);  // no tenants or jobs
  EXPECT_THROW(
      fuzz::parse_serve_scenario(
          "[serve]\nseed = 1\n[tenant.0]\nname = \"t\"\n"
          "[job.0]\ntenant = 7\n"),
      ConfigError);  // job references a missing tenant

  // A repeated key used to replay with its last copy, and "4x" as 4.
  const auto fails_at = [](const std::string& text, const std::string& why) {
    try {
      fuzz::parse_serve_scenario(text);
    } catch (const ConfigError& e) {
      return std::string(e.what()).find(why) != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(fails_at("[serve]\nseed = 1\nseed = 2\n",
                       "line 3: duplicate key 'seed' (first at line 2)"));
  EXPECT_TRUE(fails_at("[serve]\nseed = -1\n",
                       "line 2: 'seed' needs an unsigned integer"));
  EXPECT_TRUE(
      fails_at("[serve]\nseed = 1\n[tenant.0]\nmax_queue_depth = 4x\n",
               "line 4: 'max_queue_depth' needs an integer, got '4x'"));
}

TEST(ServeScenario, MolassesTenantsDrawValidSlowdownRates) {
  // Seed 618 draws the molasses band's top step, which once yielded
  // slowdown_rate == 1.0 and made generation throw.
  fuzz::ServeScenarioSpec s;
  ASSERT_NO_THROW(s = fuzz::generate_serve_scenario(618));
  for (const auto& t : s.tenants) {
    EXPECT_LT(t.fault.slowdown_rate, 1.0) << t.name;
    EXPECT_NO_THROW(t.fault.validate(t.name)) << t.name;
  }
}

TEST(ServeOracle, CleanScenarioPassesEveryInvariant) {
  fuzz::ServeGeneratorLimits limits;
  limits.max_devices = 4;
  limits.max_jobs = 6;
  limits.allow_faults = false;
  const auto s = fuzz::generate_serve_scenario(5, limits);
  const auto report = fuzz::run_oracle(s);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0].invariant + ": " +
                                         report.violations[0].detail);
}

// Trophy seeds (docs/FUZZING.md): a ballot copy that hung and was
// speculated was owed both to the integrity queue and, after the hard
// kill, to the plain requeue; both copies committed and the coverage
// assert aborted.
TEST(ServeOracle, DisputedBallotSeedsPassEveryInvariant) {
  for (std::uint64_t seed : {5808u, 13552u}) {
    const auto report =
        fuzz::run_oracle(fuzz::generate_serve_scenario(seed));
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": "
        << (report.violations.empty()
                ? ""
                : report.violations[0].invariant + ": " +
                      report.violations[0].detail);
  }
}

TEST(ServeOracle, DigestIsDeterministic) {
  fuzz::ServeGeneratorLimits limits;
  limits.max_jobs = 5;
  const auto s = fuzz::generate_serve_scenario(9, limits);
  EXPECT_EQ(fuzz::run_oracle(s).digest(),
            fuzz::run_oracle(s).digest());
}

TEST(ServeOracle, MidRunAbortBecomesProgressViolation) {
  // An unknown kernel makes submit() throw from inside the engine run —
  // exactly the class of abort the serve-progress invariant exists for.
  auto s = fuzz::generate_serve_scenario(4);
  s.jobs[0].job.kernel = "no-such-kernel";
  const auto report = fuzz::run_oracle(s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].invariant, "serve-progress");
}

TEST(ServeShrink, AbortShrinksToOneTenantAndOneJob) {
  // The MidRunAbortBecomesProgressViolation shape on a roster of four
  // tenants and eight jobs: only job 0 matters.
  auto s = fuzz::generate_serve_scenario(8);
  s.jobs[0].job.kernel = "no-such-kernel";
  ASSERT_GT(s.tenants.size(), 1u);
  ASSERT_GT(s.jobs.size(), 1u);

  const int budget = fuzz::ServeFuzzConfig{}.shrink_budget;
  const auto shrunk = fuzz::shrink(s, "serve-progress", budget);
  EXPECT_LE(shrunk.oracle_runs, budget);
  ASSERT_EQ(shrunk.scenario.tenants.size(), 1u);
  ASSERT_EQ(shrunk.scenario.jobs.size(), 1u);
  EXPECT_EQ(shrunk.scenario.jobs[0].tenant, 0);
  EXPECT_EQ(shrunk.scenario.jobs[0].job.kernel, "no-such-kernel");

  const auto after = fuzz::run_oracle(shrunk.scenario);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.violations[0].invariant, "serve-progress");
}

TEST(ServeDriver, CorpusSummaryIsByteIdentical) {
  fuzz::ServeFuzzConfig cfg;
  cfg.seed = 3;
  cfg.count = 4;
  cfg.limits.max_jobs = 6;
  cfg.repro_dir = ::testing::TempDir() + "serve_fuzz_det";
  const auto a = fuzz::run_serve_fuzz(cfg);
  const auto b = fuzz::run_serve_fuzz(cfg);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.violations, 0) << a.json;
  EXPECT_EQ(a.scenarios, 4);
  EXPECT_GT(a.jobs, 0);
}

TEST(ServeDriver, ReplayReproducesARecordedFailure) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_fuzz_replay";
  fs::create_directories(dir);

  // Handcraft a repro whose failure is deterministic: the bogus kernel
  // aborts the run, which the oracle reports as serve-progress.
  auto s = fuzz::generate_serve_scenario(4);
  s.jobs[0].job.kernel = "no-such-kernel";
  {
    std::ofstream ini(dir / "serve-repro-4.ini", std::ios::binary);
    ini << mach::to_text(s.machine);
    std::ofstream toml(dir / "serve-repro-4.toml", std::ios::binary);
    toml << fuzz::serve_to_toml(s, "serve-repro-4.ini", "serve-progress");
  }

  const auto outcome =
      fuzz::replay((dir / "serve-repro-4.toml").string());
  EXPECT_TRUE(outcome.serve);
  EXPECT_EQ(outcome.recorded_invariant, "serve-progress");
  EXPECT_TRUE(outcome.reproduced);

  // A clean scenario recorded against the same invariant does NOT
  // reproduce.
  const auto clean = fuzz::generate_serve_scenario(1);
  {
    std::ofstream ini(dir / "serve-repro-1.ini", std::ios::binary);
    ini << mach::to_text(clean.machine);
    std::ofstream toml(dir / "serve-repro-1.toml", std::ios::binary);
    toml << fuzz::serve_to_toml(clean, "serve-repro-1.ini",
                                "serve-progress");
  }
  const auto held = fuzz::replay((dir / "serve-repro-1.toml").string());
  EXPECT_FALSE(held.reproduced);
}

}  // namespace
}  // namespace homp
