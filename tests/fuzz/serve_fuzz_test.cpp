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

#include "common/checksum.h"
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

// checksum_bytes of mach::to_text(generate_serve_scenario(seed).machine)
// for seeds 1..100, recorded when they were pinned.
constexpr std::uint64_t kMachineTextDigests[100] = {
    0x6a35eb6e1bbe402a, 0x507fd0e09da76a95, 0x221e9e78bc924c6b,
    0x9eb24d5983c7c872, 0x38c9130d27af3da1, 0x83c3995ccfc43f26,
    0xf0486d05bcc34183, 0xf2351d921c20f997, 0x4ee529aeff6a830e,
    0xb3b9147bd6dca868, 0x14adfc506aa032cf, 0x9d348607bf7f3931,
    0x0050a0ce621010f8, 0xf968137757fddb71, 0x6a7fa894c2b64b81,
    0xf3b2305a63dccba8, 0x76ea611b08c54505, 0x0c505b66251bb4ec,
    0xae29e76b2d8a68b9, 0x2f203a02131e5132, 0xcb07125811f378ca,
    0xfe97e90b3bd5bb8e, 0x111549176c2c9213, 0xb1c2f0e1a0e2e209,
    0x5aff6727e630b0a7, 0x004a7ed5f158c3e6, 0x308e1ece29c016b5,
    0xd8dbd0a24a2a35a9, 0xe756e26e9e41214e, 0x2bef5723b938d40b,
    0x9c3fbb605a8f7196, 0x447b6f9f8f3a1de8, 0x350a9936c3051daf,
    0x4dff40befc9919be, 0x734eba51e3217c76, 0xaa811df347c9c206,
    0x5209ab2d9b73020f, 0xe7bd8f3c3c1d2dd4, 0x61b3dd6229c9de52,
    0x1e281208cf8133a7, 0x48e12e34c210fc71, 0xa7805dbc83fb020a,
    0xbcf3106ca6f8daeb, 0x9a9645fb4aca342c, 0x0c4796be538c585e,
    0xac58f48d40fc9dad, 0x71ba47ef3bd42858, 0xea0665f64e3a90fa,
    0xb5d5153c75ef0c5f, 0x8c45b1190620c65f, 0xb0718f00c148c972,
    0x76093302281cf459, 0x472666bd26cf908e, 0xbf72d90ca1ef8e1a,
    0x36eff7963c431792, 0x80ccb33a8c37ad3a, 0xe581a4150e9e21c5,
    0xc34d6f47ff6a9ec7, 0x00a1bcdee817645a, 0x73afd4c40dd5922b,
    0xfad6b5bcf3c81224, 0xfb6110f96d894808, 0x2dd98a375748890e,
    0x817c791127c289bc, 0x1132545759cad085, 0x63d97dab9c103b1e,
    0xbaa51eb3c5d8b004, 0x3d72719edd9698bd, 0xed30111b61c6c316,
    0x195e268b82f88376, 0x894e79ba690fd5a1, 0x6881813b35f03df8,
    0xf0d8a0e646b0150b, 0xad606ebe9a24e246, 0x99431387827ce692,
    0x6feaf08dce0c7f95, 0x371d1265b7f0b66a, 0x1455eb2c9baf4f6f,
    0x70ead336c663d736, 0xe266230fa7c55798, 0x73465b953014766c,
    0xfc944fe89735e6a4, 0xe98d2e02a23ae0f9, 0x3ba9cfc106c20d02,
    0x909dc1428c3c38f9, 0x6dcfef800f12e35c, 0x5e2143921004410b,
    0x306cba1d5935bc00, 0xdb1deaa29e454f52, 0x48abe4e584cfdc42,
    0x93930257a0d71c4f, 0x0820fff32849222b, 0x6491df09ac56965b,
    0x4d3aa38abde9b14d, 0xcb1a9b4ef61e6e31, 0x3f92a4f5aa458077,
    0xd889abb51bfd589b, 0x9735f7ea822028fb, 0xf8a5f5f544172d37,
    0xbf607c7e5b13d957,
};

TEST(ServeScenario, MachineTextBytesArePinned) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::string text =
        mach::to_text(fuzz::generate_serve_scenario(seed).machine);
    EXPECT_EQ(checksum_bytes(ChecksumKind::kMix64, text.data(), text.size()),
              kMachineTextDigests[seed - 1])
        << "seed " << seed << ":\n"
        << text;
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
  // A negative depth used to wrap to 2^64 - 1, and a repeated section to
  // add a second tenant.
  EXPECT_TRUE(fails_at(
      "[serve]\nseed = 1\n[tenant.0]\nmax_queue_depth = -1\n"
      "[job.0]\ntenant = 0\n",
      "line 4: 'max_queue_depth' needs an unsigned integer, got '-1'"));
  EXPECT_TRUE(fails_at(
      "[serve]\nseed = 1\n[tenant.0]\n[tenant.0]\n[job.0]\ntenant = 0\n",
      "line 4: duplicate section [tenant.0] (first declared at line 3)"));
}

TEST(ServeScenario, InfiniteTenantSlowdownFactorFailsAtLoad) {
  // A tenant fault takes the machine file's rules: an infinite factor,
  // which once loaded and ran, fails when the repro is read.
  const std::string text =
      "[serve]\nseed = 1\n[tenant.0]\nname = t\nslowdown_factor = inf\n"
      "[job.0]\ntenant = 0\n";
  try {
    fuzz::parse_serve_scenario(text);
    ADD_FAILURE() << "an infinite slowdown_factor loaded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "[tenant.0]: fault_slowdown_factor must be a finite number"),
              std::string::npos)
        << e.what();
  }
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
