// Unit coverage for the homp-fuzz harness itself (docs/FUZZING.md):
// scenario generation must be deterministic and always-valid, the
// serialization formats must round-trip exactly, the oracle must catch a
// planted violation, and the shrinker must minimize while preserving the
// failure. The end-to-end CLI contract (byte-identical summaries, repro
// files on disk, --replay) lives in tests/fuzz/run_fuzz_tests.py.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/checksum.h"
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

// checksum_bytes of mach::to_text(generate_scenario(seed).machine) for
// seeds 1..200, recorded when they were pinned: any byte of a generated
// machine's text that moves shows here, not only a text that stops being
// a fixed point.
constexpr std::uint64_t kMachineTextDigests[200] = {
    0x16514d42bedc9c7f, 0x37e4add28395da45, 0x6567d658d965a646,
    0x6a1127a44714a34d, 0x648f865a9d092896, 0xcfa1976684c94186,
    0xe23096af5f8da9c4, 0x05806fd70c38284f, 0x3892cda8c67726c5,
    0xf41adc0cb2e2a365, 0x9a8c0b3156df2e5d, 0x6b25bbe99604af78,
    0x704e5d6b224a2f63, 0xf76561a7addb767f, 0x5f9e8981cc768c7a,
    0xac20946028c86370, 0x5624d28199e7d61b, 0x044310defceb28a4,
    0xd56f0f34c10ef73c, 0x42ea2801d90c1b98, 0x71e121f2aeee35a2,
    0xc61316d62f06cb78, 0x7fb21796c6a0391e, 0x4d43a7beec6918cd,
    0x42e2d22e23bfeb35, 0xfcb963152065c6d7, 0xb8843c57450e75ac,
    0x529942e56ed632c2, 0xc45664f0b025e828, 0xf19688f2ae9e2f2a,
    0x077e70070dfb1d92, 0x9e7e79f1b9cd242b, 0x78195a277db4e636,
    0x2a24143535743298, 0x45ba46efb449a886, 0x5dad35a58b866a1b,
    0x06beb32cae15ea56, 0xcbcc5bcc3aabfb9c, 0xa331b2d90dd2301d,
    0x68ae6d4366c0aebd, 0xb63db8d8c571fbb8, 0x94b8a1454d6e1dae,
    0xecde6b35d75d0758, 0x892339e797ccbf97, 0x96ce6e3197ef7016,
    0xfa43dae94aedb81f, 0x79dd9fdd3650887b, 0x2f722ca0c902f209,
    0xadf49b67d6631127, 0x2372814632762050, 0xc43a5cfe8dcefc08,
    0x1b2e44067a7e7651, 0x422b0af3bafe854c, 0x442bb03e440f3689,
    0x39673ab3e548b75f, 0xb87d31e7dada251a, 0xc6bb1ff1e09a0478,
    0x08d564f25d068f81, 0xf8faf1eef3bdfaff, 0x1a8913c312176215,
    0xe291c922dca650e6, 0x71e456a08b390d88, 0x80f4b928d5e4b6b9,
    0x3dd263ec853a01f3, 0xa2bfa9c5c27b81ac, 0x280d6bcde0a073ee,
    0xbe556815cafae84a, 0x29daa8b7c42724dd, 0x46922c31d072f538,
    0x36e5605d00776736, 0x368436f71080a9c5, 0xf92ba54eab412b4e,
    0xe564761687eb09fc, 0x4e2a0ec34092c68f, 0x9400692de178edf5,
    0x635113846a8911bd, 0x57e15262aee6cd58, 0xe69ab8b36071def4,
    0x49b55512653cb1ab, 0x9fb91da2743c0a02, 0xa3040e5affb7fd86,
    0x4d51cce90d8b4b56, 0xb800a018d079ae73, 0x847a047b1637e25f,
    0x292bbe4792ccc479, 0x45b747001c232892, 0x22717da0239cfce1,
    0x6b56dc20bebd67d3, 0x1b1be7c8fbbf3855, 0xc5e03590ec3d2d8d,
    0xaa2bc3b6d4e9fa2c, 0xa161ae8ba1fe0a50, 0x8db38fa18efb9273,
    0xa934b056a3c92044, 0x070c0be84166d68e, 0x896a43de9bc715ae,
    0x73d79f871d9adfd8, 0xa13a7e86b2231863, 0x3184a2eaf7d1e1f4,
    0xc117cf89b8f53491, 0x48ddfe35fc48a62c, 0x74db81897075a612,
    0x8a8a9dca02743939, 0xb2c67a538ceb6e5c, 0x5797e9eec3165b95,
    0x33fcd2f187018705, 0xdc0adbc21df6b9ba, 0x1d722040d8117c3a,
    0xa61d6250f072b6e3, 0x8b4976d22f6ee54e, 0xaa3684c0f9584324,
    0x886ff9cc9564e010, 0x200ac983d11d51a2, 0xd34a1e522d591d2f,
    0x7af5ed53336ad2db, 0x145df09c42bfbc64, 0x1e18153cdf73cfa2,
    0x103a9f0453b7c42f, 0x26a6fd8760096afa, 0x0f689cc28efa7761,
    0x52cbfdec907d92a5, 0x77d1b62b3a1b2d58, 0x92fec8cdde4c1f99,
    0xf7567f3d030230c5, 0xd18dca55dc445073, 0x17968f8f382f1f20,
    0x07cc62ddc6edae88, 0xf897cc3cf0a1a482, 0xf8de1e229ed7a29d,
    0xd7bfce2d800e074e, 0x9e5027cfff71bcad, 0x5921b1c8e0fa3dc5,
    0x2232ca6734197192, 0xbae1704b4dd4be26, 0xe4dfc34314393350,
    0xf80588cb79fa2300, 0xfeee7f201d795759, 0x513757193b0f7855,
    0x57d1d50275003ca4, 0x639e70b063f79018, 0x23517436a3cb85b1,
    0x98a5da54cd0ecc85, 0x888364f45033e661, 0xe7b6e455c1bf0fd3,
    0x821b54f986289dfc, 0xd8a1a12453ce5f53, 0x1881f6dfca672215,
    0x5dece41147e8f67b, 0x96f092aa07895d9d, 0xc209d59eedc7c307,
    0x743335d92889f8ff, 0x14458cd2bd9260b4, 0x2ea74f0c2f94fe12,
    0xe028aad9ffc81ec6, 0xe5f42c79d45b0640, 0x77580f8e8580ba3d,
    0x207382079fdfb223, 0x7b7d56a226d0af25, 0xefc8f404dd914e49,
    0x381a07b9f9ea9fb0, 0xec603732119ebc48, 0x42f11743db432dd1,
    0x3e5a98e3b44ef2fe, 0xfbee4bda8f5b4fbc, 0x3c029b1a6f5d5eb3,
    0x2aeea831fea181c5, 0x5d29c1946eab0ace, 0x8a59ca6a56265034,
    0xb24c51df4adf1260, 0xf820bbf57c19094f, 0x5e2d8595eea9e1eb,
    0x8389d451ec88b5dd, 0xa4499dc815933d65, 0xea967370fce64810,
    0x16cf84d705d083b3, 0xa36f67a566d45edd, 0x7d89ef5db87214cf,
    0xc2152d204b3a658b, 0x3676ce3cd90f2268, 0x8b80a630b6aead3e,
    0x2bf880736e6ccfa8, 0x5289ef0098409ae8, 0x645ebc41159bb584,
    0xb6e5fe177660a2c1, 0x003489853ebd59fd, 0xdd9c667253e322ff,
    0xa6941782ba27daa2, 0x6b01cfd58a52c83e, 0x465da2563f6cbd8f,
    0x0712a4c06c5c91c6, 0x480b405bedcc9ae1, 0x687424ccd5546eae,
    0xc6f1b5ab60d10c1e, 0x6306008d82c95351, 0x158bb475c25d7a54,
    0x35cd8bec3a6342f3, 0x7e6b2fd10951ee22, 0x1ceee4885a4efb43,
    0x1d544eef9789f43d, 0x2a5ed855a54f6abf,
};

TEST(FuzzScenario, MachineTextBytesArePinned) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::string text =
        mach::to_text(fuzz::generate_scenario(seed).machine);
    EXPECT_EQ(checksum_bytes(ChecksumKind::kMix64, text.data(), text.size()),
              kMachineTextDigests[seed - 1])
        << "seed " << seed << ":\n"
        << text;
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
  // An integer outside its field's type used to narrow (device 1), and a
  // repeated section to append a default scripted fault.
  EXPECT_TRUE(fails_at(
      "[scenario]\nkernel = axpy\n[options]\nfault_seed = 1\n"
      "[fault.0]\ndevice = 4294967297\n",
      "line 6: 'device' needs an integer in [-2147483648, 2147483647], got "
      "'4294967297'"));
  const std::string text = fuzz::to_toml(fuzz::generate_scenario(7));
  ASSERT_NE(text.find("\n[fault.0]\n"), std::string::npos);
  EXPECT_TRUE(fails_at(text + "\n[fault.0]\n",
                       "duplicate section [fault.0] (first declared at line"));
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
