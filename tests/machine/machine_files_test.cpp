// The shipped machines/*.ini files must load and agree with the built-in
// profiles they document.

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "machine/parser.h"
#include "machine/profiles.h"

namespace homp::mach {
namespace {

/// tests/CMakeLists.txt passes the source tree as HOMP_SOURCE_DIR, so the
/// files are found from any build tree and a missing one fails the test.
std::string repo_machine_path(const std::string& name) {
  return std::string(HOMP_SOURCE_DIR) + "/machines/" + name + ".ini";
}

class MachineFiles : public ::testing::TestWithParam<std::string> {};

TEST_P(MachineFiles, LoadsAndMatchesBuiltin) {
  auto from_file = load_machine_file(repo_machine_path(GetParam()));
  auto builtin_m = builtin(GetParam());
  ASSERT_EQ(from_file.devices.size(), builtin_m.devices.size());
  ASSERT_EQ(from_file.links.size(), builtin_m.links.size());
  for (std::size_t i = 0; i < from_file.devices.size(); ++i) {
    const auto& a = from_file.devices[i];
    const auto& b = builtin_m.devices[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.memory, b.memory);
    EXPECT_EQ(a.link, b.link);
    EXPECT_NEAR(a.peak_gflops, b.peak_gflops, 1e-6);
    EXPECT_NEAR(a.sustained_gflops, b.sustained_gflops, 1e-6);
    EXPECT_NEAR(a.launch_overhead_s, b.launch_overhead_s, 1e-12);
    EXPECT_NEAR(a.noise, b.noise, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, MachineFiles,
                         ::testing::Values("host-only", "gpu4", "cpu-mic",
                                           "full"),
                         [](const auto& tpinfo) {
                           std::string s = tpinfo.param;
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

TEST(MachineFiles, FaultySampleLoadsWithFaultProfiles) {
  // gpu4-faulty.ini has no builtin counterpart; it documents the fault_*
  // keys (docs/RESILIENCE.md) on gpu4 hardware.
  auto m = load_machine_file(repo_machine_path("gpu4-faulty"));
  ASSERT_EQ(m.devices.size(), 5u);
  EXPECT_FALSE(m.devices[0].fault.any());  // host is clean
  EXPECT_FALSE(m.devices[1].fault.any());  // K40-0 is clean
  EXPECT_DOUBLE_EQ(m.devices[2].fault.transfer_fault_rate, 0.01);
  EXPECT_DOUBLE_EQ(m.devices[2].fault.launch_fault_rate, 0.005);
  EXPECT_DOUBLE_EQ(m.devices[3].fault.slowdown_rate, 0.05);
  EXPECT_DOUBLE_EQ(m.devices[3].fault.slowdown_factor, 4.0);
  EXPECT_DOUBLE_EQ(m.devices[4].fault.fail_at_s, 0.1);
}

TEST(MachineFiles, FaultySampleTextBytesArePinned) {
  // The one shipped file with fault keys, fault_fail_at_s included:
  // checksum_bytes of its to_text as loaded, recorded when it was pinned.
  const std::string text =
      to_text(load_machine_file(repo_machine_path("gpu4-faulty")));
  EXPECT_EQ(checksum_bytes(ChecksumKind::kMix64, text.data(), text.size()),
            0xe46ccd4d1f0a2742)
      << text;
}

}  // namespace
}  // namespace homp::mach
