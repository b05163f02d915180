#include "machine/parser.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/checksum.h"
#include "common/error.h"
#include "machine/profiles.h"

namespace homp::mach {
namespace {

constexpr const char* kSample = R"(
# A two-device machine.
[machine]
name = sample

[link pcie0]
latency_us = 10
bandwidth_GBps = 12

[device gpu0]
type = nvgpu
memory = discrete
link = pcie0
peak_gflops = 1430
sustained_gflops = 1100
peak_membw_GBps = 288
sustained_membw_GBps = 210
launch_overhead_us = 15
noise = 0.01

[device cpu]
type = host
memory = shared
link = none
peak_gflops = 1000
sustained_gflops = 800
peak_membw_GBps = 100
sustained_membw_GBps = 90
)";

TEST(MachineParser, ParsesSample) {
  auto m = parse_machine(kSample);
  EXPECT_EQ(m.name, "sample");
  ASSERT_EQ(m.devices.size(), 2u);
  // Host is reordered first regardless of file order.
  EXPECT_EQ(m.devices[0].name, "cpu");
  EXPECT_TRUE(m.devices[0].is_host());
  EXPECT_EQ(m.devices[1].name, "gpu0");
  EXPECT_EQ(m.devices[1].link, 0);
  EXPECT_NEAR(m.links[0].latency_s, 10e-6, 1e-12);
  EXPECT_NEAR(m.links[0].bandwidth_Bps, 12e9, 1.0);
  EXPECT_NEAR(m.devices[1].launch_overhead_s, 15e-6, 1e-12);
}

TEST(MachineParser, RoundTripsThroughText) {
  for (const auto& name : builtin_machine_names()) {
    auto m = builtin(name);
    auto m2 = parse_machine(to_text(m));
    ASSERT_EQ(m2.devices.size(), m.devices.size()) << name;
    for (std::size_t i = 0; i < m.devices.size(); ++i) {
      EXPECT_EQ(m2.devices[i].name, m.devices[i].name);
      EXPECT_EQ(m2.devices[i].type, m.devices[i].type);
      EXPECT_EQ(m2.devices[i].link, m.devices[i].link);
      EXPECT_NEAR(m2.devices[i].sustained_gflops,
                  m.devices[i].sustained_gflops, 1e-9);
      EXPECT_NEAR(m2.devices[i].alloc_overhead_s,
                  m.devices[i].alloc_overhead_s, 1e-15);
    }
    ASSERT_EQ(m2.links.size(), m.links.size());
  }
}

TEST(MachineParser, BuiltinTextBytesArePinned) {
  // checksum_bytes of each builtin's to_text, recorded when they were
  // pinned: RoundTripsThroughText compares fields within tolerances, so
  // only this sees a moved byte.
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"host-only", 0x6d40de78b12d29f0},
      {"gpu4", 0xe1150957de13b75a},
      {"cpu-mic", 0x5da29560668f2c24},
      {"full", 0x81902be99e34fb14},
  };
  for (const auto& [name, digest] : pins) {
    const std::string text = to_text(builtin(name));
    EXPECT_EQ(checksum_bytes(ChecksumKind::kMix64, text.data(), text.size()),
              digest)
        << name << ":\n"
        << text;
  }
}

TEST(MachineParser, DiagnosesLineNumbers) {
  try {
    parse_machine("[machine]\nname = x\nbogus line without equals\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(MachineParser, RejectsUnknownSection) {
  EXPECT_THROW(parse_machine("[gadget g]\nfoo = 1\n"), ConfigError);
}

TEST(MachineParser, RejectsDuplicateKey) {
  EXPECT_THROW(parse_machine("[machine]\nname = a\nname = b\n"), ConfigError);
}

TEST(MachineParser, RejectsUnknownLinkReference) {
  EXPECT_THROW(parse_machine(R"(
[device g]
type = nvgpu
memory = discrete
link = missing
peak_gflops = 10
sustained_gflops = 5
peak_membw_GBps = 10
sustained_membw_GBps = 5
)"),
               ConfigError);
}

TEST(MachineParser, RejectsMissingRequiredKey) {
  EXPECT_THROW(parse_machine(R"(
[device h]
type = host
memory = shared
link = none
peak_gflops = 10
)"),
               ConfigError);
}

TEST(MachineParser, RejectsNonNumericValue) {
  EXPECT_THROW(parse_machine(R"(
[link l]
latency_us = fast
bandwidth_GBps = 12
)"),
               ConfigError);
}

TEST(MachineParser, FileNotFoundThrows) {
  EXPECT_THROW(load_machine_file("/nonexistent/machine.ini"), ConfigError);
}

TEST(MachineParser, RejectsTrailingGarbageAfterNumber) {
  // "12 GB/s" silently parsed as 12 before; now a diagnostic naming the
  // line and the key.
  try {
    parse_machine("[link l]\nlatency_us = 10\nbandwidth_GBps = 12 GB/s\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bandwidth_GBps"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trailing"), std::string::npos) << msg;
  }
}

TEST(MachineParser, RejectsUnknownKeyAtItsLine) {
  // A misspelled optional key used to load and drop its setting. The
  // first unknown key in file order is named, not the first by name.
  try {
    parse_machine(R"([device g]
type = host
memory = shared
link = none
peak_gflops = 10
sustained_gflops = 5
peak_membw_GBps = 10
sustained_membw_GBps = 5
nosie = 0.05
fault_hang_rat = 0.5
)");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown key 'nosie'"), std::string::npos) << msg;
  }
}

TEST(MachineParser, ParsesFaultKeys) {
  auto m = parse_machine(R"(
[device g]
type = host
memory = shared
link = none
peak_gflops = 10
sustained_gflops = 5
peak_membw_GBps = 10
sustained_membw_GBps = 5
fault_transfer_rate = 0.01
fault_launch_rate = 0.02
fault_slowdown_rate = 0.03
fault_slowdown_factor = 5
fault_fail_at_s = 1.5
)");
  ASSERT_EQ(m.devices.size(), 1u);
  const auto& f = m.devices[0].fault;
  EXPECT_DOUBLE_EQ(f.transfer_fault_rate, 0.01);
  EXPECT_DOUBLE_EQ(f.launch_fault_rate, 0.02);
  EXPECT_DOUBLE_EQ(f.slowdown_rate, 0.03);
  EXPECT_DOUBLE_EQ(f.slowdown_factor, 5.0);
  EXPECT_DOUBLE_EQ(f.fail_at_s, 1.5);
  EXPECT_TRUE(f.any());

  // Fault keys survive the to_text round trip.
  auto m2 = parse_machine(to_text(m));
  EXPECT_DOUBLE_EQ(m2.devices[0].fault.transfer_fault_rate, 0.01);
  EXPECT_DOUBLE_EQ(m2.devices[0].fault.fail_at_s, 1.5);
}

TEST(MachineParser, RejectsOutOfRangeFaultRate) {
  EXPECT_THROW(parse_machine(R"(
[device g]
type = host
memory = shared
link = none
peak_gflops = 10
sustained_gflops = 5
peak_membw_GBps = 10
sustained_membw_GBps = 5
fault_transfer_rate = 1.5
)"),
               ConfigError);
}

TEST(MachineParser, ParsesHangAndDegradeKeys) {
  auto m = parse_machine(R"(
[device g]
type = host
memory = shared
link = none
peak_gflops = 10
sustained_gflops = 5
peak_membw_GBps = 10
sustained_membw_GBps = 5
fault_hang_rate = 0.01
fault_degrade_rate = 0.02
fault_degrade_factor = 12
)");
  ASSERT_EQ(m.devices.size(), 1u);
  const auto& f = m.devices[0].fault;
  EXPECT_DOUBLE_EQ(f.hang_rate, 0.01);
  EXPECT_DOUBLE_EQ(f.degrade_rate, 0.02);
  EXPECT_DOUBLE_EQ(f.degrade_factor, 12.0);
  EXPECT_TRUE(f.any());

  // The new keys survive the to_text round trip.
  auto m2 = parse_machine(to_text(m));
  EXPECT_DOUBLE_EQ(m2.devices[0].fault.hang_rate, 0.01);
  EXPECT_DOUBLE_EQ(m2.devices[0].fault.degrade_rate, 0.02);
  EXPECT_DOUBLE_EQ(m2.devices[0].fault.degrade_factor, 12.0);
}

/// One valid device section; the caller appends one bad fault_* line.
std::string device_with(const std::string& extra_line) {
  return std::string(R"(
[device g]
type = host
memory = shared
link = none
peak_gflops = 10
sustained_gflops = 5
peak_membw_GBps = 10
sustained_membw_GBps = 5
)") + extra_line + "\n";
}

TEST(MachineParser, BadFaultValueNamesTheLineAndKey) {
  // The bad key sits on line 10 of the synthesized text (leading newline
  // counts as line 1).
  struct Case {
    const char* line;
    const char* key;
  } cases[] = {
      {"fault_hang_rate = 1.0", "fault_hang_rate"},
      {"fault_hang_rate = -0.5", "fault_hang_rate"},
      {"fault_degrade_rate = 2", "fault_degrade_rate"},
      {"fault_degrade_factor = 0.5", "fault_degrade_factor"},
      {"fault_slowdown_factor = 0", "fault_slowdown_factor"},
      {"fault_fail_at_s = -2", "fault_fail_at_s"},
  };
  for (const auto& c : cases) {
    try {
      parse_machine(device_with(c.line));
      FAIL() << c.line << " was accepted";
    } catch (const ConfigError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 10"), std::string::npos)
          << c.line << ": " << msg;
      EXPECT_NE(msg.find(std::string("'") + c.key + "'"), std::string::npos)
          << c.line << ": " << msg;
    }
  }
}

TEST(MachineParser, ParsesCorruptionKeys) {
  auto m = parse_machine(R"(
[device g]
type = host
memory = shared
link = none
peak_gflops = 10
sustained_gflops = 5
peak_membw_GBps = 10
sustained_membw_GBps = 5
fault_corrupt_transfer_rate = 0.01
fault_corrupt_compute_rate = 0.02
)");
  ASSERT_EQ(m.devices.size(), 1u);
  const auto& f = m.devices[0].fault;
  EXPECT_DOUBLE_EQ(f.corrupt_transfer_rate, 0.01);
  EXPECT_DOUBLE_EQ(f.corrupt_compute_rate, 0.02);
  EXPECT_TRUE(f.any());

  // The corruption keys survive the to_text round trip.
  auto m2 = parse_machine(to_text(m));
  EXPECT_DOUBLE_EQ(m2.devices[0].fault.corrupt_transfer_rate, 0.01);
  EXPECT_DOUBLE_EQ(m2.devices[0].fault.corrupt_compute_rate, 0.02);
}

TEST(MachineParser, BadCorruptionRateNamesTheLineAndKey) {
  struct Case {
    const char* line;
    const char* key;
  } cases[] = {
      {"fault_corrupt_transfer_rate = 1.0", "fault_corrupt_transfer_rate"},
      {"fault_corrupt_transfer_rate = -0.5", "fault_corrupt_transfer_rate"},
      {"fault_corrupt_compute_rate = 2", "fault_corrupt_compute_rate"},
  };
  for (const auto& c : cases) {
    try {
      parse_machine(device_with(c.line));
      FAIL() << c.line << " was accepted";
    } catch (const ConfigError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 10"), std::string::npos)
          << c.line << ": " << msg;
      EXPECT_NE(msg.find(std::string("'") + c.key + "'"), std::string::npos)
          << c.line << ": " << msg;
    }
  }
}

TEST(MachineParser, IntegerKeyFailsAtItsLine) {
  // parallel_units used to read as a double and be cast to int: 2.7
  // loaded as 2, and 1e12 overflowed the conversion.
  for (const char* line : {"parallel_units = 2.7", "parallel_units = 1e12",
                           "parallel_units = 10000000000"}) {
    try {
      parse_machine(device_with(line));
      FAIL() << line << " was accepted";
    } catch (const ConfigError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 10"), std::string::npos) << line << ": " << msg;
      EXPECT_NE(msg.find("'parallel_units' needs an integer"),
                std::string::npos)
          << line << ": " << msg;
    }
  }
}

TEST(MachineParser, DuplicateFaultKeyNamesTheLine) {
  // A repeated key inside one section would silently drop one of the two
  // values — reject it at the exact line of the second occurrence.
  try {
    parse_machine(device_with("fault_corrupt_transfer_rate = 0.01\n"
                              "fault_corrupt_transfer_rate = 0.02"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'fault_corrupt_transfer_rate'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("line 11"), std::string::npos) << msg;
  }
}

TEST(MachineParser, DuplicateSectionNamesBothLines) {
  try {
    parse_machine(device_with("fault_corrupt_compute_rate = 0.01") +
                  device_with("fault_corrupt_compute_rate = 0.02"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate section"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[device g]"), std::string::npos) << msg;
    // The second [device g] header sits on line 12 (the two texts join
    // at the newline); the first was declared at line 2.
    EXPECT_NE(msg.find("line 12"), std::string::npos) << msg;
    EXPECT_NE(msg.find("first declared at line 2"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace homp::mach
