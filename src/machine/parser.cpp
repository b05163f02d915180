#include "machine/parser.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "common/toml.h"

namespace homp::mach {

namespace {

/// What a key needs beyond its field's C++ type. A double is written as
/// the field times `out` at %.6g and read back times `in` (1e6 and 1e-6
/// for microseconds: in binary64 15 * 1e-6 is neither 15e-6 nor 15 / 1e6).
/// A value outside `ok` fails at its line.
struct Form {
  bool required = false;  ///< a section without the key fails at its header
  double in = 1.0;
  double out = 1.0;
  bool (*ok)(double) = nullptr;
  const char* range = "";      ///< `ok` in words
  bool only_when_set = false;  ///< written only when >= 0 (-1 is never)
};

constexpr Form kRequired{.required = true};
constexpr Form kMicros{.in = 1e-6, .out = 1e6};
// The fault keys' rules are FaultProfile's own (sim/fault.h).
constexpr Form kRate{.ok = sim::fault_rate_ok,
                     .range = "a probability in [0, 1)"};
constexpr Form kFactor{.ok = sim::fault_factor_ok,
                       .range = "a slowdown multiplier >= 1"};
constexpr Form kFailTime{
    .ok = sim::fail_time_ok,
    .range = "a time >= 0 in virtual seconds (or -1 for never)",
    .only_when_set = true};

// The field lists of the [machine], [link NAME] and [device NAME]
// sections: parse_machine reads and to_text writes each key through the
// same entry, in this order.

template <class V, class M>
void machine_fields(V&& v, M& m) {
  v("name", m.name);
}

template <class V, class L>
void link_fields(V&& v, L& l) {
  v("latency_us", l.latency_s, Form{.required = true, .in = 1e-6, .out = 1e6});
  v("bandwidth_GBps", l.bandwidth_Bps,
    Form{.required = true, .in = 1e9, .out = 1e-9});
}

/// `link` names the device's link, or "none": the parser keeps its whole
/// line, since a link may be declared below the device that names it.
template <class V, class D, class S>
void device_fields(V&& v, D& d, S& link) {
  v("type", d.type, kRequired);
  v("memory", d.memory, kRequired);
  v("link", link, kRequired);
  v("peak_gflops", d.peak_gflops, kRequired);
  v("sustained_gflops", d.sustained_gflops, kRequired);
  v("peak_membw_GBps", d.peak_membw_GBps, kRequired);
  v("sustained_membw_GBps", d.sustained_membw_GBps, kRequired);
  v("launch_overhead_us", d.launch_overhead_s, kMicros);
  v("alloc_overhead_us", d.alloc_overhead_s, kMicros);
  v("noise", d.noise);
  v("parallel_units", d.parallel_units);
}

/// More [device NAME] keys, written only when the profile sets a fault so
/// that fault-free machines carry none.
template <class V, class F>
void fault_fields(V&& v, F& f) {
  v("fault_transfer_rate", f.transfer_fault_rate, kRate);
  v("fault_launch_rate", f.launch_fault_rate, kRate);
  v("fault_slowdown_rate", f.slowdown_rate, kRate);
  v("fault_slowdown_factor", f.slowdown_factor, kFactor);
  v("fault_hang_rate", f.hang_rate, kRate);
  v("fault_degrade_rate", f.degrade_rate, kRate);
  v("fault_degrade_factor", f.degrade_factor, kFactor);
  v("fault_corrupt_transfer_rate", f.corrupt_transfer_rate, kRate);
  v("fault_corrupt_compute_rate", f.corrupt_compute_rate, kRate);
  v("fault_fail_at_s", f.fail_at_s, kFailTime);
}

}  // namespace

MachineDescriptor parse_machine(const std::string& text) {
  MachineDescriptor m;
  std::vector<TomlLine> link_lines;    // each device's `link = ...`
  TomlLine header;                     // of the section being read
  std::vector<std::string_view> seen;  // its keys so far
  bool have_host = false;
  const auto walk = [&](auto&& v) {
    if (starts_with(header.section, "link ")) {
      link_fields(v, m.links.back());
    } else if (starts_with(header.section, "device ")) {
      device_fields(v, m.devices.back(), link_lines.back());
      fault_fields(v, m.devices.back().fault);
    } else {
      machine_fields(v, m);
    }
  };
  const auto end_section = [&] {
    walk([&](const char* key, const auto&, const Form& f = {}) {
      if (f.required && std::ranges::find(seen, key) == seen.end()) {
        header.fail("section [" + header.section + "] missing key '" + key +
                    "'");
      }
    });
    seen.clear();
    if (starts_with(header.section, "device ") && m.devices.back().is_host()) {
      if (have_host) header.fail("more than one host device");
      have_host = true;
    }
  };

  read_toml(text, "machine description", [&](TomlLine& l) {
    if (!l.key.empty()) {
      walk([&](const char* key, auto& field, const Form& f = {}) {
        if (l.consumed || l.key != key) return;
        l.consumed = true;
        seen.emplace_back(key);
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_same_v<T, double>) {
          field = l.as_double() * f.in;
          if (f.ok != nullptr && !f.ok(field)) {
            l.fail("key '" + l.key + "' must be " + f.range + ", got " +
                   std::to_string(field));
          }
        } else if constexpr (std::is_enum_v<T>) {
          try {
            if constexpr (std::is_same_v<T, DeviceType>) {
              field = device_type_from_string(l.value);
            } else {
              field = memory_space_from_string(l.value);
            }
          } catch (const ConfigError& e) {
            l.fail(e.what());
          }
        } else if constexpr (std::is_same_v<T, TomlLine>) {
          field = l;
        } else {
          l(key, field);  // an int or a string
        }
      });
      return;
    }
    end_section();
    header = l;
    const auto space = l.section.find(' ');
    const std::string kind = l.section.substr(0, space);
    if (kind != "machine" && kind != "link" && kind != "device") {
      l.fail("unknown section kind '" + kind + "'");
    }
    if (kind != "machine" && space == std::string::npos) {
      l.fail("section [" + kind + "] needs a name");
    }
    const std::string name = l.section.substr(space + 1);
    if (kind == "link") m.links.push_back({.name = name});
    if (kind == "device") {
      m.devices.emplace_back().name = name;
      link_lines.emplace_back();
    }
  });
  end_section();
  HOMP_REQUIRE(have_host, "machine description declares no host device");

  for (std::size_t i = 0; i < m.devices.size(); ++i) {
    const TomlLine& link = link_lines[i];
    if (iequals(link.value, "none")) continue;
    const auto it =
        std::ranges::find(m.links, link.value, &LinkDescriptor::name);
    if (it == m.links.end()) link.fail("unknown link '" + link.value + "'");
    m.devices[i].link = static_cast<int>(it - m.links.begin());
  }
  // The host goes first (device id 0); accelerators keep file order.
  std::ranges::stable_partition(m.devices, &DeviceDescriptor::is_host);
  m.validate();
  return m;
}

MachineDescriptor load_machine_file(const std::string& path) {
  return parse_machine(read_file(path, "machine description file"));
}

std::string to_text(const MachineDescriptor& m) {
  std::ostringstream os;
  const TomlWriter as_is{os};
  // Doubles print at the stream's default precision, which is %.6g.
  const auto w = [&](const char* key, const auto& v, const Form& f = {}) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>, double>) {
      if (!f.only_when_set || v >= 0.0) os << key << " = " << v * f.out << "\n";
    } else {
      as_is(key, v);
    }
  };
  os << "[machine]\n";
  machine_fields(w, m);
  for (const auto& l : m.links) {
    os << "\n[link " << l.name << "]\n";
    link_fields(w, l);
  }
  for (const auto& d : m.devices) {
    os << "\n[device " << d.name << "]\n";
    const std::string link = d.link == kNoLink ? "none" : m.links[d.link].name;
    device_fields(w, d, link);
    if (d.fault.any()) fault_fields(w, d.fault);
  }
  return os.str();
}

}  // namespace homp::mach
