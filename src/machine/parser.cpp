#include "machine/parser.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace homp::mach {

namespace {

struct Value {
  std::string text;
  int line = 0;
  mutable bool read = false;  // a getter took it; unread keys are unknown
};

struct Section {
  std::string kind;  // "machine" | "link" | "device"
  std::string name;
  int line = 0;
  std::map<std::string, Value> kv;
};

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ConfigError("machine description line " + std::to_string(line) +
                    ": " + msg);
}

/// The key's value, marked read; a missing key fails at the header line.
const Value& get(const Section& s, const std::string& key) {
  auto it = s.kv.find(key);
  if (it == s.kv.end()) {
    fail(s.line, "section [" + s.kind + " " + s.name + "] missing key '" +
                     key + "'");
  }
  it->second.read = true;
  return it->second;
}

double get_double(const Section& s, const std::string& key) {
  const Value& v = get(s, key);
  std::size_t pos = 0;
  double d = 0.0;
  try {
    d = std::stod(v.text, &pos);
  } catch (const std::exception&) {
    fail(v.line, "key '" + key + "' is not a number: '" + v.text + "'");
  }
  if (pos != v.text.size()) {
    fail(v.line, "key '" + key + "' has trailing characters after the "
                     "number: '" + v.text + "'");
  }
  return d;
}

double get_double_or(const Section& s, const std::string& key, double dflt) {
  return s.kv.count(key) ? get_double(s, key) : dflt;
}

int key_line(const Section& s, const std::string& key) {
  auto it = s.kv.find(key);
  return it == s.kv.end() ? s.line : it->second.line;
}

/// `fault_*_rate` keys are probabilities: [0, 1). Rejecting bad values at
/// parse time names the offending line; letting them through would only
/// surface as a ConfigError from FaultProfile::validate with no location.
double get_rate(const Section& s, const std::string& key) {
  const double v = get_double_or(s, key, 0.0);
  if (!std::isfinite(v) || v < 0.0 || v >= 1.0) {
    fail(key_line(s, key),
         "key '" + key + "' must be a probability in [0, 1), got " +
             std::to_string(v));
  }
  return v;
}

/// `fault_*_factor` keys are compute-time multipliers: finite and >= 1.
double get_factor(const Section& s, const std::string& key, double dflt) {
  const double v = get_double_or(s, key, dflt);
  if (!std::isfinite(v) || v < 1.0) {
    fail(key_line(s, key),
         "key '" + key + "' must be a slowdown multiplier >= 1, got " +
             std::to_string(v));
  }
  return v;
}

/// `fault_fail_at_s` is a virtual time: finite and >= 0, or exactly -1
/// ("never", the default). Other negatives are almost certainly typos.
double get_fail_time(const Section& s, const std::string& key) {
  const double v = get_double_or(s, key, -1.0);
  if (v == -1.0) return v;
  if (!std::isfinite(v) || v < 0.0) {
    fail(key_line(s, key),
         "key '" + key + "' must be a time >= 0 in virtual seconds "
         "(or -1 for never), got " + std::to_string(v));
  }
  return v;
}

std::string get_string(const Section& s, const std::string& key) {
  return get(s, key).text;
}

/// A misspelled optional key would otherwise drop its setting silently:
/// name the first key no getter read, in file order.
void reject_unread_keys(const std::vector<Section>& sections) {
  for (const auto& s : sections) {
    std::map<int, std::string> unread;  // by line
    for (const auto& [key, v] : s.kv) {
      if (!v.read) unread.emplace(v.line, key);
    }
    if (!unread.empty()) {
      const auto& [line, key] = *unread.begin();
      fail(line, "unknown key '" + key + "' in section [" + s.kind +
                     (s.name.empty() ? "" : " " + s.name) + "]");
    }
  }
}

std::vector<Section> tokenize(const std::string& text) {
  std::vector<Section> sections;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line(raw);
    if (auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') fail(lineno, "unterminated section header");
      auto inner = trim(line.substr(1, line.size() - 2));
      auto space = inner.find(' ');
      Section s;
      s.line = lineno;
      if (space == std::string_view::npos) {
        s.kind = std::string(inner);
      } else {
        s.kind = std::string(trim(inner.substr(0, space)));
        s.name = std::string(trim(inner.substr(space + 1)));
      }
      if (s.kind != "machine" && s.kind != "link" && s.kind != "device") {
        fail(lineno, "unknown section kind '" + s.kind + "'");
      }
      if (s.kind != "machine" && s.name.empty()) {
        fail(lineno, "section [" + s.kind + "] needs a name");
      }
      // A repeated section would silently shadow (or be shadowed by) the
      // first one depending on pass order; name both lines instead.
      for (const auto& prev : sections) {
        if (prev.kind == s.kind && prev.name == s.name) {
          fail(lineno, "duplicate section [" + s.kind +
                           (s.name.empty() ? "" : " " + s.name) +
                           "] (first declared at line " +
                           std::to_string(prev.line) + ")");
        }
      }
      sections.push_back(std::move(s));
      continue;
    }
    auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(lineno, "expected 'key = value' or section header");
    }
    if (sections.empty()) fail(lineno, "key outside of any section");
    auto key = std::string(trim(line.substr(0, eq)));
    auto value = std::string(trim(line.substr(eq + 1)));
    if (key.empty()) fail(lineno, "empty key");
    if (!sections.back().kv.emplace(key, Value{value, lineno}).second) {
      fail(lineno, "duplicate key '" + key + "'");
    }
  }
  return sections;
}

}  // namespace

MachineDescriptor parse_machine(const std::string& text) {
  MachineDescriptor m;
  std::map<std::string, int> link_ids;
  std::vector<DeviceDescriptor> accelerators;
  bool have_host = false;
  DeviceDescriptor host;

  // Links must be resolvable by the time devices reference them; collect
  // link sections in a first pass to make file order irrelevant.
  auto sections = tokenize(text);
  for (const auto& s : sections) {
    if (s.kind != "link") continue;
    if (link_ids.count(s.name)) fail(s.line, "duplicate link '" + s.name + "'");
    LinkDescriptor l;
    l.name = s.name;
    l.latency_s = get_double(s, "latency_us") * 1e-6;
    l.bandwidth_Bps = get_double(s, "bandwidth_GBps") * 1e9;
    link_ids.emplace(s.name, static_cast<int>(m.links.size()));
    m.links.push_back(std::move(l));
  }

  for (const auto& s : sections) {
    if (s.kind == "machine") {
      if (s.kv.count("name")) m.name = get_string(s, "name");
      continue;
    }
    if (s.kind != "device") continue;
    DeviceDescriptor d;
    d.name = s.name;
    d.type = device_type_from_string(get_string(s, "type"));
    d.memory = memory_space_from_string(get_string(s, "memory"));
    const std::string link = get_string(s, "link");
    if (iequals(link, "none")) {
      d.link = kNoLink;
    } else {
      auto it = link_ids.find(link);
      if (it == link_ids.end()) {
        fail(s.line, "device '" + s.name + "' references unknown link '" +
                         link + "'");
      }
      d.link = it->second;
    }
    d.peak_gflops = get_double(s, "peak_gflops");
    d.sustained_gflops = get_double(s, "sustained_gflops");
    d.peak_membw_GBps = get_double(s, "peak_membw_GBps");
    d.sustained_membw_GBps = get_double(s, "sustained_membw_GBps");
    d.launch_overhead_s = get_double_or(s, "launch_overhead_us", 0.0) * 1e-6;
    d.alloc_overhead_s = get_double_or(s, "alloc_overhead_us", 0.0) * 1e-6;
    d.noise = get_double_or(s, "noise", 0.0);
    d.parallel_units =
        static_cast<int>(get_double_or(s, "parallel_units", 1.0));
    d.fault.transfer_fault_rate = get_rate(s, "fault_transfer_rate");
    d.fault.launch_fault_rate = get_rate(s, "fault_launch_rate");
    d.fault.slowdown_rate = get_rate(s, "fault_slowdown_rate");
    d.fault.slowdown_factor = get_factor(s, "fault_slowdown_factor", 4.0);
    d.fault.hang_rate = get_rate(s, "fault_hang_rate");
    d.fault.degrade_rate = get_rate(s, "fault_degrade_rate");
    d.fault.degrade_factor = get_factor(s, "fault_degrade_factor", 8.0);
    d.fault.corrupt_transfer_rate = get_rate(s, "fault_corrupt_transfer_rate");
    d.fault.corrupt_compute_rate = get_rate(s, "fault_corrupt_compute_rate");
    d.fault.fail_at_s = get_fail_time(s, "fault_fail_at_s");
    if (d.is_host()) {
      if (have_host) fail(s.line, "more than one host device");
      have_host = true;
      host = std::move(d);
    } else {
      accelerators.push_back(std::move(d));
    }
  }

  reject_unread_keys(sections);
  HOMP_REQUIRE(have_host, "machine description declares no host device");
  m.devices.push_back(std::move(host));
  for (auto& d : accelerators) m.devices.push_back(std::move(d));
  m.validate();
  return m;
}

MachineDescriptor load_machine_file(const std::string& path) {
  std::ifstream in(path);
  HOMP_REQUIRE(in.good(), "cannot open machine description file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_machine(buf.str());
}

std::string to_text(const MachineDescriptor& m) {
  std::ostringstream os;
  char buf[128];
  os << "[machine]\nname = " << m.name << "\n";
  for (const auto& l : m.links) {
    os << "\n[link " << l.name << "]\n";
    std::snprintf(buf, sizeof buf, "latency_us = %.6g\nbandwidth_GBps = %.6g\n",
                  l.latency_s * 1e6, l.bandwidth_Bps * 1e-9);
    os << buf;
  }
  for (const auto& d : m.devices) {
    os << "\n[device " << d.name << "]\n";
    os << "type = " << to_string(d.type) << "\n";
    os << "memory = " << to_string(d.memory) << "\n";
    os << "link = "
       << (d.link == kNoLink ? std::string("none") : m.links[d.link].name)
       << "\n";
    std::snprintf(buf, sizeof buf,
                  "peak_gflops = %.6g\nsustained_gflops = %.6g\n",
                  d.peak_gflops, d.sustained_gflops);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "peak_membw_GBps = %.6g\nsustained_membw_GBps = %.6g\n",
                  d.peak_membw_GBps, d.sustained_membw_GBps);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "launch_overhead_us = %.6g\nalloc_overhead_us = %.6g\n"
                  "noise = %.6g\nparallel_units = %d\n",
                  d.launch_overhead_s * 1e6, d.alloc_overhead_s * 1e6,
                  d.noise, d.parallel_units);
    os << buf;
    // Fault keys are optional; emit them only when set so fault-free
    // machine files round-trip byte-identically.
    if (d.fault.any()) {
      std::snprintf(buf, sizeof buf,
                    "fault_transfer_rate = %.6g\nfault_launch_rate = %.6g\n"
                    "fault_slowdown_rate = %.6g\n",
                    d.fault.transfer_fault_rate, d.fault.launch_fault_rate,
                    d.fault.slowdown_rate);
      os << buf;
      std::snprintf(buf, sizeof buf, "fault_slowdown_factor = %.6g\n",
                    d.fault.slowdown_factor);
      os << buf;
      std::snprintf(buf, sizeof buf,
                    "fault_hang_rate = %.6g\nfault_degrade_rate = %.6g\n"
                    "fault_degrade_factor = %.6g\n",
                    d.fault.hang_rate, d.fault.degrade_rate,
                    d.fault.degrade_factor);
      os << buf;
      std::snprintf(buf, sizeof buf,
                    "fault_corrupt_transfer_rate = %.6g\n"
                    "fault_corrupt_compute_rate = %.6g\n",
                    d.fault.corrupt_transfer_rate,
                    d.fault.corrupt_compute_rate);
      os << buf;
      if (d.fault.fail_at_s >= 0.0) {
        std::snprintf(buf, sizeof buf, "fault_fail_at_s = %.6g\n",
                      d.fault.fail_at_s);
        os << buf;
      }
    }
  }
  return os.str();
}

}  // namespace homp::mach
