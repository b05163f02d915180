#include "fuzz/scenario.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/checksum.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/toml.h"

namespace homp::fuzz {

namespace {

/// All numeric fields of the synthesized machine must survive
/// mach::to_text's %.6g formatting byte-exactly, or a replayed repro
/// would run against a *slightly* different machine and walk a different
/// fault trajectory. The generator therefore only ever emits values off
/// these quantization helpers.
double q3(Prng& rng, double lo, double hi) {
  // Multiples of 1/1000 of the span anchor — at most 6 significant
  // digits for the ranges used here.
  const double step = (hi - lo) / 1000.0;
  return lo + step * static_cast<double>(rng.below(1001));
}

mach::DeviceDescriptor make_host(Prng& rng) {
  mach::DeviceDescriptor d;
  d.name = "host";
  d.type = mach::DeviceType::kHost;
  d.memory = mach::MemorySpace::kShared;
  d.link = mach::kNoLink;
  d.peak_gflops = static_cast<double>(irange(rng, 40, 140));
  d.sustained_gflops = static_cast<double>(
      irange(rng, 20, static_cast<long long>(d.peak_gflops)));
  d.peak_membw_GBps = static_cast<double>(irange(rng, 30, 120));
  d.sustained_membw_GBps = static_cast<double>(
      irange(rng, 15, static_cast<long long>(d.peak_membw_GBps)));
  d.parallel_units = static_cast<int>(irange(rng, 1, 32));
  return d;
}

/// Accelerator classes the generator draws from. `kLittle` is the
/// big.LITTLE-style asymmetric profile: a shared-memory cluster of small
/// cores next to the (big) host cores, no interconnect link.
enum class DevClass { kBigGpu, kSmallGpu, kMic, kLittle };

mach::DeviceDescriptor make_accel(Prng& rng, DevClass cls, int index) {
  mach::DeviceDescriptor d;
  char name[32];
  switch (cls) {
    case DevClass::kBigGpu:
      std::snprintf(name, sizeof name, "biggpu-%d", index);
      d.type = mach::DeviceType::kNvGpu;
      d.peak_gflops = static_cast<double>(irange(rng, 600, 1600));
      d.peak_membw_GBps = static_cast<double>(irange(rng, 150, 300));
      d.launch_overhead_s = static_cast<double>(irange(rng, 5, 30)) * 1e-6;
      break;
    case DevClass::kSmallGpu:
      std::snprintf(name, sizeof name, "gpu-%d", index);
      d.type = mach::DeviceType::kNvGpu;
      d.peak_gflops = static_cast<double>(irange(rng, 150, 600));
      d.peak_membw_GBps = static_cast<double>(irange(rng, 60, 180));
      d.launch_overhead_s = static_cast<double>(irange(rng, 3, 20)) * 1e-6;
      break;
    case DevClass::kMic:
      std::snprintf(name, sizeof name, "mic-%d", index);
      d.type = mach::DeviceType::kMic;
      d.peak_gflops = static_cast<double>(irange(rng, 400, 1200));
      d.peak_membw_GBps = static_cast<double>(irange(rng, 100, 250));
      d.launch_overhead_s = static_cast<double>(irange(rng, 50, 200)) * 1e-6;
      break;
    case DevClass::kLittle:
      std::snprintf(name, sizeof name, "little-%d", index);
      d.type = mach::DeviceType::kMic;
      d.memory = mach::MemorySpace::kShared;
      d.link = mach::kNoLink;
      d.peak_gflops = static_cast<double>(irange(rng, 10, 60));
      d.peak_membw_GBps = static_cast<double>(irange(rng, 10, 40));
      d.launch_overhead_s = static_cast<double>(irange(rng, 1, 10)) * 1e-6;
      break;
  }
  d.name = name;
  // Sustained capability is a fraction of advertised — the model /
  // ground-truth divergence the paper's Table V rows hinge on.
  d.sustained_gflops = static_cast<double>(irange(
      rng, std::max<long long>(1, static_cast<long long>(d.peak_gflops) / 3),
      static_cast<long long>(d.peak_gflops)));
  d.sustained_membw_GBps = static_cast<double>(irange(
      rng, std::max<long long>(1, static_cast<long long>(d.peak_membw_GBps) / 3),
      static_cast<long long>(d.peak_membw_GBps)));
  d.alloc_overhead_s = static_cast<double>(irange(rng, 0, 20)) * 1e-6;
  d.noise = 0.001 * static_cast<double>(rng.below(31));  // [0, 0.030]
  d.parallel_units = static_cast<int>(irange(rng, 1, 64));
  return d;
}

/// Rate-based fault profile for one accelerator. Hang rates only when the
/// watchdog is armed (an unwatched hang stalls the offload forever — a
/// scenario bug, not a runtime bug); corruption rates only when integrity
/// verification is on (silent corruption is *supposed* to change results).
sim::FaultProfile make_fault_profile(Prng& rng, bool watchdog,
                                     bool integrity) {
  sim::FaultProfile f;
  f.transfer_fault_rate = rate(rng, 0.05);
  f.launch_fault_rate = rate(rng, 0.05);
  f.slowdown_rate = rate(rng, 0.10);
  f.slowdown_factor = 1.0 + 0.25 * static_cast<double>(irange(rng, 4, 20));
  f.degrade_rate = rate(rng, 0.02);
  f.degrade_factor = 1.0 + 0.25 * static_cast<double>(irange(rng, 4, 28));
  if (watchdog) f.hang_rate = rate(rng, 0.02);
  if (integrity) {
    f.corrupt_transfer_rate = rate(rng, 0.05);
    f.corrupt_compute_rate = rate(rng, 0.05);
  }
  return f;
}

const char* kKernelNames[6] = {"axpy",      "matvec", "matmul",
                               "stencil2d", "sum",    "bm2d"};

// The field lists of the [sched], [options] and [fault.N] sections
// (common/toml.h): to_toml writes and parse_scenario reads each key through
// the same entry.

template <class V, class C>
void sched_fields(V&& v, C& c) {
  v("dynamic_chunk_fraction", c.dynamic_chunk_fraction);
  v("guided_chunk_fraction", c.guided_chunk_fraction);
  v("sample_fraction", c.sample_fraction);
  v("cutoff_ratio", c.cutoff_ratio);
  v("min_chunk", c.min_chunk);
  v("cyclic_block_fraction", c.cyclic_block_fraction);
  v("cyclic_absolute_block", c.cyclic_absolute_block);
  v("steal_grain_fraction", c.steal_grain_fraction);
}

template <class V, class S>
void option_fields(V&& v, S& s) {
  v("noise_seed", s.noise_seed);
  v("fault_seed", s.fault_seed);
  v("integrity", s.integrity);
  v("watchdog", s.watchdog);
  v("parallel_offload", s.parallel_offload);
  v("step_budget", s.step_budget);
}

template <class V, class F>
void fault_fields(V&& v, F& f) {
  v("device", f.device_id);
  v("kind", f.kind, &TomlLine::as_enum<sim::FaultKind, sim::kNumCountedKinds>);
  v("op", f.op);
  v("at_s", f.at_s);
  v("factor", f.factor);
}

}  // namespace

long long irange(Prng& rng, long long lo, long long hi) {
  return lo + static_cast<long long>(
                  rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

double rate(Prng& rng, double cap) {
  const auto steps = static_cast<std::uint64_t>(cap / 0.0005);
  if (steps == 0) return 0.0;
  return 0.0005 * static_cast<double>(rng.below(steps + 1));
}

long long min_trip(const std::string& kernel) {
  if (kernel == "bm2d") return 32;
  if (kernel == "stencil2d") return 8;
  if (kernel == "matmul" || kernel == "matvec") return 4;
  return 8;  // axpy / sum
}

long long quantize_trip(const std::string& kernel, long long n) {
  const long long lo = min_trip(kernel);
  if (n < lo) n = lo;
  if (kernel == "bm2d") n -= n % 16;
  return n;
}

ScenarioSpec generate_scenario(std::uint64_t seed,
                               const GeneratorLimits& limits) {
  HOMP_REQUIRE(limits.max_devices >= 2,
               "fuzz generator needs room for the host plus one accelerator");
  // Decorrelate nearby seeds; the Prng constructor splitmixes again, so
  // seed 1 and seed 2 share nothing.
  Prng rng(mix64(seed ^ 0xf022ed5eedULL));

  ScenarioSpec s;
  s.seed = seed;

  // --- resilience toggles first: they gate what faults may exist ---
  s.watchdog = rng.below(5) != 0;    // off 20% of the time
  s.integrity = rng.below(5) != 0;   // off 20% of the time
  s.parallel_offload = rng.below(4) != 0;

  // --- machine topology ---
  const int n_accel =
      static_cast<int>(irange(rng, 1, limits.max_devices - 1));
  s.machine.name = "fuzz-" + std::to_string(seed);
  s.machine.devices.push_back(make_host(rng));
  int shared_link = -1;  // K80-style: consecutive dies share one slot
  for (int i = 0; i < n_accel; ++i) {
    const auto cls = static_cast<DevClass>(rng.below(4));
    auto d = make_accel(rng, cls, i);
    if (d.memory == mach::MemorySpace::kDiscrete) {
      if (shared_link >= 0 && rng.below(3) == 0) {
        d.link = shared_link;  // share the previous device's link
      } else {
        mach::LinkDescriptor l;
        l.name = "link-" + std::to_string(s.machine.links.size());
        l.latency_s = static_cast<double>(irange(rng, 1, 25)) * 1e-6;
        l.bandwidth_Bps = static_cast<double>(irange(rng, 2, 16)) * 1e9;
        s.machine.links.push_back(l);
        d.link = static_cast<int>(s.machine.links.size()) - 1;
        shared_link = d.link;
      }
    }
    s.machine.devices.push_back(std::move(d));
  }

  // --- kernel / problem size ---
  s.kernel = kKernelNames[rng.below(6)];
  long long cap = limits.max_trip;
  if (s.kernel == "matmul") cap = std::min<long long>(cap, 96);
  else if (s.kernel == "stencil2d") cap = std::min<long long>(cap, 96);
  else if (s.kernel == "bm2d") cap = std::min<long long>(cap, 128);
  else if (s.kernel == "matvec") cap = std::min<long long>(cap, 512);
  s.n = quantize_trip(s.kernel, irange(rng, min_trip(s.kernel), cap));

  // --- scheduler tuning shared by all algorithm families ---
  s.sched.dynamic_chunk_fraction = q3(rng, 0.01, 0.21);
  s.sched.guided_chunk_fraction = q3(rng, 0.05, 0.55);
  s.sched.sample_fraction = q3(rng, 0.05, 0.30);
  s.sched.cutoff_ratio = rng.below(3) == 0 ? q3(rng, 0.05, 0.30) : 0.0;
  s.sched.min_chunk = irange(rng, 1, 8);
  s.sched.cyclic_block_fraction = q3(rng, 0.01, 0.11);
  s.sched.steal_grain_fraction = q3(rng, 0.005, 0.055);

  // --- seeds ---
  s.noise_seed = mix64(seed * 3 + 1) | 1;
  s.fault_seed = mix64(seed * 5 + 2) | 1;

  // --- faults: device 0 (the host) is the fault-free anchor ---
  if (limits.allow_faults && rng.below(4) != 0) {
    for (int i = 1; i <= n_accel; ++i) {
      if (rng.below(2) == 0) continue;  // only a subset faults
      s.machine.devices[static_cast<std::size_t>(i)].fault =
          make_fault_profile(rng, s.watchdog, s.integrity);
    }
    const long long entries = irange(rng, 0, limits.max_script_entries);
    for (long long e = 0; e < entries; ++e) {
      sim::ScriptedFault f;
      f.device_id = static_cast<int>(irange(rng, 1, n_accel));
      // Draw a kind compatible with the toggles.
      for (int tries = 0; tries < 8; ++tries) {
        const auto k = static_cast<sim::FaultKind>(rng.below(8));
        if (k == sim::FaultKind::kHang && !s.watchdog) continue;
        if ((k == sim::FaultKind::kCorruptTransfer ||
             k == sim::FaultKind::kCorruptCompute) &&
            !s.integrity)
          continue;
        f.kind = k;
        break;
      }
      if (f.kind == sim::FaultKind::kDeviceLoss) {
        f.at_s = static_cast<double>(irange(rng, 0, 500)) * 1e-6;
      } else {
        f.op = irange(rng, 0, 5);
        if (f.kind == sim::FaultKind::kSlowdown ||
            f.kind == sim::FaultKind::kDegrade) {
          f.factor = 1.0 + 0.25 * static_cast<double>(irange(rng, 4, 20));
        }
      }
      s.faults.push_back(f);
    }
  }

  // Generous for any healthy run at these sizes; a livelocked scheduler
  // burns through it in well under a second of wall time.
  s.step_budget = 500000 + 200 * s.n;

  s.machine.validate();
  return s;
}

void plant_corrupt_commit(ScenarioSpec& s) {
  HOMP_REQUIRE(s.machine.devices.size() >= 2,
               "planting needs at least one accelerator");
  s.integrity = false;  // verification off: the corruption commits silently
  // Strip generated corruption faults — the planted one must be the only
  // result-changing fault, so the oracle's report is attributable.
  for (auto& d : s.machine.devices) {
    d.fault.corrupt_transfer_rate = 0.0;
    d.fault.corrupt_compute_rate = 0.0;
  }
  std::erase_if(s.faults, [](const sim::ScriptedFault& f) {
    return f.kind == sim::FaultKind::kCorruptTransfer ||
           f.kind == sim::FaultKind::kCorruptCompute;
  });
  sim::ScriptedFault f;
  f.device_id = 1;
  f.kind = sim::FaultKind::kCorruptCompute;
  f.op = 0;  // the accelerator's very first compute
  s.faults.push_back(f);
}

std::string to_toml(const ScenarioSpec& s, const std::string& machine_file,
                    const std::string& invariant,
                    const std::string& algorithm) {
  std::ostringstream os;
  const TomlWriter w{os};
  os << "# homp-fuzz scenario (docs/FUZZING.md); replay with\n"
        "#   homp-fuzz --replay <this file>\n";
  os << "[scenario]\n";
  w("seed", s.seed);
  w("kernel", s.kernel);
  w("n", s.n);
  if (!machine_file.empty()) w("machine_file", machine_file);
  if (!invariant.empty()) w("invariant", invariant);
  if (!algorithm.empty()) w("algorithm", algorithm);

  os << "\n[sched]\n";
  sched_fields(w, s.sched);

  os << "\n[options]\n";
  option_fields(w, s);

  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    os << "\n[fault." << i << "]\n";
    fault_fields(w, s.faults[i]);
  }
  return os.str();
}

ParsedScenario parse_scenario(const std::string& text) {
  ParsedScenario out;
  ScenarioSpec& s = out.scenario;
  s.kernel.clear();
  bool has_fault_seed = false;
  read_toml(text, "scenario", [&](TomlLine& l) {
    if (l.key.empty()) {
      if (starts_with(l.section, "fault.")) {
        s.faults.emplace_back();
      } else if (l.section != "scenario" && l.section != "sched" &&
                 l.section != "options") {
        l.fail("unknown section [" + l.section + "]");
      }
    } else if (l.section == "scenario") {
      l("seed", s.seed);
      l("kernel", s.kernel);
      l("n", s.n);
      l("machine_file", out.machine_file);
      l("invariant", out.invariant);
      l("algorithm", out.algorithm);
    } else if (l.section == "sched") {
      sched_fields(l, s.sched);
    } else if (l.section == "options") {
      option_fields(l, s);
      has_fault_seed |= l.key == "fault_seed";
    } else if (starts_with(l.section, "fault.")) {
      fault_fields(l, s.faults.back());
    }
  });
  if (s.kernel.empty()) {
    throw ConfigError("scenario file has no [scenario] kernel entry");
  }
  // A defaulted seed would replay a different fault trajectory.
  if (!has_fault_seed) {
    throw ConfigError("scenario file has no [options] fault_seed entry");
  }
  return out;
}

}  // namespace homp::fuzz
