#include "fuzz/serve_scenario.h"

#include <algorithm>
#include <sstream>

#include "common/checksum.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/strings.h"
#include "common/toml.h"
#include "fuzz/scenario.h"
#include "sched/algorithm.h"

namespace homp::fuzz {

namespace {

/// The algorithm families serve scenarios draw from. kHistoryAuto is
/// excluded: it needs a primed ThroughputHistory the server does not
/// carry.
const sched::AlgorithmKind kServeAlgorithms[] = {
    sched::AlgorithmKind::kBlock,
    sched::AlgorithmKind::kDynamic,
    sched::AlgorithmKind::kGuided,
    sched::AlgorithmKind::kModel1Auto,
    sched::AlgorithmKind::kModel2Auto,
    sched::AlgorithmKind::kSchedProfileAuto,
    sched::AlgorithmKind::kModelProfileAuto,
    sched::AlgorithmKind::kCyclic,
    sched::AlgorithmKind::kWorkStealing,
};
constexpr int kNumServeAlgorithms = 9;

const char* kServeKernels[6] = {"axpy",      "matvec", "matmul",
                                "stencil2d", "sum",    "bm2d"};

/// Per-tenant fault shape: most tenants are clean; a band is flaky
/// (transient rates the retry/quarantine machinery absorbs); one band is
/// "molasses" — a near-certain heavy slowdown the admission predictor
/// cannot see, so admitted deadlines get missed mid-run and the server
/// must cancel (the kCancelled driver); one band is toxic enough to
/// force terminal kFail records (the containment and breaker driver);
/// one is "poison" — every job deterministically loses all granted
/// devices shortly after dispatch.
sim::FaultProfile draw_tenant_fault(Prng& rng) {
  sim::FaultProfile f;
  const auto band = rng.below(10);
  if (band < 4) return f;  // clean
  if (band < 7) {          // flaky but recoverable
    f.transfer_fault_rate = rate(rng, 0.04);
    f.launch_fault_rate = rate(rng, 0.04);
    f.slowdown_rate = rate(rng, 0.08);
    f.slowdown_factor = 1.0 + 0.25 * static_cast<double>(irange(rng, 4, 16));
    f.hang_rate = rate(rng, 0.01);  // the base options always arm the watchdog
    return f;
  }
  if (band == 7) {  // molasses: admission-invisible 16-64x chunk slowdown
    // A rate must stay below 1: the top step (1.0, which validation
    // rejects) folds onto 0.999, keeping every other draw as it was.
    f.slowdown_rate =
        0.9 + 0.001 * static_cast<double>(
                          std::min<std::uint64_t>(rng.below(101), 99));
    f.slowdown_factor = static_cast<double>(1LL << irange(rng, 4, 6));
    return f;
  }
  if (band == 8) {  // corruption-heavy: integrity voting exhausts attempts
    f.corrupt_compute_rate =
        0.25 + 0.0005 * static_cast<double>(rng.below(501));
    return f;
  }
  // poison: all granted devices die this long after the job starts
  f.fail_at_s = 1e-4 * static_cast<double>(irange(rng, 1, 40));
  return f;
}

// The field lists of the [serve] options and the [tenant.N] and [job.N]
// sections (common/toml.h): serve_to_toml writes and parse_serve_scenario reads
// each key through the same entry.

template <class V, class O>
void option_fields(V&& v, O& o) {
  v("serve_seed", o.seed);
  v("device_mem_bytes", o.device_mem_bytes);
  v("max_devices_per_job", o.max_devices_per_job);
  v("shed_l1_depth", o.shed_l1_depth);
  v("shed_l2_depth", o.shed_l2_depth);
  v("shed_l3_depth", o.shed_l3_depth);
  v("shed_hysteresis", o.shed_hysteresis);
  v("shed_l2_device_cap", o.shed_l2_device_cap);
  v("floor_fraction", o.floor_fraction);
  v("breaker_threshold", o.breaker_threshold);
  v("breaker_cooldown_base_s", o.breaker_cooldown_base_s);
  v("breaker_cooldown_growth", o.breaker_cooldown_growth);
  v("breaker_cooldown_cap_s", o.breaker_cooldown_cap_s);
  v("materialize", o.materialize);
  v("step_budget", o.base.harness.step_budget);
}

template <class V, class T>
void tenant_fields(V&& v, T& t) {
  v("name", t.name);
  v("priority", t.priority,
    &TomlLine::as_enum<serve::PriorityClass, serve::kNumClasses>);
  v("weight", t.weight);
  v("backpressure", t.backpressure,
    &TomlLine::as_enum<serve::BackpressureMode, serve::kNumBackpressureModes>);
  v("max_queue_depth", t.max_queue_depth);
  v("transfer_fault_rate", t.fault.transfer_fault_rate);
  v("launch_fault_rate", t.fault.launch_fault_rate);
  v("slowdown_rate", t.fault.slowdown_rate);
  v("slowdown_factor", t.fault.slowdown_factor);
  v("hang_rate", t.fault.hang_rate);
  v("degrade_rate", t.fault.degrade_rate);
  v("degrade_factor", t.fault.degrade_factor);
  v("corrupt_transfer_rate", t.fault.corrupt_transfer_rate);
  v("corrupt_compute_rate", t.fault.corrupt_compute_rate);
  v("fail_at_s", t.fault.fail_at_s);
}

template <class V, class E>
void job_fields(V&& v, E& e) {
  v("tenant", e.tenant);
  v("at_s", e.at_s);
  v("kernel", e.job.kernel);
  v("n", e.job.n);
  v("devices", e.job.devices);
  v("deadline_s", e.job.deadline_s);
  v("algorithm", e.job.algorithm,
    &TomlLine::as_enum<sched::AlgorithmKind, sched::kNumEveryAlgorithm>);
}

}  // namespace

ServeScenarioSpec generate_serve_scenario(std::uint64_t seed,
                                          const ServeGeneratorLimits& limits) {
  HOMP_REQUIRE(limits.max_devices >= 2 && limits.max_tenants >= 1 &&
                   limits.max_jobs >= 1,
               "serve fuzz generator needs a host+accelerator machine, one "
               "tenant and one job");

  // The single-offload generator already synthesizes valid, text-exact
  // machines; borrow its topology (device fault rates included — the
  // serve base options always arm watchdog + integrity, so every rate
  // kind is containable).
  GeneratorLimits mach_limits;
  mach_limits.max_devices = limits.max_devices;
  mach_limits.allow_faults = limits.allow_faults;
  ServeScenarioSpec s;
  s.seed = seed;
  s.machine = generate_scenario(seed, mach_limits).machine;
  s.machine.name = "serve-fuzz-" + std::to_string(seed);
  const int n_accel = static_cast<int>(s.machine.devices.size()) - 1;

  Prng rng(mix64(seed ^ 0x5e12ef0cc5ULL));

  // --- server knobs ---
  serve::ServeOptions& o = s.options;
  o.seed = mix64(seed * 9 + 5) | 1;
  const double mem_choices[4] = {8e9, 1e6, 1e5, 2e4};
  o.device_mem_bytes = mem_choices[rng.below(4)];
  o.max_devices_per_job =
      rng.below(4) == 0 ? static_cast<int>(irange(rng, 1, n_accel)) : 0;
  o.shed_l1_depth = static_cast<std::size_t>(irange(rng, 2, 8));
  o.shed_l2_depth = o.shed_l1_depth + static_cast<std::size_t>(irange(rng, 0, 6));
  o.shed_l3_depth = o.shed_l2_depth + static_cast<std::size_t>(irange(rng, 0, 6));
  o.breaker_threshold = static_cast<int>(rng.below(4));  // 0 = disabled
  o.breaker_cooldown_base_s = 5e-4 * static_cast<double>(irange(rng, 1, 100));
  o.breaker_cooldown_growth = 2.0;
  o.breaker_cooldown_cap_s =
      o.breaker_cooldown_base_s * static_cast<double>(1LL << irange(rng, 2, 6));
  o.materialize = rng.below(2) == 0;
  // Watchdog + integrity stay armed (base defaults) so hangs and
  // corruption are always containable; the per-job step budget converts
  // any livelock into a terminal kStepBudget record instead of a stuck
  // drain.
  o.base.harness.step_budget = 300000;

  // --- tenant roster ---
  const int n_tenants = static_cast<int>(irange(rng, 1, limits.max_tenants));
  for (int t = 0; t < n_tenants; ++t) {
    serve::TenantSpec ts;
    ts.name = "t";
    ts.name += std::to_string(t);
    ts.priority = static_cast<serve::PriorityClass>(rng.below(3));
    ts.weight = 0.5 * static_cast<double>(irange(rng, 1, 6));
    ts.backpressure = rng.below(2) == 0 ? serve::BackpressureMode::kReject
                                        : serve::BackpressureMode::kBlock;
    ts.max_queue_depth = static_cast<std::size_t>(irange(rng, 1, 6));
    if (limits.allow_faults) ts.fault = draw_tenant_fault(rng);
    s.tenants.push_back(std::move(ts));
  }

  // --- timed job list ---
  // Deadlines are drawn as multiples of the server's own MODEL_2
  // prediction (a throwaway server provides it): tight multiples get
  // rejected at admission, middling ones are admitted and then missed
  // whenever tenant faults inflate the actual runtime — the kCancelled
  // driver — and generous ones are met.
  serve::OffloadServer predictor(s.machine, s.tenants, s.options);
  const int n_jobs = static_cast<int>(
      irange(rng, std::min<long long>(3, limits.max_jobs), limits.max_jobs));
  for (int j = 0; j < n_jobs; ++j) {
    ServeJobEntry e;
    e.tenant = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_tenants)));
    e.at_s = 1e-3 * static_cast<double>(irange(rng, 0, 400));
    e.job.kernel = kServeKernels[rng.below(6)];
    long long cap = limits.max_trip;
    if (e.job.kernel == "matmul" || e.job.kernel == "stencil2d") {
      cap = std::min<long long>(cap, 64);
    } else if (e.job.kernel == "bm2d") {
      cap = std::min<long long>(cap, 96);
    } else if (e.job.kernel == "matvec") {
      cap = std::min<long long>(cap, 256);
    }
    e.job.n = quantize_trip(e.job.kernel,
                            irange(rng, min_trip(e.job.kernel), cap));
    e.job.devices = static_cast<int>(irange(rng, 1, n_accel));
    if (rng.below(3) == 0) {
      const double predicted = predictor.predicted_job_seconds(
          e.job.kernel, e.job.n, e.job.devices);
      const double mult = 1.2 * static_cast<double>(1LL << rng.below(6)) *
                          (1.0 + 0.1 * static_cast<double>(rng.below(10)));
      e.job.deadline_s = std::max(1e-9, mult * predicted);
    }
    e.job.algorithm = kServeAlgorithms[rng.below(kNumServeAlgorithms)];
    s.jobs.push_back(e);
  }

  s.machine.validate();
  return s;
}

std::string serve_to_toml(const ServeScenarioSpec& s,
                          const std::string& machine_file,
                          const std::string& invariant) {
  std::ostringstream os;
  const TomlWriter w{os};
  os << "# homp-fuzz serve scenario (docs/FUZZING.md); replay with\n"
        "#   homp-fuzz --replay <this file>\n";
  os << "[serve]\n";
  w("seed", s.seed);
  if (!machine_file.empty()) w("machine_file", machine_file);
  if (!invariant.empty()) w("invariant", invariant);
  option_fields(w, s.options);

  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    os << "\n[tenant." << t << "]\n";
    tenant_fields(w, s.tenants[t]);
  }

  for (std::size_t j = 0; j < s.jobs.size(); ++j) {
    os << "\n[job." << j << "]\n";
    job_fields(w, s.jobs[j]);
  }
  return os.str();
}

bool is_serve_scenario(const std::string& text) {
  std::string first;  // the first section wins
  read_toml(text, "repro file", [&](TomlLine& l) {
    if (first.empty()) first = l.section;
    l.consumed = true;
  });
  return first == "serve";
}

ParsedServeScenario parse_serve_scenario(const std::string& text) {
  ParsedServeScenario out;
  ServeScenarioSpec& s = out.scenario;
  bool saw_serve = false;
  read_toml(text, "serve scenario", [&](TomlLine& l) {
    if (l.key.empty()) {
      if (l.section == "serve") {
        saw_serve = true;
      } else if (starts_with(l.section, "tenant.")) {
        s.tenants.emplace_back();
      } else if (starts_with(l.section, "job.")) {
        s.jobs.emplace_back();
      } else {
        l.fail("unknown section [" + l.section + "]");
      }
    } else if (l.section == "serve") {
      l("seed", s.seed);
      l("machine_file", out.machine_file);
      l("invariant", out.invariant);
      option_fields(l, s.options);
    } else if (starts_with(l.section, "tenant.")) {
      tenant_fields(l, s.tenants.back());
    } else if (starts_with(l.section, "job.")) {
      job_fields(l, s.jobs.back());
    }
  });
  if (!saw_serve) {
    throw ConfigError("serve scenario file has no [serve] section");
  }
  if (s.tenants.empty() || s.jobs.empty()) {
    throw ConfigError("serve scenario needs at least one tenant and one job");
  }
  for (const auto& e : s.jobs) {
    if (e.tenant < 0 || e.tenant >= static_cast<int>(s.tenants.size())) {
      throw ConfigError("serve scenario job references tenant " +
                        std::to_string(e.tenant) + " of " +
                        std::to_string(s.tenants.size()));
    }
  }
  // Tenant faults follow the machine file's rules (sim::fault_rate_ok and
  // the rest), checked here so a bad repro fails at load.
  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    s.tenants[t].fault.validate("serve scenario [tenant." +
                                std::to_string(t) + "]");
  }
  return out;
}

}  // namespace homp::fuzz
