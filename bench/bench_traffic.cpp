// Multi-tenant overload serving benchmark (docs/SERVING.md).
//
// Two phases on the "full" machine (4x K40 + 2x Phi behind shared PCIe
// lanes):
//   1. unloaded: the gold tenant alone at ~10% of pool capacity — its
//      p99 latency here is the baseline.
//   2. overload: four tenants (gold / silver-a / silver-b / bronze)
//      offering ~2x the pool's device-seconds, with per-tenant fault
//      scripts, a deadline-carrying tenant, and a blocking tenant.
//
// The committed claim (BENCH_traffic.json): under 2x overload the
// admission/backpressure/shedding stack keeps gold's p99 within 3x of
// its unloaded p99, sheds/rejects visibly (nonzero counts per class),
// and never violates iteration conservation — while a same-seed rerun
// reproduces the JSON byte-for-byte (everything is virtual time; no
// wall clocks touch the output).
//
// --smoke exits nonzero if any of those checks fail; CI runs it on
// every push and uploads the JSON + metrics artifacts.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "machine/profiles.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/traffic.h"

namespace {

using namespace homp;
using namespace homp::serve;

constexpr std::uint64_t kSeed = 0xbe5715u;
constexpr double kOverloadFactor = 2.0;

/// Mean of the bounded Pareto on [lo, hi] with tail index a (a != 1).
double pareto_mean(long long lo, long long hi, double a) {
  if (lo == hi) return static_cast<double>(lo);
  const double xm = static_cast<double>(lo);
  const double xM = static_cast<double>(hi);
  const double head = std::pow(xm, a) / (1.0 - std::pow(xm / xM, a));
  return head * a / (a - 1.0) *
         (std::pow(xm, 1.0 - a) - std::pow(xM, 1.0 - a));
}

ServeOptions serve_options() {
  ServeOptions so;
  so.seed = kSeed;
  so.shed_l1_depth = 8;
  so.shed_l2_depth = 16;
  so.shed_l3_depth = 24;
  so.floor_fraction = 0.1;
  return so;
}

/// One tenant's shape in the overload mix: priority, WFQ weight,
/// capacity share of the offered load, and workload character.
struct Mix {
  const char* name;
  PriorityClass cls;
  double weight;
  BackpressureMode bp;
  std::size_t depth;
  double share;  ///< of pool capacity (sums to kOverloadFactor)
  const char* kernel;
  long long size_min, size_max;
  double tail_alpha;
  int devices;
  bool deadline;  ///< carry a per-job deadline (deadline admission)
  sim::FaultProfile fault;
};

std::vector<Mix> overload_mix() {
  sim::FaultProfile none;
  sim::FaultProfile flaky;  // transient-only: conservation must survive it
  flaky.transfer_fault_rate = 0.01;
  sim::FaultProfile slow;
  slow.slowdown_rate = 0.05;
  slow.slowdown_factor = 3.0;
  return {
      {"gold", PriorityClass::kGold, 2.0, BackpressureMode::kReject, 8,
       0.30, "axpy", 1 << 14, 1 << 17, 1.5, 2, false, none},
      {"silver-a", PriorityClass::kSilver, 2.0, BackpressureMode::kReject,
       12, 0.60, "matvec", 1 << 9, 1 << 11, 1.5, 2, true, none},
      {"silver-b", PriorityClass::kSilver, 1.0, BackpressureMode::kBlock,
       12, 0.50, "axpy", 1 << 14, 1 << 17, 1.5, 2, false, slow},
      {"bronze", PriorityClass::kBronze, 1.0, BackpressureMode::kReject, 16,
       0.60, "sum", 1 << 15, 1 << 19, 1.2, 1, false, flaky},
  };
}

TenantSpec spec_of(const Mix& m) {
  TenantSpec t;
  t.name = m.name;
  t.priority = m.cls;
  t.weight = m.weight;
  t.backpressure = m.bp;
  t.max_queue_depth = m.depth;
  t.fault = m.fault;
  return t;
}

/// Arrival rate placing `share` of the pool's device-seconds per second,
/// from the MODEL_2-predicted mean job, plus the matching load spec.
TenantLoad load_of(const OffloadServer& server, const Mix& m, double share,
                   double duration_s, std::uint64_t seed) {
  const double mean_n = pareto_mean(m.size_min, m.size_max, m.tail_alpha);
  const double pred =
      server.predicted_job_seconds(m.kernel, static_cast<long long>(mean_n),
                                   m.devices);
  const double pool = static_cast<double>(server.pool().size());
  const double rate =
      share * pool / (pred * static_cast<double>(m.devices));

  TenantLoad l;
  l.tenant = spec_of(m);
  l.job.kernel = m.kernel;
  l.job.devices = m.devices;
  if (m.deadline) {
    // Generous relative deadline: only a deep overload backlog breaks
    // it, which is exactly when rejecting at the door beats queueing.
    l.job.deadline_s = 8.0 * pred;
  }
  l.closed_loop = false;
  l.arrival_rate_hz = rate;
  l.size_min = m.size_min;
  l.size_max = m.size_max;
  l.tail_alpha = m.tail_alpha;
  l.duration_s = duration_s;
  l.seed = seed;
  return l;
}

struct PhaseResult {
  ServeReport report;
  std::string summary_json;
};

PhaseResult run_phase(bool overload) {
  const auto mixes = overload_mix();
  std::vector<TenantSpec> tenants;
  if (overload) {
    for (const auto& m : mixes) tenants.push_back(spec_of(m));
  } else {
    tenants.push_back(spec_of(mixes[0]));
  }

  OffloadServer server(mach::builtin("full"), tenants, serve_options());

  // Pick the duration so gold sees ~150 arrivals in both phases; the
  // other tenants run at their own (higher) rates for the same span.
  const double gold_share = overload ? mixes[0].share : 0.1;
  const double gold_mean =
      pareto_mean(mixes[0].size_min, mixes[0].size_max, mixes[0].tail_alpha);
  const double gold_pred = server.predicted_job_seconds(
      mixes[0].kernel, static_cast<long long>(gold_mean), mixes[0].devices);
  const double gold_rate =
      gold_share * static_cast<double>(server.pool().size()) /
      (gold_pred * static_cast<double>(mixes[0].devices));
  const double duration = 150.0 / gold_rate;

  std::vector<TenantLoad> loads;
  if (overload) {
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      loads.push_back(load_of(server, mixes[i], mixes[i].share, duration,
                              kSeed + 11 * (i + 1)));
    }
  } else {
    loads.push_back(load_of(server, mixes[0], 0.1, duration, kSeed + 11));
  }

  TrafficGen gen(server, loads);
  gen.start();
  server.run();

  PhaseResult out;
  out.report = server.report();
  std::ostringstream ss;
  out.report.write_summary_json(ss);
  out.summary_json = ss.str();
  return out;
}

/// --soak: one long overload run (>= 10k submissions) with the regular
/// mix plus a poison tenant whose every job dies mid-run, so terminal
/// kFail records, deadline cancellations and breaker trips all stay hot
/// for the whole soak. The claim under test is memory flatness: after
/// the drain the server retains zero job objects and the engine holds
/// zero pending events and zero live generations — constant state no
/// matter how many jobs flowed through (docs/SERVING.md "Timer
/// lifecycle").
struct SoakResult {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t rejected = 0;
  std::size_t breaker_trips = 0;
  std::size_t retained_jobs = 0;
  std::size_t live_events = 0;
  std::size_t live_generations = 0;
  std::vector<std::string> breaches;
};

SoakResult run_soak(std::size_t min_jobs) {
  auto mixes = overload_mix();
  sim::FaultProfile poison;
  poison.fail_at_s = 1e-4;  // every granted device dies mid-run
  mixes.push_back({"chaos", PriorityClass::kBronze, 1.0,
                   BackpressureMode::kReject, 8, 0.05, "axpy", 1 << 12,
                   1 << 14, 1.5, 2, false, poison});

  std::vector<TenantSpec> tenants;
  for (const auto& m : mixes) tenants.push_back(spec_of(m));
  OffloadServer server(mach::builtin("full"), tenants, serve_options());

  // Aggregate offered rate -> duration placing >= min_jobs submissions.
  double total_rate = 0.0;
  for (const auto& m : mixes) {
    const double mean_n = pareto_mean(m.size_min, m.size_max, m.tail_alpha);
    const double pred = server.predicted_job_seconds(
        m.kernel, static_cast<long long>(mean_n), m.devices);
    total_rate += m.share * static_cast<double>(server.pool().size()) /
                  (pred * static_cast<double>(m.devices));
  }
  const double duration =
      1.1 * static_cast<double>(min_jobs) / total_rate;

  std::vector<TenantLoad> loads;
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    loads.push_back(load_of(server, mixes[i], mixes[i].share, duration,
                            kSeed + 11 * (i + 1)));
  }
  TrafficGen gen(server, loads);
  gen.start();
  server.run();

  SoakResult out;
  for (const auto& c : server.report().counts) {
    out.submitted += c.submitted;
    out.completed += c.completed;
    out.failed += c.failed;
    out.cancelled += c.cancelled;
    out.rejected += c.rejected();
    out.breaker_trips += c.breaker_trips;
  }
  out.retained_jobs = server.retained_jobs();
  out.live_events = server.engine().live_events();
  out.live_generations = server.engine().live_generations();
  out.breaches = server.report().validate();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out, metrics_out, audit_out;
  bool smoke = false;
  bool soak = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--audit-out") == 0 && i + 1 < argc) {
      audit_out = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json-out FILE] [--metrics-out FILE] "
                   "[--audit-out FILE] [--smoke] [--soak]\n",
                   argv[0]);
      return 2;
    }
  }

  if (soak) {
    constexpr std::size_t kMinJobs = 10000;
    const auto r = run_soak(kMinJobs);
    std::printf("traffic soak (machine=full, >= %zu jobs)\n\n", kMinJobs);
    std::printf("%-22s %14zu\n", "submitted", r.submitted);
    std::printf("%-22s %14zu\n", "completed", r.completed);
    std::printf("%-22s %14zu\n", "failed", r.failed);
    std::printf("%-22s %14zu\n", "cancelled", r.cancelled);
    std::printf("%-22s %14zu\n", "rejected", r.rejected);
    std::printf("%-22s %14zu\n", "breaker trips", r.breaker_trips);
    std::printf("%-22s %14zu\n", "retained jobs", r.retained_jobs);
    std::printf("%-22s %14zu\n", "live engine events", r.live_events);
    std::printf("%-22s %14zu\n", "live generations", r.live_generations);
    for (const auto& v : r.breaches) {
      std::printf("  VIOLATION: %s\n", v.c_str());
    }
    int failures = 0;
    auto check = [&](bool ok, const char* what) {
      if (!ok) {
        ++failures;
        std::fprintf(stderr, "SOAK FAIL: %s\n", what);
      }
    };
    check(r.submitted >= kMinJobs, "soak placed fewer than 10k submissions");
    check(r.failed > 0, "poison tenant produced no terminal failures");
    check(r.breaker_trips > 0, "poison tenant never tripped its breaker");
    check(r.breaches.empty(), "soak run has invariant violations");
    check(r.retained_jobs == 0, "server retained job state after drain");
    check(r.live_events == 0, "engine holds pending events after drain");
    check(r.live_generations == 0,
          "engine holds live generations after drain");
    if (failures > 0) return 1;
    std::printf("\nsoak: memory-flat after %zu submissions\n", r.submitted);
    return 0;
  }

  const auto unloaded = run_phase(/*overload=*/false);
  const auto loaded = run_phase(/*overload=*/true);

  const PriorityClass gold = PriorityClass::kGold;
  const double p99_unloaded = unloaded.report.latency_percentile(0.99, &gold);
  const double p99_loaded = loaded.report.latency_percentile(0.99, &gold);
  const double ratio = p99_unloaded > 0.0 ? p99_loaded / p99_unloaded : 0.0;
  const auto breaches = loaded.report.validate();

  std::size_t rejected = 0, blocked = 0;
  for (const auto& c : loaded.report.counts) {
    rejected += c.rejected();
    blocked += c.blocked;
  }

  std::printf("traffic serving bench (machine=full, overload=%.1fx)\n\n",
              kOverloadFactor);
  std::printf("%-22s %14s %14s\n", "", "unloaded", "overload");
  std::printf("%-22s %14zu %14zu\n", "jobs completed",
              unloaded.report.jobs.size(), loaded.report.jobs.size());
  std::printf("%-22s %14.6f %14.6f\n", "gold p99 latency (s)", p99_unloaded,
              p99_loaded);
  std::printf("%-22s %14s %14.2f\n", "gold p99 ratio", "-", ratio);
  std::printf("%-22s %14s %14zu\n", "rejected", "-", rejected);
  std::printf("%-22s %14s %14zu\n", "blocked submissions", "-", blocked);
  std::printf("%-22s %14s %14zu\n", "shed transitions", "-",
              loaded.report.shed_transitions);
  std::printf("%-22s %14s %14zu\n", "violations", "-", breaches.size());
  for (const auto& v : breaches) std::printf("  VIOLATION: %s\n", v.c_str());

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "bench_traffic: cannot write %s\n",
                   json_out.c_str());
      return 2;
    }
    using homp::json_number;
    out << "{\n\"bench\": \"traffic\",\n\"machine\": \"full\",\n"
        << "\"overload_factor\": " << json_number(kOverloadFactor) << ",\n"
        << "\"gold_p99_unloaded_s\": " << json_number(p99_unloaded) << ",\n"
        << "\"gold_p99_overload_s\": " << json_number(p99_loaded) << ",\n"
        << "\"gold_p99_ratio\": " << json_number(ratio) << ",\n"
        << "\"unloaded\": " << unloaded.summary_json
        << ",\n\"overload\": " << loaded.summary_json << "}\n";
  }

  if (!audit_out.empty()) {
    // Serve decision audit of the overload phase: the shed-ladder and
    // breaker activity homp-advise attributes per tenant.
    std::ofstream out(audit_out);
    if (!out) {
      std::fprintf(stderr, "bench_traffic: cannot write %s\n",
                   audit_out.c_str());
      return 2;
    }
    loaded.report.write_audit_json(out);
  }

  if (!metrics_out.empty()) {
    obs::MetricsRegistry reg;
    loaded.report.export_metrics(reg);
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "bench_traffic: cannot write %s\n",
                   metrics_out.c_str());
      return 2;
    }
    if (metrics_out.size() > 5 &&
        metrics_out.compare(metrics_out.size() - 5, 5, ".prom") == 0) {
      reg.write_prometheus(out);
    } else {
      reg.write_json(out);
    }
  }

  if (smoke) {
    int failures = 0;
    auto check = [&](bool ok, const char* what) {
      if (!ok) {
        ++failures;
        std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
      }
    };
    check(breaches.empty(), "overload run has invariant violations");
    check(ratio > 0.0 && ratio <= 3.0,
          "gold p99 under overload exceeds 3x unloaded p99");
    check(rejected > 0, "2x overload produced no rejections");
    check(loaded.report.shed_transitions > 0,
          "2x overload never moved the shed ladder");
    check(!loaded.report.jobs.empty() && !unloaded.report.jobs.empty(),
          "a phase completed zero jobs");
    if (failures > 0) return 1;
    std::printf("\nsmoke: all serving-overload checks passed\n");
  }
  return 0;
}
