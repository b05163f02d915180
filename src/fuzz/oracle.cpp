#include "fuzz/oracle.h"

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "common/checksum.h"
#include "common/error.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "runtime/metrics_export.h"
#include "runtime/runtime.h"
#include "sched/algorithm.h"

namespace homp::fuzz {

namespace {

std::uint64_t bits_of(double v) noexcept {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

rt::OffloadOptions options_for(const ScenarioSpec& s,
                               sched::AlgorithmKind kind,
                               const rt::Runtime& runtime) {
  rt::OffloadOptions o;
  o.device_ids = runtime.all_devices();
  o.sched = s.sched;
  o.sched.kind = kind;
  o.noise_seed = s.noise_seed;
  o.fault.seed = s.fault_seed;
  o.fault.scripted = s.faults;
  o.watchdog.enabled = s.watchdog;
  o.integrity.enabled = s.integrity;
  o.parallel_offload = s.parallel_offload;
  o.harness.step_budget = s.step_budget;
  o.harness.capture_result_checksum = true;
  o.collect_audit = true;
  return o;
}

struct Checker {
  const ScenarioSpec& s;
  std::vector<Violation>& out;
  std::string algo;

  void fail(const std::string& invariant, const std::string& detail) {
    out.push_back({invariant, algo, detail});
  }

  void check_run(const rt::OffloadResult& res, const rt::LoopKernel& kernel,
                 kern::KernelCase& c, const std::vector<double>& expect) {
    check_conservation(res, kernel);
    check_reference(res, c, expect);
    check_recovery_legality(res);
    check_audit(res, kernel);
    check_metrics(res);
    check_bounds(res);
  }

  void check_conservation(const rt::OffloadResult& res,
                          const rt::LoopKernel& kernel) {
    const long long trip = kernel.iterations.size();
    if (res.total_iterations() != trip) {
      fail("conservation",
           "committed " + std::to_string(res.total_iterations()) +
               " iterations, loop has " + std::to_string(trip));
    }
  }

  void check_reference(const rt::OffloadResult& res, kern::KernelCase& c,
                       const std::vector<double>& expect) {
    if (auto* sum = dynamic_cast<kern::SumCase*>(&c)) {
      sum->set_result(res.reduction);
    }
    std::string why;
    if (!c.matches(expect, &why)) fail("reference", why);
  }

  void check_recovery_legality(const rt::OffloadResult& res) {
    // Event stream ordering and causal preconditions
    // (docs/RESILIENCE.md state machine).
    double last = -1.0;
    std::size_t speculated = 0, spec_committed = 0, abandoned = 0;
    std::size_t vote_opened = 0, vote_committed = 0;
    std::map<int, bool> readmitted;
    for (const auto& e : res.recovery_events) {
      if (e.time < last) {
        fail("recovery-legality",
             "recovery events out of time order at t=" +
                 std::to_string(e.time));
        return;
      }
      last = e.time;
      switch (e.action) {
        case rt::RecoveryAction::kSpeculated:
          ++speculated;
          break;
        case rt::RecoveryAction::kSpecCommitted:
          ++spec_committed;
          break;
        case rt::RecoveryAction::kTardyAbandoned:
          ++abandoned;
          break;
        case rt::RecoveryAction::kReadmitted:
          readmitted[e.device_id] = true;
          break;
        case rt::RecoveryAction::kProbePassed:
        case rt::RecoveryAction::kPromoted:
          if (!readmitted[e.device_id]) {
            fail("recovery-legality",
                 std::string(to_string(e.action)) + " on device " +
                     std::to_string(e.device_id) +
                     " without a prior readmission");
            return;
          }
          break;
        case rt::RecoveryAction::kVoteOpened:
          ++vote_opened;
          break;
        case rt::RecoveryAction::kVoteCommitted:
          ++vote_committed;
          break;
        default:
          break;
      }
      if (spec_committed + abandoned > 2 * speculated) {
        fail("recovery-legality",
             "more speculation outcomes than speculations");
        return;
      }
      if (vote_committed > vote_opened) {
        fail("recovery-legality", "vote committed before any vote opened");
        return;
      }
    }
    for (const auto& d : res.devices) {
      if (d.spec_copies_won > d.spec_copies_run) {
        fail("recovery-legality",
             "device '" + d.device_name + "' won " +
                 std::to_string(d.spec_copies_won) + " of " +
                 std::to_string(d.spec_copies_run) + " speculative copies");
      }
      if (d.integrity_failures > d.integrity_checks) {
        fail("recovery-legality",
             "device '" + d.device_name +
                 "' has more integrity failures than checks");
      }
      if (!s.integrity && d.integrity_checks > 0) {
        fail("recovery-legality",
             "device '" + d.device_name +
                 "' ran integrity checks with verification disabled");
      }
      if (d.quarantined && d.quarantine_count == 0) {
        fail("recovery-legality",
             "device '" + d.device_name +
                 "' quarantined with zero quarantine count");
      }
      if (d.readmissions > d.quarantine_count) {
        fail("recovery-legality",
             "device '" + d.device_name +
                 "' readmitted more often than quarantined");
      }
    }
  }

  void check_audit(const rt::OffloadResult& res,
                   const rt::LoopKernel& kernel) {
    double last = -1.0;
    std::size_t assigned = 0;
    const long long lo = kernel.iterations.lo;
    const long long hi = kernel.iterations.hi;
    for (const auto& d : res.decisions) {
      if (d.time < last) {
        fail("audit-consistency", "decision audit out of time order at t=" +
                                      std::to_string(d.time));
        return;
      }
      last = d.time;
      if (d.kind == rt::DecisionKind::kChunkAssigned) {
        ++assigned;
        if (d.range.lo < lo || d.range.hi > hi || d.range.lo >= d.range.hi) {
          fail("audit-consistency",
               "assigned chunk [" + std::to_string(d.range.lo) + ", " +
                   std::to_string(d.range.hi) + ") outside loop domain [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + ")");
          return;
        }
      }
    }
    // Every scheduler-issued chunk must appear in the audit (requeues and
    // speculative copies may add more records, never fewer).
    if (assigned < res.chunks_issued) {
      fail("audit-consistency",
           "audit holds " + std::to_string(assigned) +
               " chunk assignments, scheduler issued " +
               std::to_string(res.chunks_issued));
    }
  }

  void check_metrics(const rt::OffloadResult& res) {
    obs::MetricsRegistry reg;
    rt::collect_metrics(res, reg);
    if (reg.value(obs::names::kOffloads, "") != 1.0) {
      fail("metrics-consistency", "homp_offloads_total != 1 for one offload");
    }
    if (reg.value(obs::names::kChunksIssued, "") !=
        static_cast<double>(res.chunks_issued)) {
      fail("metrics-consistency",
           "homp_chunks_issued_total disagrees with OffloadResult");
    }
    for (const auto& d : res.devices) {
      const std::string label = "device=\"" + d.device_name + "\"";
      if (reg.value(obs::names::kDeviceIterations, label) !=
          static_cast<double>(d.iterations)) {
        fail("metrics-consistency",
             "homp_device_iterations_total mismatch for device '" +
                 d.device_name + "'");
        return;
      }
    }
  }

  void check_bounds(const rt::OffloadResult& res) {
    if (!(res.total_time >= 0.0) || !std::isfinite(res.total_time)) {
      fail("imbalance-bounds",
           "total_time not finite/non-negative: " +
               std::to_string(res.total_time));
      return;
    }
    const auto im = res.imbalance();
    if (!(im.fraction() >= 0.0 && im.fraction() <= 1.0) ||
        !std::isfinite(im.fraction())) {
      fail("imbalance-bounds",
           "imbalance fraction outside [0, 1]: " +
               std::to_string(im.fraction()));
    }
    for (const auto& d : res.devices) {
      if (d.finish_time > res.total_time * (1.0 + 1e-12) + 1e-15) {
        fail("imbalance-bounds",
             "device '" + d.device_name + "' finished at " +
                 std::to_string(d.finish_time) + " after offload end " +
                 std::to_string(res.total_time));
        return;
      }
    }
    if (res.engine_events == 0) {
      fail("imbalance-bounds", "offload completed with zero engine events");
    }
  }
};

}  // namespace

const std::vector<std::string>& invariant_names() {
  static const std::vector<std::string> kNames = {
      "progress",          "conservation",
      "reference",         "differential-results",
      "recovery-legality", "audit-consistency",
      "metrics-consistency", "imbalance-bounds",
  };
  return kNames;
}

const Violation* find_violation(const std::vector<Violation>& found,
                                const std::string& invariant) {
  for (const auto& v : found) {
    if (v.invariant == invariant) return &v;
  }
  return nullptr;
}

std::uint64_t OracleReport::digest() const noexcept {
  std::uint64_t d = 0x0fffab1e;
  for (const auto& r : runs) {
    d = mix64(d ^ (r.completed ? 1 : 0));
    d = mix64(d ^ static_cast<std::uint64_t>(r.iterations));
    d = mix64(d ^ r.chunks_issued);
    d = mix64(d ^ r.engine_events);
    d = mix64(d ^ r.result_checksum);
    d = mix64(d ^ bits_of(r.reduction));
    d = mix64(d ^ bits_of(r.total_time));
    d = mix64(d ^ (r.degraded ? 2 : 0));
  }
  d = mix64(d ^ violations.size());
  return d;
}

OracleReport run_oracle(const ScenarioSpec& s) {
  OracleReport report;
  const sched::AlgorithmKind* kinds = sched::every_algorithm();
  // One case serves every family: init() restores it to a fresh case's
  // state, and every family is checked against one sequential reference.
  auto c = kern::make_case(s.kernel, s.n, true);
  const auto maps = c->maps();
  const auto kernel = c->kernel();
  const auto expect = c->expected();

  for (int i = 0; i < sched::kNumEveryAlgorithm; ++i) {
    const sched::AlgorithmKind kind = kinds[i];
    rt::Runtime runtime(s.machine);

    if (kind == sched::AlgorithmKind::kHistoryAuto) {
      // HISTORY_AUTO partitions by throughput observed in *previous*
      // offloads; prime its history with one dynamic run, then reset the
      // arrays so the measured run starts from the same state as every
      // other family.
      c->init();
      try {
        (void)runtime.offload(
            kernel, maps,
            options_for(s, sched::AlgorithmKind::kDynamic, runtime));
      } catch (const std::exception&) {
        // A priming failure surfaces through the dynamic family's own
        // run; HISTORY_AUTO then simply runs history-less.
      }
    }

    c->init();
    AlgorithmRun run;
    run.algorithm = sched::to_string(kind);
    Checker checker{s, report.violations, run.algorithm};
    try {
      const auto res = runtime.offload(kernel, maps,
                                       options_for(s, kind, runtime));
      run.completed = true;
      run.iterations = res.total_iterations();
      run.chunks_issued = res.chunks_issued;
      run.engine_events = res.engine_events;
      run.result_checksum = res.result_checksum;
      run.result_checksum_valid = res.result_checksum_valid;
      run.reduction = res.reduction;
      run.total_time = res.total_time;
      run.degraded = res.degraded;
      checker.check_run(res, kernel, *c, expect);
    } catch (const std::exception& e) {
      checker.fail("progress", e.what());
    }
    report.runs.push_back(std::move(run));
  }

  // --- differential invariants across the sweep ---
  const AlgorithmRun* ref = nullptr;
  for (const auto& r : report.runs) {
    if (!r.completed) continue;
    if (ref == nullptr) {
      ref = &r;
      continue;
    }
    if (r.result_checksum_valid && ref->result_checksum_valid &&
        r.result_checksum != ref->result_checksum) {
      std::ostringstream os;
      os << ref->algorithm << " and " << r.algorithm
         << " disagree on output buffers (0x" << std::hex
         << ref->result_checksum << " vs 0x" << r.result_checksum << ")";
      report.violations.push_back({"differential-results", "*", os.str()});
    }
    // Reductions are compared under tolerance: partial-sum grouping
    // differs across chunkings, so bit-exactness is not expected.
    const double a = ref->reduction;
    const double b = r.reduction;
    const double tol = 1e-9 + 1e-6 * std::max(std::fabs(a), std::fabs(b));
    if (std::fabs(a - b) > tol) {
      report.violations.push_back(
          {"differential-results", "*",
           ref->algorithm + " and " + r.algorithm +
               " disagree on the reduction (" + std::to_string(a) + " vs " +
               std::to_string(b) + ")"});
    }
  }
  return report;
}

}  // namespace homp::fuzz
