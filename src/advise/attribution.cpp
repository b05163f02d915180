#include "advise/attribution.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "advise/report_keys.h"
#include "obs/metric_names.h"

namespace homp::advise {

namespace {

/// Overlap deficit fires when exposed transfer exceeds this fraction of
/// the device's total transfer time...
constexpr double kOverlapExposedRatio = 0.25;
/// ...and at least this fraction of the makespan.
constexpr double kOverlapMakespanRatio = 0.01;
/// Findings saving at least this fraction of the makespan are
/// severity-critical.
constexpr double kCriticalMakespanRatio = 0.10;
/// actuals_coverage fires when more than this fraction of assigned
/// chunks never got an actual backfilled.
constexpr double kCoverageMissingRatio = 0.50;

/// Compact deterministic rendering for evidence prose (not meant to
/// round-trip; report JSON re-renders savings with the %.17g rule).
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_ll(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

/// One run's findings before cross-run merging.
struct RawFinding {
  Inspection ins;  ///< runs_present/runs_total/persistent filled later
};

/// Session-level corroboration: cite the merged metrics registry when it
/// carries model-accuracy telemetry for this device.
void corroborate(const Session& s, const std::string& device,
                 std::string& evidence) {
  namespace names = obs::names;
  const std::string lbl = "device=\"" + device + "\"";
  if (s.metrics.value(names::kModelSamples, lbl) > 0.0) {
    evidence += "; session metrics: model2 mean rel-error " +
                fmt(s.metrics.value(names::kModel2RelError, lbl)) + " over " +
                fmt(s.metrics.value(names::kModelSamples, lbl)) + " samples";
  }
}

/// Per-device prediction bias over one run's decision stream:
/// sum(actual) / sum(model2) across chunk-assigned decisions that have
/// both. Returns false when the run carries no such evidence for the
/// device.
bool device_bias(const RunAudit& run, const std::string& device, double& bias,
                 long long& samples) {
  double actual = 0.0, predicted = 0.0;
  long long n = 0;
  for (const AuditDecision& d : run.decisions) {
    if (d.kind != "chunk-assigned" || d.device != device) continue;
    if (d.actual_s <= 0.0 || d.model2_s <= 0.0) continue;
    actual += d.actual_s;
    predicted += d.model2_s;
    ++n;
  }
  if (n == 0 || predicted <= 0.0) return false;
  bias = actual / predicted;
  samples = n;
  return true;
}

void attribute_run(const Session& s, const RunAudit& run,
                   const AttributionOptions& opt,
                   std::vector<RawFinding>& out) {
  const double makespan = run.total_time_s;

  // Participating devices and their finish times.
  std::vector<const AuditDevice*> active;
  for (const AuditDevice& d : run.devices) {
    if (d.chunks > 0) active.push_back(&d);
  }

  auto severity_for = [&](double saving) {
    return makespan > 0.0 && saving >= kCriticalMakespanRatio * makespan
               ? kSeverityCritical
               : kSeverityWarning;
  };

  // --- prediction bias: under_prediction / over_prediction ---------------
  for (const AuditDevice* d : active) {
    double bias = 0.0;
    long long samples = 0;
    if (!device_bias(run, d->name, bias, samples)) continue;

    // Mean finish of the *other* participating devices: the time the
    // rest of the machine was done while this one kept running.
    double others = 0.0;
    int n_others = 0;
    for (const AuditDevice* o : active) {
      if (o == d) continue;
      others += o->finish_time_s;
      ++n_others;
    }
    const double mean_others = n_others > 0 ? others / n_others : 0.0;

    if (bias >= opt.bias_threshold) {
      RawFinding f;
      f.ins.kind = kKindUnderPrediction;
      f.ins.device = d->name;
      f.ins.saving_s = std::max(0.0, d->finish_time_s - mean_others);
      f.ins.severity = severity_for(f.ins.saving_s);
      f.ins.evidence = "ran " + fmt(bias) +
                       "x slower than MODEL_2 predicted over " +
                       fmt_ll(samples) + " chunks; finished at " +
                       fmt(d->finish_time_s) + "s vs " + fmt(mean_others) +
                       "s mean of the other devices";
      if (run.degraded) f.ins.evidence += "; run flagged degraded";
      corroborate(s, d->name, f.ins.evidence);
      f.ins.knob = "re-profile " + d->name +
                   " (its throughput history is stale) or switch to a "
                   "guided/dynamic schedule so the EWMA corrects mid-run";
      out.push_back(std::move(f));
    } else if (bias <= 1.0 / opt.bias_threshold) {
      RawFinding f;
      f.ins.kind = kKindOverPrediction;
      f.ins.device = d->name;
      f.ins.saving_s =
          std::max(0.0, makespan - d->finish_time_s) * (1.0 - bias);
      f.ins.severity = f.ins.saving_s >= kCriticalMakespanRatio * makespan
                           ? kSeverityWarning
                           : kSeverityInfo;
      f.ins.evidence = "ran " + fmt(1.0 / bias) +
                       "x faster than MODEL_2 predicted over " +
                       fmt_ll(samples) + " chunks; idle after " +
                       fmt(d->finish_time_s) + "s of a " + fmt(makespan) +
                       "s run";
      corroborate(s, d->name, f.ins.evidence);
      f.ins.knob = "raise " + d->name +
                   "'s share (model is pessimistic): re-profile it or lower "
                   "its modelled transfer cost";
      out.push_back(std::move(f));
    }
  }

  // --- CUTOFF drop regret ------------------------------------------------
  if (run.has_cutoff) {
    for (std::size_t i = 0; i < run.cutoff_selected.size(); ++i) {
      if (run.cutoff_selected[i] != 0) continue;
      const double pre_w =
          i < run.cutoff_pre_weights.size() ? run.cutoff_pre_weights[i] : 0.0;
      if (pre_w <= 0.0) continue;
      const std::string name = i < run.devices.size()
                                   ? run.devices[i].name
                                   : "slot " + fmt_ll((long long)i);
      // If the session holds bias evidence for the dropped device (from
      // another run where it did participate), correct the modelled
      // share by it: an optimistic model inflates regret.
      double c = 1.0;
      bool have_bias = false;
      for (const RunAudit& other : s.runs) {
        double b = 0.0;
        long long n = 0;
        if (device_bias(other, name, b, n) && b > 0.0) {
          c = std::min(4.0, std::max(0.25, 1.0 / b));
          have_bias = true;
          break;
        }
      }
      RawFinding f;
      f.ins.kind = kKindCutoffDropRegret;
      f.ins.device = name;
      f.ins.saving_s = makespan * pre_w * c;
      f.ins.severity = have_bias && c < 1.0 ? kSeverityInfo : kSeverityWarning;
      f.ins.evidence = "CUTOFF dropped " + name +
                       " holding a pre-drop share of " + fmt(pre_w) +
                       (have_bias
                            ? "; bias-corrected contribution factor " + fmt(c)
                            : "; no bias evidence for the dropped device");
      f.ins.knob =
          "lower the cutoff ratio (keep " + name +
          ") or re-profile it so the pre-drop weights reflect reality";
      out.push_back(std::move(f));
    }
  }

  // --- speculation waste -------------------------------------------------
  for (const AuditDevice& d : run.devices) {
    const long long lost = d.spec_copies_run - d.spec_copies_won;
    if (lost <= 0) continue;
    // Mean actual chunk seconds on this device; fall back to the run
    // mean when the device has no backfilled actuals.
    double sum = 0.0;
    long long n = 0;
    for (const AuditDecision& dec : run.decisions) {
      if (dec.kind != "chunk-assigned" || dec.actual_s <= 0.0) continue;
      if (dec.device == d.name) {
        sum += dec.actual_s;
        ++n;
      }
    }
    if (n == 0) {
      for (const AuditDecision& dec : run.decisions) {
        if (dec.kind == "chunk-assigned" && dec.actual_s > 0.0) {
          sum += dec.actual_s;
          ++n;
        }
      }
    }
    if (n == 0) continue;
    const double mean_chunk = sum / n;
    RawFinding f;
    f.ins.kind = kKindSpeculationWaste;
    f.ins.device = d.name;
    f.ins.saving_s = static_cast<double>(lost) * mean_chunk;
    f.ins.severity = f.ins.saving_s >= kCriticalMakespanRatio * makespan
                         ? kSeverityWarning
                         : kSeverityInfo;
    f.ins.evidence = fmt_ll(lost) + " of " + fmt_ll(d.spec_copies_run) +
                     " speculative copies on " + d.name +
                     " lost the race; mean chunk " + fmt(mean_chunk) + "s";
    f.ins.knob = "raise the speculation tardiness threshold or cap "
                 "speculative copies for " +
                 d.name;
    out.push_back(std::move(f));
  }

  // --- critical-path blame -----------------------------------------------
  if (active.size() >= 2) {
    const AuditDevice* worst = active[0];
    for (const AuditDevice* d : active) {
      if (d->finish_time_s > worst->finish_time_s) worst = d;
    }
    double second = 0.0;
    for (const AuditDevice* d : active) {
      if (d != worst) second = std::max(second, d->finish_time_s);
    }
    const double gap = worst->finish_time_s - second;
    if (gap > 0.0) {
      RawFinding f;
      f.ins.kind = kKindCriticalPathBlame;
      f.ins.device = worst->name;
      f.ins.saving_s = gap;
      f.ins.severity = kSeverityInfo;
      f.ins.evidence = worst->name + " gates the makespan: finished " +
                       fmt(gap) + "s after the next-latest device (" +
                       fmt(worst->finish_time_s) + "s vs " + fmt(second) +
                       "s)";
      f.ins.knob = "shift weight off " + worst->name +
                   " or use guided chunking so trailing chunks shrink";
      out.push_back(std::move(f));
    }
  }

  // --- actuals coverage ---------------------------------------------------
  long long assigned = 0, missing = 0;
  for (const AuditDecision& d : run.decisions) {
    if (d.kind != "chunk-assigned") continue;
    ++assigned;
    if (d.actual_s <= 0.0) ++missing;
  }
  if (assigned > 0 && static_cast<double>(missing) >
                          kCoverageMissingRatio *
                              static_cast<double>(assigned)) {
    RawFinding f;
    f.ins.kind = kKindActualsCoverage;
    f.ins.severity = kSeverityInfo;
    f.ins.evidence = fmt_ll(missing) + " of " + fmt_ll(assigned) +
                     " assigned chunks never got an actual backfilled; "
                     "bias estimates above are low-confidence";
    f.ins.knob = "let the offload run to completion with collect_audit so "
                 "every decision's actual_s backfills";
    out.push_back(std::move(f));
  }
}

void attribute_trace(const TraceEvidence& tr, std::vector<RawFinding>& out) {
  for (const TraceDevice& d : tr.devices) {
    const double exposed = d.transfer_s - d.hidden_s;
    if (d.transfer_s <= 0.0) continue;
    if (exposed <= kOverlapExposedRatio * d.transfer_s) continue;
    if (exposed < kOverlapMakespanRatio * tr.makespan_s) continue;
    RawFinding f;
    f.ins.kind = kKindOverlapDeficit;
    f.ins.device = d.name;
    f.ins.saving_s = exposed;
    f.ins.severity =
        tr.makespan_s > 0.0 && exposed >= kCriticalMakespanRatio * tr.makespan_s
            ? kSeverityWarning
            : kSeverityInfo;
    f.ins.evidence = fmt(exposed) + "s of " + fmt(d.transfer_s) +
                     "s transfer on " + d.name +
                     " ran exposed (not overlapped with its compute)";
    f.ins.knob = "deepen pipelining for " + d.name +
                 ": smaller chunks or more in-flight chunks so copy-in "
                 "hides behind compute";
    out.push_back(std::move(f));
  }
}

void attribute_serve(const ServeAudit& run, std::vector<RawFinding>& out) {
  // Shed-ladder pressure: integrate virtual time spent at level >= 1.
  double pressured = 0.0;
  int level = 0;
  double since = 0.0;
  int peak = 0;
  for (const ServeAuditEvent& e : run.events) {
    if (e.kind != "shed-level") continue;
    // detail carries "L_old -> L_new".
    const std::size_t arrow = e.detail.find("-> ");
    const int next =
        arrow == std::string::npos
            ? 0
            : std::atoi(e.detail.c_str() + arrow + 3);
    if (level == 0 && next > 0) since = e.time_s;
    if (level > 0 && next == 0) pressured += e.time_s - since;
    level = next;
    peak = std::max(peak, next);
  }
  if (level > 0) pressured += run.makespan_s - since;
  if (pressured > 0.0) {
    long long shed_rejects = 0;
    for (const ServeTenantRow& t : run.tenants) {
      shed_rejects += t.rejected_shed;
    }
    RawFinding f;
    f.ins.kind = kKindShedPressure;
    f.ins.saving_s = pressured;
    f.ins.severity =
        run.makespan_s > 0.0 && pressured >= 0.25 * run.makespan_s
            ? kSeverityWarning
            : kSeverityInfo;
    f.ins.evidence = fmt(pressured) + "s of a " + fmt(run.makespan_s) +
                     "s run at shed level >= 1 (peak " + fmt_ll(peak) +
                     ", " + fmt_ll((long long)run.shed_transitions) +
                     " transitions, " + fmt_ll(shed_rejects) +
                     " shed rejections)";
    f.ins.knob = "raise queue capacity or device count, or rate-limit the "
                 "heaviest tenant before the ladder engages";
    out.push_back(std::move(f));
  }

  // Per-tenant breaker flapping.
  for (const ServeTenantRow& t : run.tenants) {
    long long opens = 0;
    for (const ServeAuditEvent& e : run.events) {
      if (e.kind == "breaker-open" && e.tenant == t.name) ++opens;
    }
    if (opens == 0) continue;
    RawFinding f;
    f.ins.kind = kKindBreakerFlap;
    f.ins.tenant = t.name;
    f.ins.severity = opens >= 2 ? kSeverityWarning : kSeverityInfo;
    f.ins.evidence = "circuit breaker for tenant " + t.name + " opened " +
                     fmt_ll(opens) + "x (" + fmt_ll(t.failed) +
                     " failed, " + fmt_ll(t.rejected_breaker) +
                     " rejected while open)";
    f.ins.knob = "fix tenant " + t.name +
                 "'s failing jobs or lengthen the breaker cooldown so "
                 "probes stop churning admission";
    out.push_back(std::move(f));
  }
}

}  // namespace

int severity_rank(const std::string& severity) noexcept {
  if (severity == kSeverityCritical) return 3;
  if (severity == kSeverityWarning) return 2;
  if (severity == kSeverityInfo) return 1;
  return 0;
}

std::vector<Inspection> attribute(const Session& session,
                                  const AttributionOptions& opt) {
  std::vector<RawFinding> raw;
  for (const RunAudit& run : session.runs) {
    attribute_run(session, run, opt, raw);
  }
  for (const TraceEvidence& tr : session.traces) {
    attribute_trace(tr, raw);
  }
  for (const ServeAudit& run : session.serve_runs) {
    attribute_serve(run, raw);
  }

  // Merge by (kind, device, tenant): saving is the mean over runs that
  // fired; severity is the worst observed; evidence comes from the first
  // firing plus a persistence note.
  struct Merged {
    Inspection ins;
    double saving_sum = 0.0;
  };
  std::map<std::string, Merged> merged;  // ordered -> deterministic
  std::vector<std::string> order;        // first-seen order for evidence
  for (RawFinding& f : raw) {
    const std::string key =
        f.ins.kind + '\0' + f.ins.device + '\0' + f.ins.tenant;
    auto it = merged.find(key);
    if (it == merged.end()) {
      Merged m;
      m.ins = f.ins;
      m.ins.runs_present = 1;
      m.saving_sum = f.ins.saving_s;
      merged.emplace(key, std::move(m));
      order.push_back(key);
    } else {
      Merged& m = it->second;
      m.saving_sum += f.ins.saving_s;
      ++m.ins.runs_present;
      if (severity_rank(f.ins.severity) > severity_rank(m.ins.severity)) {
        m.ins.severity = f.ins.severity;
      }
    }
  }

  std::vector<Inspection> out;
  for (auto& [key, m] : merged) {
    Inspection& ins = m.ins;
    // Eligible-run count depends on the finding's evidence source.
    if (ins.kind == kKindOverlapDeficit) {
      ins.runs_total = session.traces.size();
    } else if (ins.kind == kKindShedPressure ||
               ins.kind == kKindBreakerFlap) {
      ins.runs_total = session.serve_runs.size();
    } else {
      ins.runs_total = session.runs.size();
    }
    ins.saving_s = ins.runs_present > 0
                       ? m.saving_sum / static_cast<double>(ins.runs_present)
                       : 0.0;
    ins.persistent = ins.runs_total > 0 && ins.runs_present == ins.runs_total;
    if (ins.runs_total > 1) {
      ins.evidence += ins.persistent
                          ? "; persistent across " +
                                fmt_ll((long long)ins.runs_total) + " runs"
                          : "; seen in " +
                                fmt_ll((long long)ins.runs_present) + " of " +
                                fmt_ll((long long)ins.runs_total) + " runs";
    }
    out.push_back(std::move(ins));
  }

  std::sort(out.begin(), out.end(), [](const Inspection& a,
                                       const Inspection& b) {
    if (a.saving_s != b.saving_s) return a.saving_s > b.saving_s;
    const int ra = severity_rank(a.severity), rb = severity_rank(b.severity);
    if (ra != rb) return ra > rb;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.device != b.device) return a.device < b.device;
    return a.tenant < b.tenant;
  });
  return out;
}

}  // namespace homp::advise
