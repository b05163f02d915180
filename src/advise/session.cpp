#include "advise/session.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>

#include "common/error.h"
#include "common/stats.h"

namespace homp::advise {

namespace {

long long ll(const Json& obj, const char* key) {
  return static_cast<long long>(obj.number_or(key, 0.0));
}

AuditPrediction load_prediction(const Json& p) {
  AuditPrediction out;
  out.model1_mean = p.number_or("model1_mean", -1.0);
  out.model2_mean = p.number_or("model2_mean", -1.0);
  out.profile_mean = p.number_or("profile_mean", -1.0);
  out.model_samples = ll(p, "model_samples");
  out.profile_samples = ll(p, "profile_samples");
  out.model1_min = p.number_or("model1_min", -1.0);
  out.model1_max = p.number_or("model1_max", -1.0);
  out.model2_min = p.number_or("model2_min", -1.0);
  out.model2_max = p.number_or("model2_max", -1.0);
  out.profile_min = p.number_or("profile_min", -1.0);
  out.profile_max = p.number_or("profile_max", -1.0);
  return out;
}

RunAudit load_audit(const Json& doc) {
  RunAudit run;
  run.algorithm = doc.string_or_empty("algorithm");
  run.total_time_s = doc.number_or("total_time_s", 0.0);
  run.chunks_issued = ll(doc, "chunks_issued");
  const Json* degraded = doc.find("degraded");
  run.degraded = degraded != nullptr && degraded->boolean();
  const Json* has_cutoff = doc.find("has_cutoff");
  run.has_cutoff = has_cutoff != nullptr && has_cutoff->boolean();

  if (const Json* cut = doc.find("cutoff"); cut != nullptr) {
    if (const Json* sel = cut->find("selected"); sel != nullptr) {
      for (const Json& v : sel->array()) {
        run.cutoff_selected.push_back(static_cast<int>(v.number()));
      }
    }
    if (const Json* w = cut->find("weights"); w != nullptr) {
      for (const Json& v : w->array()) run.cutoff_weights.push_back(v.number());
    }
    if (const Json* pw = cut->find("pre_weights"); pw != nullptr) {
      for (const Json& v : pw->array()) {
        run.cutoff_pre_weights.push_back(v.number());
      }
    }
  }

  if (const Json* devs = doc.find("devices"); devs != nullptr) {
    for (const Json& d : devs->array()) {
      AuditDevice dev;
      dev.name = d.string_or_empty("name");
      dev.id = static_cast<int>(d.number_or("id", -1.0));
      dev.slot = static_cast<int>(d.number_or("slot", -1.0));
      dev.finish_time_s = d.number_or("finish_time_s", 0.0);
      dev.chunks = ll(d, "chunks");
      dev.iterations = ll(d, "iterations");
      dev.bytes_in = d.number_or("bytes_in", 0.0);
      dev.bytes_out = d.number_or("bytes_out", 0.0);
      dev.tardy_chunks = ll(d, "tardy_chunks");
      dev.spec_copies_run = ll(d, "spec_copies_run");
      dev.spec_copies_won = ll(d, "spec_copies_won");
      dev.requeued_iterations = ll(d, "requeued_iterations");
      dev.quarantine_count = ll(d, "quarantine_count");
      if (const Json* p = d.find("prediction"); p != nullptr) {
        dev.prediction = load_prediction(*p);
      }
      run.devices.push_back(std::move(dev));
    }
  }

  if (const Json* decs = doc.find("decisions"); decs != nullptr) {
    for (const Json& d : decs->array()) {
      AuditDecision dec;
      dec.time_s = d.number_or("time_s", 0.0);
      dec.slot = static_cast<int>(d.number_or("slot", -1.0));
      dec.device = d.string_or_empty("device");
      dec.kind = d.string_or_empty("kind");
      dec.begin = ll(d, "begin");
      dec.end = ll(d, "end");
      dec.chunk_bytes = d.number_or("chunk_bytes", 0.0);
      dec.model1_s = d.number_or("model1_s", -1.0);
      dec.model2_s = d.number_or("model2_s", -1.0);
      dec.profile_s = d.number_or("profile_s", -1.0);
      dec.ewma_iter_s = d.number_or("ewma_iter_s", -1.0);
      dec.actual_s = d.number_or("actual_s", -1.0);
      dec.detail = d.string_or_empty("detail");
      run.decisions.push_back(std::move(dec));
    }
  }
  return run;
}

ServeAudit load_serve_audit(const Json& doc) {
  ServeAudit run;
  run.makespan_s = doc.number_or("makespan_s", 0.0);
  run.final_shed_level = static_cast<int>(doc.number_or("final_shed_level", 0));
  run.shed_transitions = ll(doc, "shed_transitions");
  if (const Json* tenants = doc.find("tenants"); tenants != nullptr) {
    for (const Json& t : tenants->array()) {
      ServeTenantRow row;
      row.name = t.string_or_empty("name");
      row.priority = t.string_or_empty("class");
      row.submitted = ll(t, "submitted");
      row.admitted = ll(t, "admitted");
      row.rejected_shed = ll(t, "rejected_shed");
      row.rejected_breaker = ll(t, "rejected_breaker");
      row.completed = ll(t, "completed");
      row.failed = ll(t, "failed");
      row.cancelled = ll(t, "cancelled");
      row.breaker_trips = ll(t, "breaker_trips");
      run.tenants.push_back(std::move(row));
    }
  }
  if (const Json* events = doc.find("events"); events != nullptr) {
    for (const Json& e : events->array()) {
      ServeAuditEvent ev;
      ev.time_s = e.number_or("time_s", 0.0);
      ev.kind = e.string_or_empty("kind");
      ev.tenant = e.string_or_empty("tenant");
      ev.job_id = static_cast<std::uint64_t>(e.number_or("job_id", 0.0));
      ev.detail = e.string_or_empty("detail");
      run.events.push_back(std::move(ev));
    }
  }
  return run;
}

/// Half-open [t0, t1) intervals, kept sorted and disjoint by normalize().
using Intervals = std::vector<std::pair<double, double>>;

void normalize(Intervals& iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!out.empty() && a <= out.back().second) {
      out.back().second = std::max(out.back().second, b);
    } else {
      out.emplace_back(a, b);
    }
  }
  iv = std::move(out);
}

double measure(const Intervals& iv) {
  double total = 0.0;
  for (const auto& [a, b] : iv) total += b - a;
  return total;
}

/// Total length of the intersection of two normalized interval sets.
double intersection_measure(const Intervals& x, const Intervals& y) {
  double total = 0.0;
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    const double lo = std::max(x[i].first, y[j].first);
    const double hi = std::min(x[i].second, y[j].second);
    if (hi > lo) total += hi - lo;
    if (x[i].second < y[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

/// First word of a span name: "compute [0, 100)" -> "compute".
std::string phase_of(const std::string& name) {
  const std::size_t sp = name.find(' ');
  return sp == std::string::npos ? name : name.substr(0, sp);
}

/// A span's integer `tid` or `pid`: every per-device and per-tenant
/// figure is keyed by them.
long long span_id(const Json& ev, const char* key, std::size_t index) {
  const Json* v = ev.find(key);
  const double x = v != nullptr ? v->number() : 0.0;
  HOMP_REQUIRE(v != nullptr && v->is_number() && x == std::floor(x) &&
                   std::fabs(x) < 1e15,
               "trace span " + std::to_string(index) + " has no integer " +
                   key);
  return static_cast<long long>(x);
}

/// `s` with every whitespace run collapsed to one space and both ends
/// trimmed, so a detail stays on its `key: value` row.
std::string one_line(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      out += c;
    } else if (!out.empty() && out.back() != ' ') {
      out += ' ';
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

const char* to_string(ArtifactKind k) noexcept {
  switch (k) {
    case ArtifactKind::kAudit:
      return "audit";
    case ArtifactKind::kServeAudit:
      return "serve-audit";
    case ArtifactKind::kMetrics:
      return "metrics";
    case ArtifactKind::kTrace:
      return "trace";
    case ArtifactKind::kBench:
      return "bench";
    case ArtifactKind::kUnknown:
      break;
  }
  return "unknown";
}

ArtifactKind classify(const Json& doc) noexcept {
  if (doc.is_array()) return ArtifactKind::kTrace;
  if (!doc.is_object()) return ArtifactKind::kUnknown;
  if (doc.has_key("homp_audit_version")) return ArtifactKind::kAudit;
  if (doc.has_key("homp_serve_audit_version")) return ArtifactKind::kServeAudit;
  if (doc.has_key("homp_metrics_version")) return ArtifactKind::kMetrics;
  if (doc.has_key("bench")) return ArtifactKind::kBench;
  return ArtifactKind::kUnknown;
}

TraceEvidence reduce_trace(const Json& doc) {
  const std::vector<Json>& events = doc.array();
  HOMP_REQUIRE(!events.empty(), "trace is empty (zero events)");

  // Metadata first: device names by thread, tenant names by process.
  std::map<long long, std::string> thread_names, process_names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& ev = events[i];
    HOMP_REQUIRE(ev.is_object(),
                 "trace event " + std::to_string(i) + " is not an object");
    if (ev.string_or_empty("ph") != "M") continue;
    const Json* args = ev.find("args");
    const std::string name = args != nullptr ? args->string_or_empty("name")
                                             : std::string();
    if (ev.string_or_empty("name") == "thread_name") {
      thread_names[ll(ev, "tid")] = name;
    } else if (ev.string_or_empty("name") == "process_name") {
      process_names[ll(ev, "pid")] = name;
    }
  }

  struct Slot {
    Intervals transfer, compute, busy;
    std::optional<double> arrival;  ///< start of its final-barrier span
  };
  struct Process {
    long long spans = 0;
    double start = std::numeric_limits<double>::infinity();
    std::map<long long, Intervals> threads;
  };
  std::map<long long, Slot> slots;         // by tid
  std::map<long long, Process> processes;  // by pid
  std::map<long long, double> quarantined_at;  // by tid, still out at the end
  std::optional<double> release;  // of the final barrier

  TraceEvidence out;
  out.events = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& ev = events[i];
    const std::string& ph = ev.string_or_empty("ph");
    const std::string& name = ev.string_or_empty("name");
    if (ph == "i") {
      const std::string& cat = ev.string_or_empty("cat");
      if (cat == "fault") ++out.faults;
      if (cat == "recovery") ++out.recovery_actions;
      if (cat == "decision") {
        ++out.decisions;
        if (name == "decision: quarantined") {
          quarantined_at[ll(ev, "tid")] = ev.number_or("ts", 0.0) / 1e6;
        } else if (name == "decision: readmitted") {
          quarantined_at.erase(ll(ev, "tid"));
        }
      }
      if (cat != "serve") continue;
      // Terminal job outcomes and breaker trips of a serving run.
      if (name == "breaker-open") ++out.breaker_trips;
      if (name != "fail" && name != "cancel") continue;
      const Json* args = ev.find("args");
      TraceServeJob job;
      job.cancelled = name == "cancel";
      const auto tenant = process_names.find(ll(ev, "pid"));
      job.tenant = tenant != process_names.end() ? tenant->second : "?";
      if (args != nullptr) {
        job.job = static_cast<long long>(args->number_or("job", -1.0));
        job.detail = one_line(args->string_or_empty("detail"));
      }
      job.error_class = one_line(job.detail.substr(0, job.detail.find(':')));
      if (job.error_class.empty()) job.error_class = "unspecified";
      out.serve_jobs.push_back(std::move(job));
      continue;
    }
    if (ph != "X") continue;
    const long long tid = span_id(ev, "tid", i);
    const long long pid = span_id(ev, "pid", i);
    const double t0 = ev.number_or("ts", 0.0) / 1e6;
    const double t1 = t0 + ev.number_or("dur", 0.0) / 1e6;
    const std::string phase = phase_of(name);
    Slot& s = slots[tid];
    if (phase == "barrier") {
      // A final-barrier span runs from its device's arrival to the
      // barrier's release.
      if (name.ends_with("final")) {
        s.arrival = t0;
        release = std::max(release.value_or(t1), t1);
      }
    } else {
      s.busy.emplace_back(t0, t1);
      if (phase == "compute") s.compute.emplace_back(t0, t1);
      if (phase == "copy-in" || phase == "copy-out") {
        s.transfer.emplace_back(t0, t1);
      }
    }
    Process& p = processes[pid];
    ++p.spans;
    p.start = std::min(p.start, t0);
    p.threads[tid].emplace_back(t0, t1);
    out.makespan_s = std::max(out.makespan_s, t1);
  }
  HOMP_REQUIRE(!slots.empty(), "trace contains no spans");

  std::vector<double> finishes;  // participating devices only
  for (auto& [tid, s] : slots) {
    const bool participating = !s.compute.empty();
    normalize(s.transfer);
    normalize(s.compute);
    normalize(s.busy);
    TraceDevice dev;
    const auto named = thread_names.find(tid);
    dev.name = named != thread_names.end() && !named->second.empty()
                   ? named->second
                   : "slot " + std::to_string(tid);
    dev.slot = static_cast<int>(tid);
    dev.transfer_s = measure(s.transfer);
    dev.compute_s = measure(s.compute);
    dev.hidden_s = intersection_measure(s.transfer, s.compute);
    dev.busy_s = measure(s.busy);
    // Finish rule: see reduce_trace() in session.h.
    const auto quarantined = quarantined_at.find(tid);
    if (s.arrival) {
      dev.finish_s = *s.arrival;
    } else if (quarantined != quarantined_at.end()) {
      dev.finish_s = quarantined->second;
    } else {
      dev.finish_s =
          release.value_or(s.busy.empty() ? 0.0 : s.busy.back().second);
    }
    if (participating) {
      if (finishes.empty() ||
          dev.finish_s > out.devices[out.critical].finish_s) {
        out.critical = out.devices.size();
      }
      finishes.push_back(dev.finish_s);
    }
    out.devices.push_back(std::move(dev));
  }
  if (!finishes.empty()) {
    const auto [lo, hi] = std::minmax_element(finishes.begin(), finishes.end());
    out.barrier_skew_s = *hi - *lo;
  }
  out.imbalance_pct = imbalance_of(finishes).percent();

  if (!process_names.empty() || processes.size() > 1) {
    for (auto& [pid, p] : processes) {
      TraceTenant t;
      const auto named = process_names.find(pid);
      t.name = named != process_names.end() && !named->second.empty()
                   ? named->second
                   : "pid " + std::to_string(pid);
      t.spans = p.spans;
      t.threads = static_cast<long long>(p.threads.size());
      std::vector<double> thread_finishes;
      for (auto& [tid, iv] : p.threads) {
        normalize(iv);
        t.busy_s += measure(iv);
        thread_finishes.push_back(iv.empty() ? p.start : iv.back().second);
      }
      const Imbalance im = imbalance_of(thread_finishes);
      t.critical_path_s = im.max_time;
      t.makespan_s = im.max_time - p.start;
      t.imbalance_pct = im.percent();
      out.tenants.push_back(std::move(t));
    }
  }
  return out;
}

void load_metrics(const Json& doc, obs::MetricsRegistry& reg) {
  HOMP_REQUIRE(doc.number_or("homp_metrics_version", 0.0) == 1.0,
               "unsupported homp_metrics_version in metrics document");
  const Json* metrics = doc.find("metrics");
  if (metrics == nullptr) return;
  for (const Json& m : metrics->array()) {
    const std::string& name = m.string_or_empty("name");
    const std::string& labels = m.string_or_empty("labels");
    const std::string& type = m.string_or_empty("type");
    if (type == "counter") {
      reg.add(name, labels, m.number_or("value", 0.0));
    } else if (type == "gauge") {
      reg.set(name, labels, m.number_or("value", 0.0));
    } else if (type == "histogram") {
      // Exact reconstruction: the exporter emits cumulative counts for
      // finite buckets 0..last in order, then "+Inf" with the total.
      // Per-bucket counts are the cumulative diffs; any remainder beyond
      // the last finite entry can only live in the final bucket
      // (write_json collapses trailing-empty buckets into +Inf).
      obs::Histogram h;
      std::uint64_t prev = 0;
      int idx = 0;
      const auto total =
          static_cast<std::uint64_t>(m.number_or("count", 0.0));
      if (const Json* buckets = m.find("buckets"); buckets != nullptr) {
        for (const Json& b : buckets->array()) {
          const Json* le = b.find("le");
          if (le == nullptr || !le->is_number()) continue;  // "+Inf" row
          const auto cum = static_cast<std::uint64_t>(b.number_or("count", 0));
          h.add_bucket(idx, cum - prev);
          prev = cum;
          ++idx;
        }
      }
      if (total > prev) {
        h.add_bucket(obs::Histogram::kNumBuckets - 1, total - prev);
      }
      h.add_sum(m.number_or("sum", 0.0));
      reg.merge_histogram(name, labels, h);
    }
  }
}

ArtifactKind Session::add(const Json& doc, const std::string& origin) {
  const ArtifactKind kind = classify(doc);
  switch (kind) {
    case ArtifactKind::kAudit:
      runs.push_back(load_audit(doc));
      break;
    case ArtifactKind::kServeAudit:
      serve_runs.push_back(load_serve_audit(doc));
      break;
    case ArtifactKind::kMetrics:
      load_metrics(doc, metrics);
      ++metrics_files;
      break;
    case ArtifactKind::kTrace:
      traces.push_back(reduce_trace(doc));
      traces.back().origin = origin;
      break;
    case ArtifactKind::kBench:
      ++bench_files;
      break;
    case ArtifactKind::kUnknown:
      HOMP_REQUIRE(false, "unrecognized HOMP artifact: " + origin +
                              " (expected a decision audit, serve audit, "
                              "metrics, trace, or bench record)");
  }
  return kind;
}

ArtifactKind Session::load(const std::string& path) {
  return add(Json::parse_file(path), path);
}

}  // namespace homp::advise
