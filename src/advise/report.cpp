#include "advise/report.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "advise/report_keys.h"
#include "advise/session.h"
#include "common/error.h"
#include "common/json.h"

namespace homp::advise {

namespace {

/// Compact rendering for the text report.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::size_t capped(std::size_t n, std::size_t top) {
  return top == 0 || top > n ? n : top;
}

}  // namespace

void write_report(const std::vector<Inspection>& findings, std::ostream& os,
                  std::size_t top) {
  const std::size_t n = capped(findings.size(), top);
  if (findings.empty()) {
    os << "homp-advise: no findings — nothing to tune on this evidence.\n";
    return;
  }
  os << "homp-advise: " << findings.size() << " finding"
     << (findings.size() == 1 ? "" : "s");
  if (n < findings.size()) os << " (showing top " << n << ")";
  os << ", ranked by estimated virtual-time saving\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Inspection& f = findings[i];
    os << '\n'
       << (i + 1) << ". [" << f.severity << "] " << f.kind;
    if (!f.device.empty()) os << " @ " << f.device;
    if (!f.tenant.empty()) os << " @ tenant " << f.tenant;
    if (f.saving_s > 0.0) {
      os << "  (est. saving " << fmt(f.saving_s) << "s/run)";
    }
    os << "\n   evidence: " << f.evidence << "\n   knob: " << f.knob << '\n';
  }
}

void write_report_json(const std::vector<Inspection>& findings,
                       std::ostream& os, std::size_t top) {
  const std::size_t n = capped(findings.size(), top);
  os << "{\n  \"" << kReportVersionKey << "\": 1,\n  \"" << kFindingsKey
     << "\": [";
  for (std::size_t i = 0; i < n; ++i) {
    const Inspection& f = findings[i];
    os << (i ? ",\n" : "\n") << "    {\"kind\": " << json_quote(f.kind)
       << ", \"severity\": " << json_quote(f.severity)
       << ", \"device\": " << json_quote(f.device)
       << ", \"tenant\": " << json_quote(f.tenant)
       << ", \"saving_s\": " << json_number(f.saving_s)
       << ", \"runs_present\": " << f.runs_present
       << ", \"runs_total\": " << f.runs_total
       << ", \"persistent\": " << (f.persistent ? "true" : "false")
       << ", \"evidence\": " << json_quote(f.evidence)
       << ", \"knob\": " << json_quote(f.knob) << '}';
  }
  os << "\n  ]\n}\n";
}

std::vector<TraceRow> trace_rows(const TraceEvidence& tr) {
  std::vector<TraceRow> rows;
  auto row = [&rows](std::string key, double value) {
    rows.push_back({std::move(key), value, {}});
  };
  double transfer = 0.0, hidden = 0.0;
  for (const TraceDevice& d : tr.devices) {
    transfer += d.transfer_s;
    hidden += d.hidden_s;
  }
  const TraceDevice& critical = tr.devices.at(tr.critical);
  row(kRowEvents, static_cast<double>(tr.events));
  row(kRowDevices, static_cast<double>(tr.devices.size()));
  row(kRowMakespan, tr.makespan_s);
  rows.push_back({kRowCriticalDevice, 0.0, critical.name});
  row(kRowCriticalPath, critical.finish_s);
  row(kRowCriticalBusy, critical.busy_s);
  row(kRowBarrierSkew, tr.barrier_skew_s);
  row(kRowImbalance, tr.imbalance_pct);
  row(kRowTransfer, transfer);
  row(kRowTransferHidden, hidden);
  row(kRowOverlapRatio, transfer > 0.0 ? hidden / transfer : 0.0);
  row(kRowFaults, static_cast<double>(tr.faults));
  row(kRowRecoveryActions, static_cast<double>(tr.recovery_actions));
  row(kRowDecisions, static_cast<double>(tr.decisions));

  if (!tr.tenants.empty()) {
    row(kRowTenants, static_cast<double>(tr.tenants.size()));
  }
  for (const TraceTenant& t : tr.tenants) {
    const std::string pre = std::string(kRowTenant) + '[' + t.name + "].";
    row(pre + kRowSpans, static_cast<double>(t.spans));
    row(pre + kRowThreads, static_cast<double>(t.threads));
    row(pre + kRowBusy, t.busy_s);
    row(pre + kRowCriticalPath, t.critical_path_s);
    row(pre + kRowMakespan, t.makespan_s);
    row(pre + kRowImbalance, t.imbalance_pct);
  }

  if (tr.serve_jobs.empty() && tr.breaker_trips == 0) return rows;
  long long failed = 0;
  std::map<std::string, long long> classes;  // ordered -> deterministic
  for (const TraceServeJob& j : tr.serve_jobs) {
    failed += j.cancelled ? 0 : 1;
    ++classes[std::string(j.cancelled ? kRowServeCancelled : kRowServeFailed) +
              '[' + j.tenant + '/' + j.error_class + ']'];
  }
  row(kRowServeFailedJobs, static_cast<double>(failed));
  row(kRowServeCancelledJobs,
      static_cast<double>(tr.serve_jobs.size()) - static_cast<double>(failed));
  row(kRowServeBreakerTrips, static_cast<double>(tr.breaker_trips));
  for (const auto& [key, n] : classes) row(key, static_cast<double>(n));
  for (const TraceServeJob& j : tr.serve_jobs) {
    rows.push_back(
        {std::string(j.cancelled ? kRowServeCancelledJob : kRowServeFailedJob) +
             '[' + std::to_string(j.job) + ']',
         0.0, "tenant=" + j.tenant + ' ' + j.detail});
  }
  return rows;
}

void write_trace_rows(const TraceEvidence& tr, std::ostream& os) {
  os << kRowTrace << ": " << tr.origin << '\n';
  for (const TraceRow& r : trace_rows(tr)) {
    // Twelve significant digits: row figures agree with the runtime's own
    // doubles far below any tolerance a consumer compares at.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", r.value);
    os << r.key << ": " << (r.text.empty() ? buf : r.text) << '\n';
  }
}

namespace {

/// Leaf name of a flattened path ("scenarios/x/events_per_sec" ->
/// "events_per_sec").
std::string leaf(const std::string& path) {
  const std::size_t sl = path.rfind('/');
  return sl == std::string::npos ? path : path.substr(sl + 1);
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

enum class Direction { kHigherBetter, kLowerBetter, kNeutral };

/// Good direction of a flattened key, by its leaf name. Conservative:
/// only obviously-directional families regress; everything else is a
/// neutral change (reported, never a regression).
Direction direction_of(const std::string& path) {
  std::string k = leaf(path);
  if (k == "value") {
    // Metrics rows keep their number under a generic "value" leaf; the
    // directional name is the parent component, minus its {label} set.
    std::string name = leaf(path.substr(0, path.rfind('/')));
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) name.resize(brace);
    if (name != "value") k = name;
  }
  if (ends_with(k, "_per_sec") || contains(k, "goodput")) {
    return Direction::kHigherBetter;
  }
  if (contains(k, "p99") || contains(k, "p50") || contains(k, "latency") ||
      contains(k, "violation") || ends_with(k, "_seconds") ||
      ends_with(k, "_seconds_total") || k == "total_time_s" ||
      k == "makespan_s" || ends_with(k, "overhead")) {
    return Direction::kLowerBetter;
  }
  return Direction::kNeutral;
}

/// Flatten numeric (and boolean) leaves into path -> value pairs, in
/// document order. Array elements key by member "name" when present so
/// bench scenarios line up even if reordered; metrics rows additionally
/// carry their label set, which disambiguates the many series sharing
/// one metric name.
void flatten(const Json& v, const std::string& path,
             std::vector<std::pair<std::string, double>>& out) {
  switch (v.type()) {
    case Json::Type::kNumber:
    case Json::Type::kBool:
      out.emplace_back(path, v.is_bool() ? (v.boolean() ? 1.0 : 0.0)
                                         : v.number());
      break;
    case Json::Type::kObject:
      for (const auto& [k, child] : v.members()) {
        flatten(child, path.empty() ? k : path + '/' + k, out);
      }
      break;
    case Json::Type::kArray: {
      const auto& items = v.array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        std::string key = std::to_string(i);
        if (items[i].is_object()) {
          const std::string& name = items[i].string_or_empty("name");
          if (!name.empty()) {
            key = name;
            const std::string& labels = items[i].string_or_empty("labels");
            if (!labels.empty()) key += '{' + labels + '}';
          }
        }
        flatten(items[i], path.empty() ? key : path + '/' + key, out);
      }
      break;
    }
    default:
      break;  // strings and nulls don't diff numerically
  }
}

/// A trace's rows as key/value pairs. A text row joins its text to the
/// key, so a changed critical device or job detail shows up as a key
/// present on one side only.
void row_pairs(const TraceEvidence& tr,
               std::vector<std::pair<std::string, double>>& out) {
  for (const TraceRow& r : trace_rows(tr)) {
    if (r.text.empty()) {
      out.emplace_back(r.key, r.value);
    } else {
      out.emplace_back(r.key + '=' + r.text, 1.0);
    }
  }
}

}  // namespace

DiffResult diff_artifacts(const Json& before, const Json& after,
                          double tolerance) {
  HOMP_REQUIRE(classify(before) == classify(after),
               std::string("cannot diff different artifact kinds: ") +
                   to_string(classify(before)) + " vs " +
                   to_string(classify(after)));

  std::vector<std::pair<std::string, double>> a, b;
  if (classify(before) == ArtifactKind::kTrace) {
    // The raw event array repeats span names, so flattening it would pair
    // unrelated events; traces compare by their summary rows instead.
    row_pairs(reduce_trace(before), a);
    row_pairs(reduce_trace(after), b);
  } else {
    flatten(before, "", a);
    flatten(after, "", b);
  }

  auto find_in = [](const std::vector<std::pair<std::string, double>>& v,
                    const std::string& key) -> const double* {
    for (const auto& [k, val] : v) {
      if (k == key) return &val;
    }
    return nullptr;
  };

  DiffResult r;
  for (const auto& [key, before_v] : a) {
    const double* after_p = find_in(b, key);
    if (after_p == nullptr) {
      r.changes.push_back({key, before_v, 0.0, 0.0, 'A'});
      continue;
    }
    const double after_v = *after_p;
    if (before_v == after_v) continue;
    DiffEntry e{key, before_v, after_v, 0.0, 0};
    if (before_v != 0.0) e.rel = (after_v - before_v) / std::fabs(before_v);
    const Direction dir = direction_of(key);
    const bool past_tolerance =
        before_v == 0.0 ? true : std::fabs(e.rel) > tolerance;
    if (!past_tolerance) continue;
    const bool worse =
        (dir == Direction::kHigherBetter && after_v < before_v) ||
        (dir == Direction::kLowerBetter && after_v > before_v);
    if (worse) {
      r.regressions.push_back(std::move(e));
    } else {
      r.changes.push_back(std::move(e));
    }
  }
  for (const auto& [key, after_v] : b) {
    if (find_in(a, key) == nullptr) {
      r.changes.push_back({key, 0.0, after_v, 0.0, 'B'});
    }
  }
  return r;
}

namespace {

void write_entry_text(const DiffEntry& e, std::ostream& os) {
  os << "  " << e.key << ": ";
  if (e.only_in != 0) {
    os << "only in " << e.only_in << " ("
       << fmt(e.only_in == 'A' ? e.before : e.after) << ")";
  } else {
    os << fmt(e.before) << " -> " << fmt(e.after);
    if (e.rel != 0.0) {
      os << " (" << (e.rel > 0 ? "+" : "") << fmt(e.rel * 100.0) << "%)";
    }
  }
  os << '\n';
}

void write_entry_json(const DiffEntry& e, std::ostream& os) {
  os << "    {\"key\": " << json_quote(e.key)
     << ", \"before\": " << json_number(e.before)
     << ", \"after\": " << json_number(e.after)
     << ", \"rel\": " << json_number(e.rel)
     << ", \"structural\": " << (e.only_in != 0 ? "true" : "false") << '}';
}

}  // namespace

void write_diff(const DiffResult& r, double tolerance, std::ostream& os) {
  if (r.identical()) {
    os << "homp-advise diff: identical within tolerance " << fmt(tolerance)
       << '\n';
    return;
  }
  os << "homp-advise diff (tolerance " << fmt(tolerance) << "): "
     << r.regressions.size() << " regression"
     << (r.regressions.size() == 1 ? "" : "s") << ", " << r.changes.size()
     << " other change" << (r.changes.size() == 1 ? "" : "s") << '\n';
  if (!r.regressions.empty()) {
    os << "regressions:\n";
    for (const DiffEntry& e : r.regressions) write_entry_text(e, os);
  }
  if (!r.changes.empty()) {
    os << "changes:\n";
    for (const DiffEntry& e : r.changes) write_entry_text(e, os);
  }
}

void write_diff_json(const DiffResult& r, double tolerance, std::ostream& os) {
  os << "{\n  \"" << kDiffVersionKey
     << "\": 1,\n  \"tolerance\": " << json_number(tolerance) << ",\n  \""
     << kRegressionsKey << "\": [";
  for (std::size_t i = 0; i < r.regressions.size(); ++i) {
    os << (i ? ",\n" : "\n");
    write_entry_json(r.regressions[i], os);
  }
  os << (r.regressions.empty() ? "]" : "\n  ]") << ",\n  \"" << kChangesKey
     << "\": [";
  for (std::size_t i = 0; i < r.changes.size(); ++i) {
    os << (i ? ",\n" : "\n");
    write_entry_json(r.changes[i], os);
  }
  os << (r.changes.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace homp::advise
