#include "fuzz/serve_oracle.h"

#include <cstdio>
#include <set>
#include <sstream>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/report.h"

namespace homp::fuzz {

namespace {

std::uint64_t fnv64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Everything one server run leaves behind for the checks.
struct RunOutcome {
  bool threw = false;
  std::string what;
  serve::ServeReport report;
  std::string summary_json;
  std::size_t retained = 0;
  std::size_t live_events = 0;
  std::size_t live_gens = 0;
};

RunOutcome run_once(const ServeScenarioSpec& s) {
  RunOutcome out;
  try {
    serve::OffloadServer server(s.machine, s.tenants, s.options);
    for (const auto& e : s.jobs) {
      const std::string tname = s.tenants[static_cast<std::size_t>(e.tenant)].name;
      const serve::JobSpec job = e.job;
      // `server` outlives every arrival: run() drains the engine before
      // this frame returns.  homp-lint: allow(HL001)
      server.engine().schedule_after(e.at_s, [&server, tname, job] {
        server.submit(tname, job);
      });
    }
    server.run();
    out.report = server.report();
    std::ostringstream ss;
    out.report.write_summary_json(ss);
    out.summary_json = ss.str();
    out.retained = server.retained_jobs();
    out.live_events = server.engine().live_events();
    out.live_gens = server.engine().live_generations();
  } catch (const std::exception& e) {
    out.threw = true;
    out.what = e.what();
  } catch (...) {
    out.threw = true;
    out.what = "non-standard exception";
  }
  return out;
}

void violate(ServeOracleReport& r, const std::string& invariant,
             const std::string& detail) {
  r.violations.push_back(Violation{invariant, "serve", detail});
}

/// Sort validate()'s mixed breach list into the serve catalog by the
/// stable message shapes report.cpp emits.
const char* classify_breach(const std::string& msg) {
  if (msg.find("FIFO") != std::string::npos) return "serve-fifo";
  if (msg.find("audit") != std::string::npos) return "serve-audit";
  if (msg.find("but finished") != std::string::npos) return "serve-accounting";
  return "serve-conservation";
}

}  // namespace

std::uint64_t ServeOracleReport::digest() const noexcept {
  return fnv64(summary_json);
}

const std::vector<std::string>& serve_invariant_names() {
  static const std::vector<std::string> names = {
      "serve-progress",   "serve-conservation", "serve-fifo",
      "serve-audit",      "serve-accounting",   "serve-shed-legality",
      "serve-metrics",    "serve-memory-flat",  "serve-determinism",
  };
  return names;
}

ServeOracleReport run_oracle(const ServeScenarioSpec& s) {
  using serve::JobOutcome;
  using serve::ServeEventKind;
  ServeOracleReport out;

  const RunOutcome a = run_once(s);
  if (a.threw) {
    violate(out, "serve-progress", "run aborted: " + a.what);
    return out;
  }
  const serve::ServeReport& rep = a.report;
  out.summary_json = a.summary_json;
  for (const auto& c : rep.counts) {
    out.completed += c.completed;
    out.failed += c.failed;
    out.cancelled += c.cancelled;
    out.rejected += c.rejected();
    out.breaker_trips += c.breaker_trips;
  }

  // conservation / fifo / audit-monotonicity / accounting, re-derived
  // from the records by the report itself.
  for (const auto& breach : rep.validate()) {
    violate(out, classify_breach(breach), breach);
  }

  // serve-audit: every terminal record has a matching terminal event.
  std::set<std::pair<int, std::uint64_t>> terminal_events;
  for (const auto& e : rep.events) {
    if (e.kind == ServeEventKind::kComplete ||
        e.kind == ServeEventKind::kFail || e.kind == ServeEventKind::kCancel) {
      terminal_events.insert({static_cast<int>(e.kind), e.job_id});
    }
  }
  for (const auto& j : rep.jobs) {
    ServeEventKind want = ServeEventKind::kComplete;
    if (j.outcome == JobOutcome::kFail) want = ServeEventKind::kFail;
    if (j.outcome == JobOutcome::kCancelled) want = ServeEventKind::kCancel;
    if (terminal_events.count({static_cast<int>(want), j.job_id}) == 0) {
      violate(out, "serve-audit",
              "job " + std::to_string(j.job_id) + " (" + j.tenant +
                  ") has no " + std::string(serve::to_string(want)) +
                  " audit event");
    }
  }

  // serve-accounting: the record list agrees with the counters.
  for (std::size_t t = 0; t < rep.tenants.size(); ++t) {
    std::size_t completed = 0, failed = 0, cancelled = 0;
    for (const auto& j : rep.jobs) {
      if (j.tenant != rep.tenants[t]) continue;
      if (j.outcome == JobOutcome::kCompleted) ++completed;
      else if (j.outcome == JobOutcome::kFail) ++failed;
      else ++cancelled;
    }
    const auto& c = rep.counts[t];
    if (completed != c.completed || failed != c.failed ||
        cancelled != c.cancelled) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "records %zu/%zu/%zu vs counters %zu/%zu/%zu "
                    "(completed/failed/cancelled)",
                    completed, failed, cancelled, c.completed, c.failed,
                    c.cancelled);
      violate(out, "serve-accounting", rep.tenants[t] + ": " + buf);
    }
  }

  // serve-shed-legality: transitions contiguous in the audit, levels in
  // [0, 3], and the final level matches the last transition.
  int level = 0;
  for (const auto& e : rep.events) {
    if (e.kind != ServeEventKind::kShedLevel) continue;
    int from = -1, to = -1;
    if (std::sscanf(e.detail.c_str(), "L%d -> L%d", &from, &to) != 2) {
      violate(out, "serve-shed-legality",
              "unparseable shed transition '" + e.detail + "'");
      continue;
    }
    if (from != level || to == from || to < 0 || to > 3) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "illegal transition L%d -> L%d at level L%d", from, to,
                    level);
      violate(out, "serve-shed-legality", buf);
    }
    level = to;
  }
  if (level != rep.final_shed_level) {
    violate(out, "serve-shed-legality",
            "final level " + std::to_string(rep.final_shed_level) +
                " does not match last transition L" + std::to_string(level));
  }

  // serve-metrics: the exported registry agrees with the report.
  {
    obs::MetricsRegistry reg;
    rep.export_metrics(reg);
    for (std::size_t t = 0; t < rep.tenants.size(); ++t) {
      const auto& c = rep.counts[t];
      const std::string lbl = "tenant=\"" + rep.tenants[t] + "\"";
      const struct {
        const char* name;
        std::size_t want;
      } probes[] = {
          {obs::names::kServeSubmitted, c.submitted},
          {obs::names::kServeAdmitted, c.admitted},
          {obs::names::kServeCompleted, c.completed},
          {obs::names::kServeFailed, c.failed},
          {obs::names::kServeCancelled, c.cancelled},
          {obs::names::kServeBreakerTrips, c.breaker_trips},
      };
      for (const auto& p : probes) {
        const double got = reg.value(p.name, lbl);
        if (got != static_cast<double>(p.want)) {
          violate(out, "serve-metrics",
                  rep.tenants[t] + ": " + p.name + " exported " +
                      std::to_string(got) + ", report says " +
                      std::to_string(p.want));
        }
      }
    }
  }

  // serve-memory-flat: no retained jobs, no pending timers, no live
  // generations after the drain.
  if (a.retained != 0) {
    violate(out, "serve-memory-flat",
            std::to_string(a.retained) + " job objects retained after drain");
  }
  if (a.live_events != 0) {
    violate(out, "serve-memory-flat",
            std::to_string(a.live_events) + " engine events pending after drain");
  }
  if (a.live_gens != 0) {
    violate(out, "serve-memory-flat",
            std::to_string(a.live_gens) +
                " timer generations still live after drain");
  }

  // serve-determinism: a second run must reproduce the summary JSON
  // byte for byte.
  const RunOutcome b = run_once(s);
  if (b.threw) {
    violate(out, "serve-determinism", "second run aborted: " + b.what);
  } else if (b.summary_json != a.summary_json) {
    violate(out, "serve-determinism",
            "summary JSON differs between same-seed runs");
  }

  return out;
}

}  // namespace homp::fuzz
