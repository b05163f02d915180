#include "serve/report.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "common/json.h"
#include "obs/metric_names.h"

namespace homp::serve {

namespace {

double nearest_rank(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Latency/goodput aggregate over one subset of completed jobs.
struct Agg {
  std::vector<double> latencies;
  std::vector<double> waits;
  long long iterations = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;

  void take(const JobRecord& j) {
    if (j.outcome == JobOutcome::kCompleted) {
      latencies.push_back(j.latency());
      waits.push_back(j.queue_wait());
      iterations += j.iterations_done;
      ++completed;
    } else if (j.outcome == JobOutcome::kCancelled) {
      ++cancelled;
    } else {
      ++failed;
    }
  }

  void write(std::ostream& os, double makespan) {
    os << "\"completed\": " << completed << ", \"failed\": " << failed
       << ", \"cancelled\": " << cancelled
       << ", \"iterations\": " << iterations
       << ", \"p50_latency_s\": " << json_number(nearest_rank(latencies, 0.50))
       << ", \"p99_latency_s\": " << json_number(nearest_rank(latencies, 0.99))
       << ", \"p50_queue_wait_s\": " << json_number(nearest_rank(waits, 0.50))
       << ", \"goodput_iters_per_s\": "
       << json_number(makespan > 0.0
                            ? static_cast<double>(iterations) / makespan
                            : 0.0);
  }
};

}  // namespace

const char* to_string(JobOutcome o) noexcept {
  switch (o) {
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kFail: return "fail";
    case JobOutcome::kCancelled: return "cancelled";
  }
  return "?";
}

double ServeReport::latency_percentile(double q,
                                       const PriorityClass* cls) const {
  std::vector<double> lat;
  for (const auto& j : jobs) {
    if (!j.ok()) continue;
    if (cls != nullptr && j.priority != *cls) continue;
    lat.push_back(j.latency());
  }
  return nearest_rank(lat, q);
}

std::vector<std::string> ServeReport::validate() const {
  std::vector<std::string> out;

  // Iteration conservation: a completed job committed exactly the
  // iterations it asked for — shedding degrades latency and admission,
  // never answers. Failed/cancelled jobs surrender coverage but must be
  // honest about it: a terminal record always names its error class.
  for (const auto& j : jobs) {
    if (j.outcome == JobOutcome::kCompleted && j.iterations_done != j.n) {
      out.push_back("job " + std::to_string(j.job_id) + " (" + j.tenant +
                    "): committed " + std::to_string(j.iterations_done) +
                    " of " + std::to_string(j.n) + " iterations");
    }
    if (j.outcome != JobOutcome::kCompleted && j.error_class.empty()) {
      out.push_back("job " + std::to_string(j.job_id) + " (" + j.tenant +
                    "): " + std::string(to_string(j.outcome)) +
                    " record without an error class");
    }
  }

  // Audit monotonicity.
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) {
      out.push_back("audit time went backwards at event " +
                    std::to_string(i) + " (" +
                    std::string(to_string(events[i].kind)) + ")");
      break;
    }
  }

  // Per-tenant FIFO: jobs leave each tenant's queue in the order they
  // entered it (admit order; unblocked jobs are admitted when they leave
  // the vestibule, so the contract covers both paths).
  std::map<std::string, std::vector<std::uint64_t>> admitted, dispatched;
  for (const auto& e : events) {
    if (e.kind == ServeEventKind::kAdmit) admitted[e.tenant].push_back(e.job_id);
    if (e.kind == ServeEventKind::kDispatch)
      dispatched[e.tenant].push_back(e.job_id);
  }
  for (const auto& [tenant, order] : dispatched) {
    const auto& in = admitted[tenant];
    // Dispatch order must be a prefix-respecting subsequence of the
    // admit order; with every admitted job eventually dispatched they
    // must match element-wise.
    std::size_t pos = 0;
    for (std::uint64_t id : order) {
      while (pos < in.size() && in[pos] != id) ++pos;
      if (pos == in.size()) {
        out.push_back("tenant " + tenant + ": job " + std::to_string(id) +
                      " dispatched out of FIFO order");
        break;
      }
      ++pos;
    }
  }

  // Drained-run accounting: every admitted job ends in exactly one of
  // the three terminal states.
  for (std::size_t t = 0; t < counts.size(); ++t) {
    const auto& c = counts[t];
    if (c.admitted != c.completed + c.failed + c.cancelled) {
      out.push_back("tenant " + tenants[t] + ": admitted " +
                    std::to_string(c.admitted) + " but finished " +
                    std::to_string(c.completed + c.failed + c.cancelled));
    }
  }
  return out;
}

void ServeReport::export_metrics(obs::MetricsRegistry& reg) const {
  using namespace obs::names;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto& c = counts[t];
    const std::string lbl = "tenant=\"" + tenants[t] + "\"";
    reg.add(kServeSubmitted, lbl, static_cast<double>(c.submitted));
    reg.add(kServeAdmitted, lbl, static_cast<double>(c.admitted));
    reg.add(kServeBlocked, lbl, static_cast<double>(c.blocked));
    reg.add(kServeCompleted, lbl, static_cast<double>(c.completed));
    reg.add(kServeFailed, lbl, static_cast<double>(c.failed));
    reg.add(kServeCancelled, lbl, static_cast<double>(c.cancelled));
    reg.add(kServeBreakerTrips, lbl, static_cast<double>(c.breaker_trips));
    reg.add(kServeIterations, lbl, static_cast<double>(c.iterations));
    reg.add(kServeRejected, lbl + ",reason=\"queue-full\"",
            static_cast<double>(c.rejected_queue_full));
    reg.add(kServeRejected, lbl + ",reason=\"deadline\"",
            static_cast<double>(c.rejected_deadline));
    reg.add(kServeRejected, lbl + ",reason=\"shed\"",
            static_cast<double>(c.rejected_shed));
    reg.add(kServeRejected, lbl + ",reason=\"infeasible\"",
            static_cast<double>(c.rejected_infeasible));
    reg.add(kServeRejected, lbl + ",reason=\"breaker\"",
            static_cast<double>(c.rejected_breaker));
  }
  for (const auto& j : jobs) {
    if (!j.ok()) continue;
    reg.observe(kServeLatency,
                std::string("class=\"") + to_string(j.priority) + "\"",
                j.latency());
    reg.observe(kServeQueueWait, "tenant=\"" + j.tenant + "\"",
                j.queue_wait());
  }
  reg.add(kServeSpecShed, {}, static_cast<double>(speculation_shed_jobs));
  reg.set(kServeShedLevel, {}, static_cast<double>(final_shed_level));
  reg.add(kServeShedTransitions, {}, static_cast<double>(shed_transitions));
  reg.add(kServeViolations, {}, static_cast<double>(validate().size()));
}

void ServeReport::write_summary_json(std::ostream& os) const {
  const auto breaches = validate();

  os << "{\n  \"schema\": \"homp-serve-report-v2\",\n";
  os << "  \"makespan_s\": " << json_number(makespan_s) << ",\n";
  os << "  \"jobs\": " << jobs.size() << ",\n";
  os << "  \"shed\": {\"final_level\": " << final_shed_level
     << ", \"transitions\": " << shed_transitions
     << ", \"speculation_shed_jobs\": " << speculation_shed_jobs << "},\n";

  os << "  \"violations\": [";
  for (std::size_t i = 0; i < breaches.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"';
    json_escape(os, breaches[i]);
    os << '"';
  }
  os << "],\n";

  // Per class, in priority order (deterministic: enum order).
  os << "  \"classes\": {";
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<PriorityClass>(c);
    Agg agg;
    std::size_t rejected = 0;
    for (const auto& j : jobs) {
      if (j.priority == cls) agg.take(j);
    }
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (tenant_priority[t] == cls) rejected += counts[t].rejected();
    }
    if (c > 0) os << ", ";
    os << '"' << to_string(cls) << "\": {";
    agg.write(os, makespan_s);
    os << ", \"rejected\": " << rejected << '}';
  }
  os << "},\n";

  // Per tenant, in server index order (deterministic).
  os << "  \"tenants\": {";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    Agg agg;
    for (const auto& j : jobs) {
      if (j.tenant == tenants[t]) agg.take(j);
    }
    const auto& c = counts[t];
    if (t > 0) os << ", ";
    os << '"';
    json_escape(os, tenants[t]);
    os << "\": {\"class\": \"" << to_string(tenant_priority[t])
       << "\", \"submitted\": " << c.submitted
       << ", \"admitted\": " << c.admitted << ", \"blocked\": " << c.blocked
       << ", \"rejected_queue_full\": " << c.rejected_queue_full
       << ", \"rejected_deadline\": " << c.rejected_deadline
       << ", \"rejected_shed\": " << c.rejected_shed
       << ", \"rejected_infeasible\": " << c.rejected_infeasible
       << ", \"rejected_breaker\": " << c.rejected_breaker
       << ", \"breaker_trips\": " << c.breaker_trips << ", ";
    agg.write(os, makespan_s);
    // Error classes of this tenant's kFail/kCancelled records, sorted by
    // class name (std::map) for deterministic output.
    std::map<std::string, std::size_t> classes;
    for (const auto& j : jobs) {
      if (j.tenant == tenants[t] && j.outcome != JobOutcome::kCompleted) {
        ++classes[j.error_class];
      }
    }
    os << ", \"error_classes\": {";
    bool first_cls = true;
    for (const auto& [cls_name, count] : classes) {
      if (!first_cls) os << ", ";
      first_cls = false;
      os << '"';
      json_escape(os, cls_name);
      os << "\": " << count;
    }
    os << "}}";
  }
  os << "}\n}\n";
}

void ServeReport::write_audit_json(std::ostream& os) const {
  os << "{\n  \"homp_serve_audit_version\": 1,\n"
     << "  \"makespan_s\": " << json_number(makespan_s)
     << ",\n  \"final_shed_level\": " << final_shed_level
     << ",\n  \"shed_transitions\": " << shed_transitions
     << ",\n  \"speculation_shed_jobs\": " << speculation_shed_jobs;

  os << ",\n  \"tenants\": [";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto& c = counts[t];
    os << (t ? ",\n" : "\n") << "    {\"name\": \"";
    json_escape(os, tenants[t]);
    os << "\", \"class\": \"" << to_string(tenant_priority[t])
       << "\", \"submitted\": " << c.submitted
       << ", \"admitted\": " << c.admitted << ", \"blocked\": " << c.blocked
       << ", \"rejected_queue_full\": " << c.rejected_queue_full
       << ", \"rejected_deadline\": " << c.rejected_deadline
       << ", \"rejected_shed\": " << c.rejected_shed
       << ", \"rejected_infeasible\": " << c.rejected_infeasible
       << ", \"rejected_breaker\": " << c.rejected_breaker
       << ", \"completed\": " << c.completed << ", \"failed\": " << c.failed
       << ", \"cancelled\": " << c.cancelled
       << ", \"breaker_trips\": " << c.breaker_trips
       << ", \"iterations\": " << c.iterations << '}';
  }

  os << "\n  ],\n  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ServeEvent& e = events[i];
    os << (i ? ",\n" : "\n") << "    {\"time_s\": " << json_number(e.time)
       << ", \"kind\": \"" << to_string(e.kind) << "\", \"tenant\": \"";
    json_escape(os, e.tenant);
    os << "\", \"job_id\": " << e.job_id << ", \"class\": \""
       << to_string(e.priority) << "\", \"detail\": \"";
    json_escape(os, e.detail);
    os << "\"}";
  }
  os << "\n  ]\n}\n";
}

void ServeReport::write_trace_json(std::ostream& os) const {
  // chrome://tracing JSON array format; mirrors runtime/trace.cpp's
  // conventions (absolute microsecond timestamps, metadata rows first)
  // but lays tenants out as processes so the viewer groups them.
  os << "[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  for (std::size_t t = 0; t < tenants.size(); ++t) {
    sep();
    os << R"({"name": "process_name", "ph": "M", "pid": )" << (t + 1)
       << R"(, "tid": 0, "args": {"name": ")";
    json_escape(os, tenants[t]);
    os << "\"}}";
  }

  std::map<std::string, std::size_t> tenant_index;
  for (std::size_t t = 0; t < tenants.size(); ++t) tenant_index[tenants[t]] = t;

  auto us = [](double s) { return s * 1e6; };

  for (const auto& j : jobs) {
    const std::size_t pid = tenant_index.count(j.tenant)
                                ? tenant_index[j.tenant] + 1
                                : tenants.size() + 1;
    // One viewer thread per (job, device slot); job ids keep tids
    // globally unique across tenants.
    std::map<int, bool> named;
    for (const auto& span : j.trace) {
      const auto tid = j.job_id * 64 + static_cast<std::uint64_t>(span.slot);
      if (!named[span.slot]) {
        named[span.slot] = true;
        sep();
        os << R"({"name": "thread_name", "ph": "M", "pid": )" << pid
           << R"(, "tid": )" << tid << R"(, "args": {"name": "job)"
           << j.job_id << ' ';
        json_escape(os, span.device);
        os << "\"}}";
      }
      sep();
      os << R"({"name": ")" << rt::to_string(span.phase)
         << R"(", "cat": "offload", "ph": "X", "pid": )" << pid
         << R"(, "tid": )" << tid << R"(, "ts": )" << json_number(us(span.t0))
         << R"(, "dur": )" << json_number(us(span.t1 - span.t0))
         << R"(, "args": {"label": ")";
      json_escape(os, span.label);
      os << "\"}}";
    }
  }

  for (const auto& e : events) {
    const std::size_t pid =
        e.tenant.empty() || !tenant_index.count(e.tenant)
            ? 0
            : tenant_index[e.tenant] + 1;
    sep();
    os << R"({"name": ")" << to_string(e.kind)
       << R"(", "cat": "serve", "ph": "i", "s": "g", "pid": )" << pid
       << R"(, "tid": 0, "ts": )" << json_number(us(e.time))
       << R"(, "args": {"job": )" << e.job_id << R"(, "detail": ")";
    json_escape(os, e.detail);
    os << "\"}}";
  }

  os << "\n]\n";
}

}  // namespace homp::serve
