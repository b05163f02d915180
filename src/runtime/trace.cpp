#include "runtime/trace.h"

#include <fstream>
#include <ostream>

#include "common/error.h"
#include "common/json.h"

namespace homp::rt {

namespace {
/// Shared body: spans, then optional instant fault/recovery/decision
/// markers and counter-track samples, then the thread-name metadata rows.
void write_events(const std::vector<TraceSpan>& spans,
                  const std::vector<FaultEvent>* faults,
                  const std::vector<RecoveryEvent>* recovery,
                  const std::vector<SchedDecision>* decisions,
                  const std::vector<CounterSample>* counters,
                  std::ostream& os);
}  // namespace

void write_chrome_trace(const std::vector<TraceSpan>& spans,
                        std::ostream& os) {
  write_events(spans, nullptr, nullptr, nullptr, nullptr, os);
}

void write_chrome_trace(const OffloadResult& result, std::ostream& os) {
  write_events(result.trace, &result.fault_events, &result.recovery_events,
               &result.decisions, &result.counters, os);
}

namespace {
void write_events(const std::vector<TraceSpan>& spans,
                  const std::vector<FaultEvent>* faults,
                  const std::vector<RecoveryEvent>* recovery,
                  const std::vector<SchedDecision>* decisions,
                  const std::vector<CounterSample>* counters,
                  std::ostream& os) {
  // Slot -> device name, for counter-track naming and the metadata rows.
  std::vector<std::pair<int, std::string>> seen;
  for (const auto& s : spans) {
    bool dup = false;
    for (const auto& [slot, _] : seen) {
      if (slot == s.slot) dup = true;
    }
    if (!dup) seen.emplace_back(s.slot, s.device);
  }
  auto device_of = [&seen](int slot) -> std::string {
    for (const auto& [s, name] : seen) {
      if (s == slot) return name;
    }
    return "slot " + std::to_string(slot);
  };

  // Full-fidelity timestamps: the default 6 significant digits would
  // round microsecond stamps of longer runs and defeat byte-identical
  // determinism checks on derived figures.
  const auto old_precision = os.precision(15);

  os << "[\n";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) os << ",\n";
    first = false;
    os << R"(  {"name": ")";
    // Labels interpolate chunk ranges and fault detail strings; full
    // escaping keeps them from ever breaking the document.
    json_escape(os, std::string(to_string(s.phase)) +
                        (s.label.empty() ? "" : " " + s.label));
    os << R"(", "cat": "homp", "ph": "X", "pid": 0, "tid": )" << s.slot
       << R"(, "ts": )" << s.t0 * 1e6 << R"(, "dur": )"
       << (s.t1 - s.t0) * 1e6 << R"(, "args": {"device": ")";
    json_escape(os, s.device);
    os << R"("}})";
  }
  if (faults != nullptr) {
    for (const auto& f : *faults) {
      if (!first) os << ",\n";
      first = false;
      os << R"(  {"name": "fault: )";
      json_escape(os, std::string(sim::to_string(f.kind)) +
                          (f.detail.empty() ? "" : " " + f.detail));
      os << R"(", "cat": "fault", "ph": "i", "s": "t", "pid": 0, "tid": )"
         << f.slot << R"(, "ts": )" << f.time * 1e6
         << R"(, "args": {"fatal": )" << (f.fatal ? "true" : "false")
         << "}}";
    }
  }
  if (recovery != nullptr) {
    for (const auto& r : *recovery) {
      if (!first) os << ",\n";
      first = false;
      os << R"(  {"name": ")";
      json_escape(os, std::string(to_string(r.action)) +
                          (r.detail.empty() ? "" : " " + r.detail));
      os << R"(", "cat": "recovery", "ph": "i", "s": "t", "pid": 0, )"
         << R"("tid": )" << r.slot << R"(, "ts": )" << r.time * 1e6 << "}";
    }
  }
  if (decisions != nullptr) {
    // Decision-audit instants: the plan lined up against the pipeline
    // activity it produced. Prediction inputs ride in args (negative
    // predictions mean "no such predictor for this record").
    for (const auto& d : *decisions) {
      if (!first) os << ",\n";
      first = false;
      os << R"(  {"name": "decision: )";
      std::string label = to_string(d.kind);
      if (!d.range.empty()) {
        label += ' ';
        label += d.range.to_string();
      }
      json_escape(os, label);
      os << R"(", "cat": "decision", "ph": "i", "s": "t", "pid": 0, )"
         << R"("tid": )" << d.slot << R"(, "ts": )" << d.time * 1e6
         << R"(, "args": {"chunk_bytes": )" << d.chunk_bytes
         << R"(, "model1_s": )" << d.predicted_model1_s
         << R"(, "model2_s": )" << d.predicted_model2_s
         << R"(, "profile_s": )" << d.predicted_profile_s
         << R"(, "ewma_iter_s": )" << d.ewma_iter_s << R"(, "actual_s": )"
         << d.actual_s << R"(, "detail": ")";
      json_escape(os, d.detail);
      os << R"("}})";
    }
  }
  if (counters != nullptr) {
    // Perfetto counter tracks: one track per (counter, device) thanks to
    // the device-qualified name; "ph":"C" rows are keyed by name+pid.
    for (const auto& c : *counters) {
      if (!first) os << ",\n";
      first = false;
      os << R"(  {"name": ")";
      json_escape(os, std::string(to_string(c.track)) + " (" +
                          device_of(c.slot) + ")");
      os << R"(", "cat": "counter", "ph": "C", "pid": 0, "tid": )" << c.slot
         << R"(, "ts": )" << c.time * 1e6 << R"(, "args": {"value": )"
         << c.value << "}}";
    }
  }
  // Thread-name metadata rows so devices are labelled in the viewer.
  for (const auto& [slot, device] : seen) {
    if (!first) os << ",\n";
    first = false;
    os << R"(  {"name": "thread_name", "ph": "M", "pid": 0, "tid": )"
       << slot << R"(, "args": {"name": ")";
    json_escape(os, device);
    os << R"("}})";
  }
  os << "\n]\n";
  os.precision(old_precision);
}
}  // namespace

void write_chrome_trace_file(const OffloadResult& result,
                             const std::string& path) {
  HOMP_REQUIRE(!result.trace.empty(),
               "offload carries no trace; set OffloadOptions::collect_trace");
  std::ofstream out(path);
  HOMP_REQUIRE(out.good(), "cannot open trace file: " + path);
  write_chrome_trace(result, out);
}

}  // namespace homp::rt
