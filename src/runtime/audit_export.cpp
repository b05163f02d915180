#include "runtime/audit_export.h"

#include <fstream>
#include <ostream>

#include "common/error.h"
#include "common/json.h"
#include "sched/algorithm.h"

namespace homp::rt {

namespace {

void write_prediction(const PredictionErrorStats& e, std::ostream& os) {
  os << "{\"model1_mean\": " << json_number(e.model1_mean())
     << ", \"model2_mean\": " << json_number(e.model2_mean())
     << ", \"profile_mean\": " << json_number(e.profile_mean())
     << ", \"model_samples\": " << e.model_samples
     << ", \"profile_samples\": " << e.profile_samples
     << ", \"model1_min\": " << json_number(e.model1_err_min)
     << ", \"model1_max\": " << json_number(e.model1_err_max)
     << ", \"model2_min\": " << json_number(e.model2_err_min)
     << ", \"model2_max\": " << json_number(e.model2_err_max)
     << ", \"profile_min\": " << json_number(e.profile_err_min)
     << ", \"profile_max\": " << json_number(e.profile_err_max) << '}';
}

}  // namespace

void write_audit_json(const OffloadResult& res, std::ostream& os) {
  HOMP_REQUIRE(!res.decisions.empty(),
               "offload carries no decision audit; set "
               "OffloadOptions::collect_audit");

  os << "{\n  \"homp_audit_version\": " << kAuditVersion
     << ",\n  \"algorithm\": \"" << sched::to_string(res.algorithm_used)
     << "\",\n  \"total_time_s\": " << json_number(res.total_time)
     << ",\n  \"chunks_issued\": " << res.chunks_issued
     << ",\n  \"degraded\": " << (res.degraded ? "true" : "false")
     << ",\n  \"has_cutoff\": " << (res.has_cutoff ? "true" : "false");

  if (res.has_cutoff) {
    os << ",\n  \"cutoff\": {\"selected\": [";
    for (std::size_t i = 0; i < res.cutoff.selected.size(); ++i) {
      os << (i ? ", " : "") << (res.cutoff.selected[i] ? 1 : 0);
    }
    os << "], \"weights\": [";
    for (std::size_t i = 0; i < res.cutoff.weights.size(); ++i) {
      os << (i ? ", " : "") << json_number(res.cutoff.weights[i]);
    }
    os << "], \"pre_weights\": [";
    for (std::size_t i = 0; i < res.cutoff.pre_weights.size(); ++i) {
      os << (i ? ", " : "") << json_number(res.cutoff.pre_weights[i]);
    }
    os << "]}";
  }

  os << ",\n  \"devices\": [";
  for (std::size_t s = 0; s < res.devices.size(); ++s) {
    const DeviceStats& d = res.devices[s];
    os << (s ? ",\n" : "\n") << "    {\"name\": " << json_quote(d.device_name)
       << ", \"id\": " << d.device_id << ", \"slot\": " << s
       << ", \"finish_time_s\": " << json_number(d.finish_time)
       << ", \"chunks\": " << d.chunks << ", \"iterations\": " << d.iterations
       << ", \"bytes_in\": " << json_number(d.bytes_in)
       << ", \"bytes_out\": " << json_number(d.bytes_out)
       << ", \"tardy_chunks\": " << d.tardy_chunks
       << ", \"spec_copies_run\": " << d.spec_copies_run
       << ", \"spec_copies_won\": " << d.spec_copies_won
       << ", \"requeued_iterations\": " << d.requeued_iterations
       << ", \"quarantine_count\": " << d.quarantine_count
       << ", \"prediction\": ";
    write_prediction(d.prediction, os);
    os << '}';
  }

  os << "\n  ],\n  \"decisions\": [";
  for (std::size_t i = 0; i < res.decisions.size(); ++i) {
    const SchedDecision& d = res.decisions[i];
    const std::string device =
        d.slot >= 0 && static_cast<std::size_t>(d.slot) < res.devices.size()
            ? res.devices[static_cast<std::size_t>(d.slot)].device_name
            : "";
    os << (i ? ",\n" : "\n") << "    {\"time_s\": " << json_number(d.time)
       << ", \"slot\": " << d.slot << ", \"device\": " << json_quote(device)
       << ", \"kind\": \"" << to_string(d.kind)
       << "\", \"begin\": " << d.range.lo << ", \"end\": " << d.range.hi
       << ", \"chunk_bytes\": " << json_number(d.chunk_bytes)
       << ", \"model1_s\": " << json_number(d.predicted_model1_s)
       << ", \"model2_s\": " << json_number(d.predicted_model2_s)
       << ", \"profile_s\": " << json_number(d.predicted_profile_s)
       << ", \"ewma_iter_s\": " << json_number(d.ewma_iter_s)
       << ", \"actual_s\": " << json_number(d.actual_s)
       << ", \"detail\": " << json_quote(d.detail) << '}';
  }
  os << "\n  ]\n}\n";
}

void write_audit_file(const OffloadResult& res, const std::string& path) {
  std::ofstream out(path);
  HOMP_REQUIRE(out.good(), "cannot open audit file: " + path);
  write_audit_json(res, out);
}

}  // namespace homp::rt
