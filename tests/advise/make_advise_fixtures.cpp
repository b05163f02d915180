// Fixture generator for the homp-advise CLI contract suite
// (tests/advise/run_advise_tests.py).
//
// Usage: make_advise_fixtures <outdir>
//
// Writes a Fig. 6-style session into <outdir>:
//   run1.audit.json / run1.metrics.json / run1.trace.json
//   run2.audit.json / run2.metrics.json / run2.trace.json
//     two identical seeded offloads, MODEL_2-distributed, where one
//     device carries a scripted degrade fault the model knows nothing
//     about — the canonical "a device ran far slower than predicted"
//     scenario whose under-prediction the advisor must rank first.
//     The suite asserts both runs' exports are byte-identical and that
//     cross-run merging marks the finding persistent.
//   serve.audit.json
//     a small two-tenant serving run's audit (serve/report.h
//     write_audit_json) — exercises the serve-artifact ingestion path.
//
// Ground truth goes to stdout as key=value lines, replicating the
// attribution formulas (advise/attribution.cpp) on the runtime's own
// OffloadResult, so the suite can check the CLI's figures independently
// of the export/reload path.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "kernels/axpy.h"
#include "machine/profiles.h"
#include "runtime/audit_export.h"
#include "runtime/metrics_export.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"
#include "serve/server.h"

namespace {

using namespace homp;

constexpr int kDegradedDevice = 2;
constexpr double kDegradeFactor = 64.0;

/// A static MODEL_2 split with a sustained degrade on one device from
/// its first compute onwards. The split has no way to know, so the
/// device runs far slower than its MODEL_2 prediction and finishes far
/// behind the others — textbook under-prediction with a large saving.
/// (The factor is large because axpy chunks are transfer-dominated:
/// only the compute fraction of the chunk degrades, and the bias must
/// clear the advisor's 1.5x threshold with margin.)
/// The watchdog stays off: speculation would steal the degraded chunks
/// (their actual_s would never backfill) and the bias evidence with it.
rt::OffloadResult degraded_run() {
  rt::Runtime runtime{mach::testing_machine(3)};
  kern::AxpyCase c(200'000, /*materialize=*/false);
  rt::OffloadOptions o;
  o.device_ids = {1, 2, 3};
  o.sched.kind = sched::AlgorithmKind::kModel2Auto;
  o.execute_bodies = false;
  o.collect_trace = true;  // implies collect_audit
  sim::ScriptedFault f;
  f.device_id = kDegradedDevice;
  f.kind = sim::FaultKind::kDegrade;
  f.op = 0;
  f.factor = kDegradeFactor;
  o.fault.scripted.push_back(f);
  o.watchdog.enabled = false;
  auto maps = c.maps();
  auto kernel = c.kernel();
  return runtime.offload(kernel, maps, o);
}

void write_run(const rt::OffloadResult& res, const std::string& stem) {
  rt::write_audit_file(res, stem + ".audit.json");
  rt::write_metrics_file(res, stem + ".metrics.json");
  rt::write_chrome_trace_file(res, stem + ".trace.json");
}

/// A small two-tenant serving run whose audit export feeds the advisor's
/// serve ingestion path (no overload: a clean run may yield zero serve
/// findings, which is itself part of the contract under test).
void write_serve_audit(const std::string& path) {
  serve::TenantSpec gold, bronze;
  gold.name = "gold";
  gold.priority = serve::PriorityClass::kGold;
  bronze.name = "bronze";
  bronze.priority = serve::PriorityClass::kBronze;

  serve::ServeOptions opts;
  serve::OffloadServer server(mach::builtin("full"), {gold, bronze}, opts);
  serve::JobSpec j;
  j.kernel = "axpy";
  j.n = 1 << 14;
  j.devices = 2;
  server.submit("gold", j);
  server.submit("bronze", j);
  server.run();

  std::ofstream out(path);
  server.report().write_audit_json(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
    return 2;
  }
  const std::string outdir = argv[1];

  const auto run1 = degraded_run();
  const auto run2 = degraded_run();
  write_run(run1, outdir + "/run1");
  write_run(run2, outdir + "/run2");
  write_serve_audit(outdir + "/serve.audit.json");

  // Ground truth, replicating advise/attribution.cpp's arithmetic on the
  // in-memory result. Device rows match decisions by id; the advisor
  // matches by name after the audit reload — same pairing.
  const rt::DeviceStats* degraded = nullptr;
  for (const auto& d : run1.devices) {
    if (d.device_id == kDegradedDevice) degraded = &d;
  }
  if (degraded == nullptr || degraded->chunks == 0) {
    std::fprintf(stderr, "degraded device ran no chunks — fixture broken\n");
    return 1;
  }

  double actual = 0.0, predicted = 0.0;
  long long samples = 0;
  for (const auto& dec : run1.decisions) {
    if (dec.kind != rt::DecisionKind::kChunkAssigned ||
        dec.device_id != kDegradedDevice) {
      continue;
    }
    if (dec.actual_s <= 0.0 || dec.predicted_model2_s <= 0.0) continue;
    actual += dec.actual_s;
    predicted += dec.predicted_model2_s;
    ++samples;
  }
  if (samples == 0 || predicted <= 0.0) {
    std::fprintf(stderr, "no bias evidence for the degraded device\n");
    return 1;
  }
  const double bias = actual / predicted;

  // Mean finish of the other participating devices, in device order —
  // the under_prediction saving baseline.
  double others = 0.0;
  int n_others = 0;
  for (const auto& d : run1.devices) {
    if (d.chunks == 0 || d.device_id == kDegradedDevice) continue;
    others += d.finish_time;
    ++n_others;
  }
  const double mean_others = n_others > 0 ? others / n_others : 0.0;
  const double saving = std::max(0.0, degraded->finish_time - mean_others);

  std::printf("degraded_device=%s\n", degraded->device_name.c_str());
  std::printf("degraded_bias=%.17g\n", bias);
  std::printf("degraded_bias_samples=%lld\n", samples);
  std::printf("degraded_finish_s=%.17g\n", degraded->finish_time);
  std::printf("mean_other_finish_s=%.17g\n", mean_others);
  std::printf("expected_saving_s=%.17g\n", saving);
  std::printf("run_total_time_s=%.17g\n", run1.total_time);
  std::printf("run_imbalance_pct=%.17g\n", run1.imbalance().percent());
  std::printf("run_chunks=%zu\n", run1.chunks_issued);
  std::printf("run_decisions=%zu\n", run1.decisions.size());
  std::printf("run_devices=%zu\n", run1.devices.size());
  return 0;
}
