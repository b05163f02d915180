// Figure 6: Accumulated Breakdown (%) of Offloading Time on 2 K80 GPUs
// (= 4 K40) Using Different Loop Distribution Policies, plus the
// load-imbalance curve ("below 5% in average" in the paper).
//
// Observability exports (docs/OBSERVABILITY.md):
//   --metrics-out PATH   session-aggregated metrics across every
//                        kernel x policy run (JSON; .prom for the
//                        Prometheus text exposition)
//   --trace-out PATH     Chrome/Perfetto trace of the first run
//   --audit-out PATH     decision audit of the first run (homp-advise
//                        report input)

#include <cstdio>
#include <cstring>
#include <iostream>

#include "common/table.h"
#include "runtime/audit_export.h"
#include "runtime/metrics_export.h"
#include "runtime/trace.h"
#include "support/harness.h"

int main(int argc, char** argv) {
  using namespace homp;
  const char* metrics_out = nullptr;
  const char* trace_out = nullptr;
  const char* audit_out = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0) metrics_out = argv[++i];
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[++i];
    if (std::strcmp(argv[i], "--audit-out") == 0) audit_out = argv[++i];
  }

  auto rt = rt::Runtime::from_builtin("gpu4");
  const auto devices = rt.accelerators();
  std::printf(
      "Figure 6 — accumulated breakdown (%%) of offloading time on 4x K40\n"
      "per kernel x policy: share of device time per pipeline phase, plus\n"
      "the load-imbalance curve (percent idle at the final barrier)\n\n");

  obs::MetricsRegistry session;
  bool traced = false;
  double imbalance_sum = 0.0;
  int runs = 0;
  for (const auto& name : kern::all_kernel_names()) {
    const long long n = kern::paper_size(name);
    std::printf("--- %s ---\n", bench::kernel_label(name, n).c_str());
    TextTable t({"policy", "sched%", "alloc%", "copy-in%", "launch%",
                 "compute%", "copy-out%", "barrier%", "imbalance%"});
    auto c = kern::make_case(name, n, false);
    for (const auto& p : bench::seven_policies()) {
      const bool trace_this =
          (trace_out != nullptr || audit_out != nullptr) && !traced;
      const auto res = bench::run_policy(rt, *c, devices, p,
                                         /*unified_memory=*/false,
                                         /*seed=*/42, trace_this);
      if (trace_this) {
        if (trace_out != nullptr) rt::write_chrome_trace_file(res, trace_out);
        if (audit_out != nullptr) rt::write_audit_file(res, audit_out);
        traced = true;
      }
      if (metrics_out != nullptr) rt::collect_metrics(res, session);
      t.row().cell(p.label);
      for (int ph = 0; ph < rt::kNumPhases; ++ph) {
        t.cell(res.phase_fraction(static_cast<rt::Phase>(ph)) * 100.0, 2);
      }
      const double imb = res.imbalance().percent();
      t.cell(imb, 2);
      imbalance_sum += imb;
      ++runs;
    }
    t.print(std::cout);
    std::printf("\n");
  }
  const double avg = imbalance_sum / runs;
  std::printf("average load imbalance across all kernels/policies: %.2f%% "
              "(paper: below 5%% on average)%s\n",
              avg, avg < 5.0 ? "" : "  << ABOVE PAPER'S FIGURE");
  if (metrics_out != nullptr) {
    rt::write_registry_file(session, metrics_out);
    std::printf("session metrics (%d offloads) written to %s\n", runs,
                metrics_out);
  }
  if (trace_out != nullptr) {
    std::printf("trace of the first run written to %s\n", trace_out);
  }
  if (audit_out != nullptr) {
    std::printf("decision audit of the first run written to %s\n",
                audit_out);
  }
  return 0;
}
