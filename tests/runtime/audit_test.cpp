// Scheduler decision audit trail, counter-track samples, per-device
// model prediction-error telemetry, and the metrics-export bridge
// (docs/OBSERVABILITY.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "kernels/axpy.h"
#include "kernels/case.h"
#include "machine/profiles.h"
#include "obs/metric_names.h"
#include "runtime/audit_export.h"
#include "runtime/metrics_export.h"
#include "runtime/runtime.h"

namespace homp::rt {
namespace {

OffloadResult audited_run(bool audit, bool trace) {
  Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(100'000, /*materialize=*/false);
  OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.execute_bodies = false;
  o.collect_audit = audit;
  o.collect_trace = trace;
  auto maps = c.maps();
  auto kernel = c.kernel();
  return rt.offload(kernel, maps, o);
}

TEST(Audit, OffByDefaultButPredictionTelemetryAlwaysOn) {
  auto res = audited_run(false, false);
  EXPECT_TRUE(res.decisions.empty());
  EXPECT_TRUE(res.counters.empty());
  // The relative-error accumulators don't depend on any flag.
  for (const auto& d : res.devices) {
    EXPECT_GT(d.prediction.model_samples, 0u);
    EXPECT_GE(d.prediction.model1_mean(), 0.0);
    EXPECT_GE(d.prediction.model2_mean(), 0.0);
    EXPECT_EQ(d.chunk_seconds.count(), d.chunks);
    EXPECT_GT(d.chunk_seconds.sum(), 0.0);
  }
}

TEST(Audit, ChunkAssignmentsCarryPredictionsAndActuals) {
  auto res = audited_run(true, false);
  EXPECT_TRUE(res.counters.empty());  // counters need collect_trace
  ASSERT_FALSE(res.decisions.empty());
  std::size_t assigned = 0;
  double last_time = 0.0;
  for (const auto& d : res.decisions) {
    EXPECT_GE(d.time, last_time);  // audit trail is time-ordered
    last_time = d.time;
    if (d.kind != DecisionKind::kChunkAssigned) continue;
    ++assigned;
    EXPECT_FALSE(d.range.empty());
    EXPECT_GT(d.predicted_model1_s, 0.0);
    EXPECT_GT(d.predicted_model2_s, d.predicted_model1_s);  // adds transfer
    // Fault-free dynamic run: every assigned chunk completes where it
    // was assigned, so actual_s is backfilled.
    EXPECT_GT(d.actual_s, 0.0);
    EXPECT_EQ(d.detail, "scheduler");
  }
  EXPECT_EQ(assigned, res.chunks_issued);
}

TEST(Audit, AssignedChunksCarryTransferBytes) {
  // chunk_bytes sizes the decision's transfer term; the advisor uses it
  // to tell transfer-dominated chunks from compute-dominated ones.
  auto res = audited_run(true, false);
  for (const auto& d : res.decisions) {
    if (d.kind != DecisionKind::kChunkAssigned) continue;
    EXPECT_GT(d.chunk_bytes, 0.0);
  }
}

TEST(Audit, JsonExportIsByteIdenticalAcrossIdenticalRuns) {
  auto render = [] {
    auto res = audited_run(true, false);
    std::ostringstream os;
    write_audit_json(res, os);
    return os.str();
  };
  const std::string doc = render();
  EXPECT_EQ(doc, render());
  // Consumers sniff artifact kind by this key (advise/session.cpp).
  EXPECT_NE(doc.find("\"homp_audit_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"chunk_bytes\": "), std::string::npos);
}

TEST(Audit, ExportRequiresDecisions) {
  auto res = audited_run(false, false);
  std::ostringstream os;
  EXPECT_THROW(write_audit_json(res, os), ConfigError);
}

TEST(Audit, CutoffRecordsKeepAndDropWithWeights) {
  auto rt = Runtime::from_builtin("full");
  auto c = kern::make_case("matmul", 40, /*materialize=*/false);
  OffloadOptions o;
  o.device_ids = rt.all_devices();
  o.sched.kind = sched::AlgorithmKind::kModel1Auto;
  o.sched.cutoff_ratio = 0.15;
  o.execute_bodies = false;
  o.collect_audit = true;
  auto maps = c->maps();
  auto kernel = c->kernel();
  auto res = rt.offload(kernel, maps, o);

  ASSERT_TRUE(res.has_cutoff);
  std::size_t kept = 0, dropped = 0;
  for (const auto& d : res.decisions) {
    if (d.kind == DecisionKind::kCutoffKept) ++kept;
    if (d.kind == DecisionKind::kCutoffDropped) {
      ++dropped;
      EXPECT_NE(d.detail.find("below the cutoff"), std::string::npos);
    }
    if (d.kind == DecisionKind::kCutoffKept ||
        d.kind == DecisionKind::kCutoffDropped) {
      EXPECT_EQ(d.time, 0.0);  // the plan predates all pipeline activity
      EXPECT_NE(d.detail.find("weight"), std::string::npos);
    }
  }
  EXPECT_EQ(kept, static_cast<std::size_t>(res.cutoff.num_selected));
  EXPECT_EQ(kept + dropped, res.devices.size());
}

TEST(Audit, QuarantineAndReadmissionAreAudited) {
  Runtime rt{mach::testing_machine(3)};
  kern::AxpyCase c(50'000, /*materialize=*/false);
  OffloadOptions o;
  o.device_ids = {1, 2, 3};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.execute_bodies = false;
  o.collect_audit = true;
  sim::ScriptedFault hang;
  hang.device_id = 2;
  hang.kind = sim::FaultKind::kHang;
  hang.op = 0;
  o.fault.scripted.push_back(hang);
  auto maps = c.maps();
  auto kernel = c.kernel();
  auto res = rt.offload(kernel, maps, o);

  bool quarantined = false;
  for (const auto& d : res.decisions) {
    if (d.kind == DecisionKind::kQuarantined) quarantined = true;
    if (d.kind == DecisionKind::kReadmitted) {
      EXPECT_NE(d.detail.find("probation"), std::string::npos);
    }
  }
  EXPECT_TRUE(quarantined);
}

TEST(Counters, TracksAreTimeOrderedAndMonotoneWhereExpected) {
  auto res = audited_run(false, true);  // collect_trace implies audit
  ASSERT_FALSE(res.decisions.empty());
  ASSERT_FALSE(res.counters.empty());
  double last_time = 0.0;
  std::vector<double> iters(res.devices.size(), 0.0);
  for (const auto& c : res.counters) {
    EXPECT_GE(c.time, last_time);
    last_time = c.time;
    EXPECT_GE(c.value, 0.0);  // all four tracks are non-negative
    if (c.track == CounterTrack::kIterations) {
      EXPECT_GE(c.value, iters[c.slot]);  // cumulative per device
      iters[c.slot] = c.value;
    }
  }
  // Final committed-iterations samples agree with the device stats.
  for (std::size_t s = 0; s < res.devices.size(); ++s) {
    EXPECT_DOUBLE_EQ(iters[s], double(res.devices[s].iterations));
  }
  // Outstanding bytes drain to zero by the end of the offload.
  for (auto it = res.counters.rbegin(); it != res.counters.rend(); ++it) {
    if (it->track == CounterTrack::kOutstandingBytes) {
      EXPECT_DOUBLE_EQ(it->value, 0.0);
      break;
    }
  }
}

TEST(MetricsExport, BridgesResultToRegistry) {
  auto res = audited_run(true, false);
  obs::MetricsRegistry reg;
  collect_metrics(res, reg);

  namespace names = obs::names;
  EXPECT_DOUBLE_EQ(reg.value(names::kOffloads), 1.0);
  EXPECT_DOUBLE_EQ(reg.value(names::kChunksIssued),
                   double(res.chunks_issued));
  EXPECT_DOUBLE_EQ(reg.value(names::kImbalancePct),
                   res.imbalance().percent());
  EXPECT_DOUBLE_EQ(reg.value(names::kDecisions, "kind=\"chunk-assigned\""),
                   double(res.chunks_issued));
  double chunks = 0.0;
  std::uint64_t hist_count = 0;
  for (const auto& d : res.devices) {
    const std::string dev = "device=\"" + d.device_name + "\"";
    chunks += reg.value(names::kDeviceChunks, dev);
    EXPECT_DOUBLE_EQ(reg.value(names::kDeviceIterations, dev),
                     double(d.iterations));
    const obs::Histogram* h =
        reg.find_histogram(names::kDeviceChunkSeconds, dev);
    ASSERT_NE(h, nullptr);
    hist_count += h->count();
    EXPECT_DOUBLE_EQ(reg.value(names::kModel1RelError, dev),
                     d.prediction.model1_mean());
  }
  EXPECT_DOUBLE_EQ(chunks, double(res.chunks_issued));
  EXPECT_EQ(hist_count, res.chunks_issued);
}

TEST(MetricsExport, AdvisorGaugesQualifyPredictionErrors) {
  // Sample counts and relative-error extrema ride along with the error
  // means so the offline advisor can weigh evidence strength.
  auto res = audited_run(false, false);
  obs::MetricsRegistry reg;
  collect_metrics(res, reg);
  namespace names = obs::names;
  for (const auto& d : res.devices) {
    const std::string dev = "device=\"" + d.device_name + "\"";
    EXPECT_DOUBLE_EQ(reg.value(names::kModelSamples, dev),
                     double(d.prediction.model_samples));
    EXPECT_DOUBLE_EQ(reg.value(names::kProfileSamples, dev),
                     double(d.prediction.profile_samples));
    EXPECT_DOUBLE_EQ(reg.value(names::kModel2ErrorMin, dev),
                     d.prediction.model2_err_min);
    EXPECT_DOUBLE_EQ(reg.value(names::kModel2ErrorMax, dev),
                     d.prediction.model2_err_max);
    // Samples exist in this run, so the extrema left their -1 sentinel
    // and bracket the mean.
    EXPECT_GT(d.prediction.model_samples, 0u);
    EXPECT_GE(d.prediction.model2_err_min, 0.0);
    EXPECT_LE(d.prediction.model2_err_min, d.prediction.model2_mean());
    EXPECT_GE(d.prediction.model2_err_max, d.prediction.model2_mean());
  }
}

TEST(MetricsExport, SessionAggregationAccumulatesCounters) {
  auto res = audited_run(false, false);
  obs::MetricsRegistry reg;
  collect_metrics(res, reg);
  collect_metrics(res, reg);
  namespace names = obs::names;
  EXPECT_DOUBLE_EQ(reg.value(names::kOffloads), 2.0);
  EXPECT_DOUBLE_EQ(reg.value(names::kChunksIssued),
                   2.0 * double(res.chunks_issued));
  // Gauges keep the last offload's value.
  EXPECT_DOUBLE_EQ(reg.value(names::kImbalancePct),
                   res.imbalance().percent());
}

TEST(MetricsExport, JsonIsByteIdenticalAcrossIdenticalRuns) {
  auto render = [] {
    auto res = audited_run(true, false);
    obs::MetricsRegistry reg;
    collect_metrics(res, reg);
    std::ostringstream os;
    reg.write_json(os);
    return os.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(MetricsExport, FileWriterSelectsFormatBySuffix) {
  auto res = audited_run(false, false);
  write_metrics_file(res, "/tmp/homp_metrics_test.json");
  write_metrics_file(res, "/tmp/homp_metrics_test.prom");
  std::ifstream js("/tmp/homp_metrics_test.json");
  std::ifstream pr("/tmp/homp_metrics_test.prom");
  std::string jline, pline;
  std::getline(js, jline);
  std::getline(pr, pline);
  EXPECT_EQ(jline, "{");
  EXPECT_EQ(pline.rfind("# TYPE", 0), 0u);
  EXPECT_THROW(write_metrics_file(res, "/nonexistent/dir/m.json"),
               ConfigError);
}

}  // namespace
}  // namespace homp::rt
