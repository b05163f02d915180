// Reproducibility and reporting contract (docs/SERVING.md): same-seed
// traffic-driven serving runs produce byte-identical summary JSON;
// concurrent materialized jobs on the shared engine still compute the
// right answers; metrics and trace exports carry the tenant labels.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "machine/profiles.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/traffic.h"

namespace homp::serve {
namespace {

TenantSpec tenant(const std::string& name, PriorityClass cls,
                  BackpressureMode bp = BackpressureMode::kReject) {
  TenantSpec t;
  t.name = name;
  t.priority = cls;
  t.backpressure = bp;
  t.max_queue_depth = 8;
  return t;
}

/// One mixed open/closed-loop run; returns the summary JSON.
std::string traffic_run_summary(std::vector<JobRecord>* jobs_out = nullptr) {
  ServeOptions opts;
  opts.seed = 0xdecaf;
  opts.shed_l1_depth = 4;
  opts.shed_l2_depth = 8;
  opts.shed_l3_depth = 12;
  OffloadServer server(
      mach::builtin("full"),
      {tenant("gold", PriorityClass::kGold),
       tenant("bronze", PriorityClass::kBronze, BackpressureMode::kBlock)},
      opts);

  TenantLoad open;
  open.tenant = tenant("gold", PriorityClass::kGold);
  open.arrival_rate_hz = 400.0;
  open.duration_s = 0.05;
  open.seed = 7;

  TenantLoad closed;
  closed.tenant =
      tenant("bronze", PriorityClass::kBronze, BackpressureMode::kBlock);
  closed.closed_loop = true;
  closed.population = 3;
  closed.think_s = 1e-3;
  closed.duration_s = 0.05;
  closed.seed = 9;

  TrafficGen gen(server, {open, closed});
  gen.start();
  server.run();

  EXPECT_GT(gen.submitted(), 0u);
  EXPECT_TRUE(server.report().validate().empty());
  if (jobs_out) *jobs_out = server.report().jobs;
  std::ostringstream ss;
  server.report().write_summary_json(ss);
  return ss.str();
}

TEST(Determinism, SameSeedRunsProduceByteIdenticalSummaries) {
  const std::string a = traffic_run_summary();
  const std::string b = traffic_run_summary();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, ConcurrentMaterializedJobsComputeCorrectResults) {
  ServeOptions opts;
  opts.materialize = true;  // execute bodies and verify outputs
  OffloadServer server(mach::builtin("full"),
                       {tenant("a", PriorityClass::kSilver),
                        tenant("b", PriorityClass::kSilver)},
                       opts);
  JobSpec j;
  j.kernel = "axpy";
  j.n = 1 << 12;
  j.devices = 2;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(server.submit("a", j).accepted());
    ASSERT_TRUE(server.submit("b", j).accepted());
  }
  server.run();

  const auto& rep = server.report();
  ASSERT_EQ(rep.jobs.size(), 4u);
  for (const auto& job : rep.jobs) {
    EXPECT_TRUE(job.ok()) << job.tenant << " job " << job.job_id;
    EXPECT_EQ(job.iterations_done, j.n);
  }
  // Concurrency actually happened: some job dispatched before the
  // previous one finished.
  bool overlapped = false;
  for (const auto& x : rep.jobs) {
    for (const auto& y : rep.jobs) {
      if (x.job_id != y.job_id && x.dispatch_time < y.finish_time &&
          y.dispatch_time < x.finish_time) {
        overlapped = true;
      }
    }
  }
  EXPECT_TRUE(overlapped);
  EXPECT_TRUE(rep.validate().empty());
}

TEST(Determinism, MaterializedSumJobCompletesWithItsReduction) {
  // A sum job's answer is the offload's reduction, not an output array:
  // the server must hand it to the kernel case before checking it.
  ServeOptions opts;
  opts.materialize = true;
  OffloadServer server(mach::builtin("gpu4"),
                       {tenant("a", PriorityClass::kSilver)}, opts);
  JobSpec j;
  j.kernel = "sum";
  j.n = 1 << 12;
  j.devices = 2;
  ASSERT_TRUE(server.submit("a", j).accepted());
  server.run();

  const auto& rep = server.report();
  ASSERT_EQ(rep.jobs.size(), 1u);
  const JobRecord& job = rep.jobs.front();
  EXPECT_EQ(job.outcome, JobOutcome::kCompleted) << job.error;
  EXPECT_TRUE(job.ok()) << job.error_class << ": " << job.error;
  EXPECT_EQ(job.iterations_done, j.n);
  EXPECT_TRUE(rep.validate().empty());
}

TEST(Determinism, MetricsExportCarriesTenantLabels) {
  std::vector<JobRecord> jobs;
  (void)traffic_run_summary(&jobs);

  ServeOptions opts;
  OffloadServer server(mach::builtin("full"),
                       {tenant("gold", PriorityClass::kGold)}, opts);
  ASSERT_TRUE(server.submit("gold", JobSpec{}).accepted());
  server.run();

  obs::MetricsRegistry reg;
  server.report().export_metrics(reg);
  std::ostringstream prom;
  reg.write_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("homp_serve_submitted_total"), std::string::npos);
  EXPECT_NE(text.find("homp_serve_job_latency_seconds"), std::string::npos);
  EXPECT_NE(text.find("tenant=\"gold\""), std::string::npos);
}

TEST(Determinism, TraceExportGroupsSpansByTenant) {
  ServeOptions opts;
  opts.collect_trace = true;
  OffloadServer server(mach::builtin("full"),
                       {tenant("gold", PriorityClass::kGold),
                        tenant("bronze", PriorityClass::kBronze)},
                       opts);
  JobSpec j;
  j.kernel = "axpy";
  j.n = 1 << 14;
  ASSERT_TRUE(server.submit("gold", j).accepted());
  ASSERT_TRUE(server.submit("bronze", j).accepted());
  server.run();

  std::ostringstream ss;
  server.report().write_trace_json(ss);
  const std::string trace = ss.str();
  // One chrome-trace process per tenant, named via metadata, plus the
  // serve decision audit as instant events.
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  EXPECT_NE(trace.find("\"gold\""), std::string::npos);
  EXPECT_NE(trace.find("\"bronze\""), std::string::npos);
  EXPECT_NE(trace.find("\"serve\""), std::string::npos);
}

}  // namespace
}  // namespace homp::serve
