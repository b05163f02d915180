// Unit tests for the offline advisor (src/advise): the JSON reader, the
// artifact sniffer, the metrics reload path, trace reduction and its
// summary rows (hand-computed fixtures, real offload and serving runs),
// and the attribution engine's arithmetic on hand-built sessions with
// exact expected Inspection values (docs/OBSERVABILITY.md "The offline
// advisor").

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "advise/attribution.h"
#include "advise/json.h"
#include "advise/report.h"
#include "advise/report_keys.h"
#include "advise/session.h"
#include "common/error.h"
#include "machine/profiles.h"
#include "obs/metrics.h"
#include "runtime/trace.h"
#include "serve/server.h"

namespace {

using namespace homp;
using advise::Json;

// ---- JSON reader ---------------------------------------------------------

TEST(AdviseJson, ParsesEveryValueKindWithDocumentOrder) {
  const Json doc = Json::parse(
      R"({"b": true, "a": -2.5e3, "s": "hi", "n": null,)"
      R"( "arr": [1, 2, 3], "obj": {"k": 7}})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.members().size(), 6u);
  // Members keep document order, not sorted order.
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_TRUE(doc.find("b")->boolean());
  EXPECT_DOUBLE_EQ(doc.find("a")->number(), -2500.0);
  EXPECT_EQ(doc.find("s")->string(), "hi");
  EXPECT_TRUE(doc.find("n")->is_null());
  ASSERT_EQ(doc.find("arr")->array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("arr")->array()[2].number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.find("obj")->number_or("k", 0.0), 7.0);
}

TEST(AdviseJson, DecodesEscapesIncludingUnicode) {
  const Json doc = Json::parse(
      R"({"s": "q\" b\\ n\n t\t uA eé"})");
  EXPECT_EQ(doc.string_or_empty("s"), "q\" b\\ n\n t\t uA e\xc3\xa9");
}

TEST(AdviseJson, MalformedInputThrowsParseError) {
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{} trailing"), ParseError);
  EXPECT_THROW(Json::parse(R"({"k": 1)"), ParseError);
  EXPECT_THROW(Json::parse(R"("bad \x escape")"), ParseError);
  EXPECT_THROW(Json::parse(""), ParseError);
}

TEST(AdviseJson, MissingFileThrowsConfigError) {
  EXPECT_THROW(Json::parse_file("/nonexistent/advise.json"), ConfigError);
}

TEST(AdviseJson, WrongTypeAccessIsNeutralNotThrowing) {
  const Json doc = Json::parse(R"({"s": "text"})");
  EXPECT_DOUBLE_EQ(doc.find("s")->number(), 0.0);
  EXPECT_FALSE(doc.find("s")->boolean());
  EXPECT_TRUE(doc.find("s")->array().empty());
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_DOUBLE_EQ(doc.number_or("absent", 42.0), 42.0);
  EXPECT_EQ(doc.string_or_empty("absent"), "");
}

// ---- artifact sniffing ---------------------------------------------------

TEST(AdviseClassify, SniffsEveryArtifactKind) {
  using advise::ArtifactKind;
  using advise::classify;
  EXPECT_EQ(classify(Json::parse(R"({"homp_audit_version": 1})")),
            ArtifactKind::kAudit);
  EXPECT_EQ(classify(Json::parse(R"({"homp_serve_audit_version": 1})")),
            ArtifactKind::kServeAudit);
  EXPECT_EQ(classify(Json::parse(R"({"homp_metrics_version": 1})")),
            ArtifactKind::kMetrics);
  EXPECT_EQ(classify(Json::parse("[]")), ArtifactKind::kTrace);
  EXPECT_EQ(classify(Json::parse(R"({"bench": "engine"})")),
            ArtifactKind::kBench);
  EXPECT_EQ(classify(Json::parse(R"({"foo": 1})")), ArtifactKind::kUnknown);
  EXPECT_EQ(classify(Json::parse("3")), ArtifactKind::kUnknown);
}

TEST(AdviseSession, UnknownArtifactThrowsNamingTheOrigin) {
  advise::Session s;
  try {
    s.add(Json::parse(R"({"foo": 1})"), "mystery.json");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("mystery.json"), std::string::npos);
  }
}

// ---- metrics reload ------------------------------------------------------

/// A registry with all three metric types, histogram samples spread over
/// low, mid, and beyond-the-top-finite-bucket values.
obs::MetricsRegistry sample_registry() {
  obs::MetricsRegistry reg;
  reg.add("homp_chunks_total", "device=\"gpu0\"", 12.0);
  reg.add("homp_chunks_total", "device=\"gpu1\"", 3.0);
  reg.set("homp_weight", "device=\"gpu0\"", 0.625);
  reg.observe("homp_chunk_seconds", "", 5e-8);   // below base: bucket 0
  reg.observe("homp_chunk_seconds", "", 3e-6);
  reg.observe("homp_chunk_seconds", "", 1e-3);
  reg.observe("homp_chunk_seconds", "", 1e9);    // beyond finite: last bucket
  return reg;
}

TEST(AdviseMetrics, ReloadedRegistryReExportsByteIdentically) {
  const obs::MetricsRegistry reg = sample_registry();
  std::ostringstream first;
  reg.write_json(first);

  obs::MetricsRegistry reloaded;
  advise::load_metrics(Json::parse(first.str()), reloaded);
  std::ostringstream second;
  reloaded.write_json(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(AdviseMetrics, ReloadIsBucketExact) {
  const obs::MetricsRegistry reg = sample_registry();
  std::ostringstream os;
  reg.write_json(os);
  obs::MetricsRegistry reloaded;
  advise::load_metrics(Json::parse(os.str()), reloaded);

  const obs::Histogram* a = reg.find_histogram("homp_chunk_seconds");
  const obs::Histogram* b = reloaded.find_histogram("homp_chunk_seconds");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count(), b->count());
  EXPECT_DOUBLE_EQ(a->sum(), b->sum());
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(a->bucket(i), b->bucket(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(reloaded.value("homp_chunks_total", "device=\"gpu0\""),
                   12.0);
  EXPECT_DOUBLE_EQ(reloaded.value("homp_weight", "device=\"gpu0\""), 0.625);
}

TEST(AdviseMetrics, VersionMismatchThrows) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(
      advise::load_metrics(Json::parse(R"({"homp_metrics_version": 99})"),
                           reg),
      ConfigError);
}

TEST(AdviseHistogram, AddBucketAndAddSumRebuildExactly) {
  obs::Histogram h;
  h.observe(5e-8);
  h.observe(3e-6);
  h.observe(3e-6);
  h.observe(1e9);

  obs::Histogram rebuilt;
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    rebuilt.add_bucket(i, h.bucket(i));
  }
  rebuilt.add_sum(h.sum());
  EXPECT_EQ(rebuilt.count(), h.count());
  EXPECT_DOUBLE_EQ(rebuilt.sum(), h.sum());
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(rebuilt.bucket(i), h.bucket(i)) << "bucket " << i;
  }
  // Out-of-range indices are ignored, not UB.
  rebuilt.add_bucket(-1, 5);
  rebuilt.add_bucket(obs::Histogram::kNumBuckets, 5);
  EXPECT_EQ(rebuilt.count(), h.count());
}

// ---- trace reduction -----------------------------------------------------

TEST(AdviseTrace, ReducesOverlapPerDevice) {
  // One device: compute [0, 4]us, copy-in [0, 1]us (hidden) and
  // copy-out [5, 8]us (exposed). Transfer 4us, hidden 1us.
  const Json doc = Json::parse(R"trace([
    {"ph": "X", "pid": 0, "tid": 0, "name": "compute [0, 100)", "ts": 0.0,
     "dur": 4.0},
    {"ph": "X", "pid": 0, "tid": 0, "name": "copy-in [0, 100)", "ts": 0.0,
     "dur": 1.0},
    {"ph": "X", "pid": 0, "tid": 0, "name": "copy-out [0, 100)", "ts": 5.0,
     "dur": 3.0},
    {"ph": "M", "tid": 0, "name": "thread_name", "args": {"name": "gpu0"}}
  ])trace");
  const advise::TraceEvidence ev = advise::reduce_trace(doc);
  EXPECT_DOUBLE_EQ(ev.makespan_s, 8e-6);
  ASSERT_EQ(ev.devices.size(), 1u);
  const advise::TraceDevice& d = ev.devices[0];
  EXPECT_EQ(d.name, "gpu0");
  EXPECT_DOUBLE_EQ(d.transfer_s, 4e-6);
  EXPECT_DOUBLE_EQ(d.hidden_s, 1e-6);
  EXPECT_DOUBLE_EQ(d.compute_s, 4e-6);
  // No final-barrier span: the device finishes with its last busy span.
  EXPECT_DOUBLE_EQ(d.finish_s, 8e-6);
}

/// The rows of `doc`, keyed for lookup.
std::map<std::string, advise::TraceRow> rows_of(const Json& doc) {
  std::map<std::string, advise::TraceRow> out;
  for (advise::TraceRow& r : advise::trace_rows(advise::reduce_trace(doc))) {
    out[r.key] = r;
  }
  return out;
}

/// Rows whose key starts with `prefix`.
std::size_t count_prefixed(const std::map<std::string, advise::TraceRow>& rows,
                           const std::string& prefix) {
  std::size_t n = 0;
  for (const auto& [key, r] : rows) n += key.rfind(prefix, 0) == 0 ? 1 : 0;
  return n;
}

TEST(AdviseTrace, StaticFixtureHandComputedFigures) {
  // Devices reach the final barrier at 6, 8 and 10us: imbalance
  // (10 - 8) / 10 = 20%, skew 4us, gpu1 critical. Transfers total 6us,
  // of which cpu's copy-in [3, 5) hides 2us behind its compute [2, 6).
  const Json doc = Json::parse(R"trace([
    {"name": "copy-in [0,100)", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 2},
    {"name": "copy-in [100,200)", "ph": "X", "pid": 0, "tid": 0, "ts": 3, "dur": 2},
    {"name": "compute [0,100)", "ph": "X", "pid": 0, "tid": 0, "ts": 2, "dur": 4},
    {"name": "barrier final", "ph": "X", "pid": 0, "tid": 0, "ts": 6, "dur": 4},
    {"name": "copy-in [200,500)", "ph": "X", "pid": 0, "tid": 1, "ts": 0, "dur": 1},
    {"name": "compute [200,500)", "ph": "X", "pid": 0, "tid": 1, "ts": 1, "dur": 7},
    {"name": "barrier final", "ph": "X", "pid": 0, "tid": 1, "ts": 8, "dur": 2},
    {"name": "copy-in [500,1000)", "ph": "X", "pid": 0, "tid": 2, "ts": 0, "dur": 1},
    {"name": "compute [500,1000)", "ph": "X", "pid": 0, "tid": 2, "ts": 1, "dur": 9},
    {"name": "barrier final", "ph": "X", "pid": 0, "tid": 2, "ts": 10, "dur": 0},
    {"name": "decision: chunk-assigned [0,100)", "cat": "decision", "ph": "i",
     "pid": 0, "tid": 0, "ts": 0, "args": {"model2_s": 6e-06, "actual_s": 4e-06}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "cpu"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "gpu0"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 2, "args": {"name": "gpu1"}}
  ])trace");
  const advise::TraceEvidence ev = advise::reduce_trace(doc);
  ASSERT_EQ(ev.devices.size(), 3u);
  EXPECT_DOUBLE_EQ(ev.devices[0].finish_s, 6e-6);
  EXPECT_DOUBLE_EQ(ev.devices[1].finish_s, 8e-6);
  EXPECT_EQ(ev.devices[ev.critical].name, "gpu1");
  EXPECT_NEAR(ev.imbalance_pct, 20.0, 1e-9);
  EXPECT_NEAR(ev.barrier_skew_s, 4e-6, 1e-18);

  const auto rows = rows_of(doc);
  EXPECT_EQ(rows.at(advise::kRowCriticalDevice).text, "gpu1");
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowCriticalPath).value, 10e-6);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowMakespan).value, 10e-6);
  EXPECT_NEAR(rows.at(advise::kRowOverlapRatio).value, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowDevices).value, 3.0);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowDecisions).value, 1.0);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowFaults).value, 0.0);
  // A single offload: every span on pid 0, no process metadata.
  EXPECT_EQ(rows.count(advise::kRowTenants), 0u);
  EXPECT_EQ(count_prefixed(rows, "serve."), 0u);
}

TEST(AdviseTrace, LastArrivalAndQuarantineSetFinishesWithoutABarrierSpan) {
  // The runtime writes no zero-length span: slot 1 arrives last, at the
  // barrier's release (10us), and leaves no final-barrier span. Slot 2 is
  // quarantined for good at 3us and finishes there. Slot 3 never
  // computed, so its finish counts toward neither skew nor imbalance.
  const Json doc = Json::parse(R"trace([
    {"name": "compute a", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 6},
    {"name": "barrier final", "ph": "X", "pid": 0, "tid": 0, "ts": 6, "dur": 4},
    {"name": "compute b", "ph": "X", "pid": 0, "tid": 1, "ts": 0, "dur": 9},
    {"name": "compute c", "ph": "X", "pid": 0, "tid": 2, "ts": 0, "dur": 2},
    {"name": "decision: quarantined", "cat": "decision", "ph": "i", "pid": 0,
     "tid": 2, "ts": 3},
    {"name": "copy-in d", "ph": "X", "pid": 0, "tid": 3, "ts": 0, "dur": 1}
  ])trace");
  const advise::TraceEvidence ev = advise::reduce_trace(doc);
  ASSERT_EQ(ev.devices.size(), 4u);
  EXPECT_DOUBLE_EQ(ev.devices[0].finish_s, 6e-6);
  EXPECT_DOUBLE_EQ(ev.devices[1].finish_s, 10e-6);
  EXPECT_DOUBLE_EQ(ev.devices[2].finish_s, 3e-6);
  EXPECT_EQ(ev.critical, 1u);
  EXPECT_NEAR(ev.barrier_skew_s, 7e-6, 1e-18);
  EXPECT_NEAR(ev.imbalance_pct, (10.0 - 19.0 / 3.0) / 10.0 * 100.0, 1e-9);
}

TEST(AdviseTrace, TenantSectionsPerProcess) {
  // Gold runs job threads finishing at 4 and 8us (25% finish
  // imbalance), bronze one thread over [2, 8).
  const Json doc = Json::parse(R"trace([
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "gold"}},
    {"name": "process_name", "ph": "M", "pid": 2, "tid": 0, "args": {"name": "bronze"}},
    {"name": "compute", "ph": "X", "pid": 1, "tid": 64, "ts": 0, "dur": 4},
    {"name": "compute", "ph": "X", "pid": 1, "tid": 65, "ts": 0, "dur": 8},
    {"name": "compute", "ph": "X", "pid": 2, "tid": 128, "ts": 2, "dur": 6},
    {"name": "dispatch", "cat": "serve", "ph": "i", "pid": 1, "tid": 0, "ts": 0,
     "args": {"job": 1, "detail": "2 devices"}}
  ])trace");
  const auto rows = rows_of(doc);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowTenants).value, 2.0);
  EXPECT_DOUBLE_EQ(rows.at("tenant[gold].spans").value, 2.0);
  EXPECT_DOUBLE_EQ(rows.at("tenant[gold].threads").value, 2.0);
  EXPECT_DOUBLE_EQ(rows.at("tenant[gold].busy_s").value, 12e-6);
  EXPECT_DOUBLE_EQ(rows.at("tenant[gold].critical_path_s").value, 8e-6);
  EXPECT_DOUBLE_EQ(rows.at("tenant[gold].makespan_s").value, 8e-6);
  EXPECT_DOUBLE_EQ(rows.at("tenant[gold].imbalance_pct").value, 25.0);
  EXPECT_DOUBLE_EQ(rows.at("tenant[bronze].spans").value, 1.0);
  EXPECT_DOUBLE_EQ(rows.at("tenant[bronze].busy_s").value, 6e-6);
  EXPECT_DOUBLE_EQ(rows.at("tenant[bronze].makespan_s").value, 6e-6);
  EXPECT_DOUBLE_EQ(rows.at("tenant[bronze].imbalance_pct").value, 0.0);
  // A dispatch instant is no terminal outcome: no serve section.
  EXPECT_EQ(count_prefixed(rows, "serve."), 0u);
}

TEST(AdviseTrace, ServeSectionCountsClassesAndCollapsesDetails) {
  const Json doc = Json::parse(R"trace([
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "t0"}},
    {"ph": "X", "name": "compute k", "pid": 1, "tid": 64, "ts": 0, "dur": 4},
    {"cat": "serve", "ph": "i", "pid": 1, "tid": 0, "name": "fail", "ts": 4,
     "args": {"job": 1, "detail": "step_budget: over\nbudget"}},
    {"cat": "serve", "ph": "i", "pid": 1, "tid": 0, "name": "fail", "ts": 5,
     "args": {"job": 2, "detail": "step_budget: again"}},
    {"cat": "serve", "ph": "i", "pid": 1, "tid": 0, "name": "cancel", "ts": 6,
     "args": {"job": 3, "detail": "deadline_miss: in queue"}},
    {"cat": "serve", "ph": "i", "pid": 1, "tid": 0, "name": "breaker-open",
     "ts": 7, "args": {"job": 0, "detail": "cooldown 1s"}}
  ])trace");
  const auto rows = rows_of(doc);
  // One named tenant process is a serving trace too.
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowTenants).value, 1.0);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowServeFailedJobs).value, 2.0);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowServeCancelledJobs).value, 1.0);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowServeBreakerTrips).value, 1.0);
  EXPECT_DOUBLE_EQ(rows.at("serve.failed[t0/step_budget]").value, 2.0);
  EXPECT_DOUBLE_EQ(rows.at("serve.cancelled[t0/deadline_miss]").value, 1.0);
  // The newline inside the detail collapses, so the row stays one line.
  EXPECT_EQ(rows.at("serve.failed_job[1]").text,
            "tenant=t0 step_budget: over budget");
  EXPECT_EQ(rows.at("serve.cancelled_job[3]").text,
            "tenant=t0 deadline_miss: in queue");
}

/// A serving run of axpy jobs, two devices each, one per tenant.
std::map<std::string, advise::TraceRow> serve_rows(
    std::vector<serve::TenantSpec> tenants, serve::ServeOptions opts,
    double slow_deadline_factor = 0.0) {
  opts.collect_trace = true;
  serve::OffloadServer server(mach::builtin("full"), tenants, opts);
  serve::JobSpec j;
  j.kernel = "axpy";
  j.n = 1 << 14;
  j.devices = 2;
  for (const serve::TenantSpec& t : tenants) {
    serve::JobSpec job = j;
    if (t.name == "slow") {
      // Clears admission on the predicted runtime, then misses it.
      job.deadline_s = slow_deadline_factor *
                       server.predicted_job_seconds(j.kernel, j.n, 2);
    }
    server.submit(t.name, job);
  }
  server.run();
  std::ostringstream os;
  server.report().write_trace_json(os);
  return rows_of(Json::parse(os.str()));
}

TEST(AdviseTrace, ServingRunReportsPoisonFailureAndDeadlineCancel) {
  // Poison loses every granted device mid-run (a terminal kFail); slow
  // runs 64x behind its prediction and is cancelled past its deadline.
  serve::TenantSpec good, poison, slow;
  good.name = "good";
  poison.name = "poison";
  poison.fault.fail_at_s = 1e-4;
  slow.name = "slow";
  slow.fault.slowdown_rate = 0.95;
  slow.fault.slowdown_factor = 64.0;
  serve::ServeOptions opts;
  opts.breaker_threshold = 0;  // keep the poison job a kFail record
  const auto rows = serve_rows({good, poison, slow}, opts, 4.0);
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowTenants).value, 3.0);
  EXPECT_DOUBLE_EQ(rows.at("serve.failed[poison/all_devices_lost]").value,
                   1.0);
  EXPECT_DOUBLE_EQ(rows.at("serve.cancelled[slow/deadline_miss]").value, 1.0);
  EXPECT_EQ(count_prefixed(rows, "serve.failed["), 1u);
  EXPECT_EQ(count_prefixed(rows, "serve.cancelled["), 1u);
  EXPECT_EQ(count_prefixed(rows, "serve.failed_job["), 1u);
  EXPECT_EQ(count_prefixed(rows, "serve.cancelled_job["), 1u);
  for (const auto& [key, r] : rows) {
    if (key.rfind("serve.failed_job[", 0) == 0) {
      EXPECT_EQ(r.text.rfind("tenant=poison all_devices_lost: ", 0), 0u);
    }
  }
}

TEST(AdviseTrace, CleanServingRunHasTenantRowsButNoServeRows) {
  serve::TenantSpec gold, bronze;
  gold.name = "gold";
  gold.priority = serve::PriorityClass::kGold;
  bronze.name = "bronze";
  bronze.priority = serve::PriorityClass::kBronze;
  const auto rows = serve_rows({gold, bronze}, {});
  EXPECT_DOUBLE_EQ(rows.at(advise::kRowTenants).value, 2.0);
  EXPECT_DOUBLE_EQ(rows.at("tenant[gold].threads").value, 2.0);
  EXPECT_EQ(count_prefixed(rows, "tenant[bronze]."), 6u);
  EXPECT_EQ(count_prefixed(rows, "serve."), 0u);
}

TEST(AdviseTrace, AdversarialLabelsDecodeToTheirOriginalBytes) {
  // Every string field of the export tries to break the document; the
  // reader must decode each back to the bytes the runtime put in.
  const std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07";
  rt::OffloadResult res;
  for (int slot = 0; slot < 2; ++slot) {
    rt::TraceSpan span;
    span.slot = slot;
    span.device = "dev\"" + std::to_string(slot) + "\\\n";
    span.phase = rt::Phase::kCompute;
    span.t1 = (slot + 1) * 5e-6;
    span.label = nasty;
    res.trace.push_back(span);
  }
  rt::FaultEvent f;
  f.slot = 0;
  f.detail = nasty;
  res.fault_events.push_back(f);
  std::ostringstream os;
  rt::write_chrome_trace(res, os);

  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.array()[0].string_or_empty("name"), "compute " + nasty);
  EXPECT_EQ(doc.array()[1].find("args")->string_or_empty("device"),
            "dev\"1\\\n");
  const advise::TraceEvidence ev = advise::reduce_trace(doc);
  ASSERT_EQ(ev.devices.size(), 2u);
  EXPECT_EQ(ev.devices[0].name, "dev\"0\\\n");
  EXPECT_EQ(ev.faults, 1);
  EXPECT_DOUBLE_EQ(ev.imbalance_pct, 25.0);
}

TEST(AdviseTrace, DegenerateTracesThrow) {
  const char* bad[] = {
      "[]",  // empty
      R"([{"ph": "M", "name": "thread_name", "tid": 0,
           "args": {"name": "host"}}])",  // no spans
      R"([{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
           "args": {"name": "gold"}}])",  // tenants, no spans
      R"(["zap"])",                        // non-object event
      R"([{"ph": "X", "name": "compute k", "pid": 0, "ts": 0, "dur": 1}])",
      R"([{"ph": "X", "name": "compute k", "tid": 0, "ts": 0, "dur": 1}])",
      R"([{"ph": "X", "name": "compute k", "pid": "gold", "tid": 0,
           "ts": 0, "dur": 1}])",
      R"([{"ph": "X", "name": "compute k", "pid": 0, "tid": 0.5,
           "ts": 0, "dur": 1}])",
  };
  for (const char* text : bad) {
    EXPECT_THROW(advise::reduce_trace(Json::parse(text)), ConfigError) << text;
  }
}

// ---- attribution arithmetic ----------------------------------------------

advise::AuditDecision assigned(const std::string& device, double model2_s,
                               double actual_s) {
  advise::AuditDecision d;
  d.device = device;
  d.kind = "chunk-assigned";
  d.model2_s = model2_s;
  d.actual_s = actual_s;
  return d;
}

advise::AuditDevice device(const std::string& name, double finish_s,
                           long long chunks) {
  advise::AuditDevice d;
  d.name = name;
  d.finish_time_s = finish_s;
  d.chunks = chunks;
  return d;
}

/// Three devices, makespan 10s: "slow" ran 8x its MODEL_2 prediction
/// (bias 8, finish 10), "fast" ran at half (bias 0.5, finish 2), "ok"
/// was spot-on (finish 4).
advise::RunAudit biased_run() {
  advise::RunAudit run;
  run.algorithm = "MODEL_2";
  run.total_time_s = 10.0;
  run.chunks_issued = 3;
  run.devices = {device("fast", 2.0, 1), device("ok", 4.0, 1),
                 device("slow", 10.0, 1)};
  run.decisions = {assigned("fast", 1.0, 0.5), assigned("ok", 1.0, 1.0),
                   assigned("slow", 1.0, 8.0)};
  return run;
}

TEST(AdviseAttribution, BiasFindingsCarryExactSavings) {
  advise::Session s;
  s.runs.push_back(biased_run());
  const std::vector<advise::Inspection> out = advise::attribute(s, {});

  // Expected, ranked by saving: under_prediction@slow saving
  // 10 - (2+4)/2 = 7 (critical, >= 10% of makespan); blame@slow gap
  // 10 - 4 = 6 (info); over_prediction@fast (10-2)*(1-0.5) = 4 (warning).
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, advise::kKindUnderPrediction);
  EXPECT_EQ(out[0].device, "slow");
  EXPECT_DOUBLE_EQ(out[0].saving_s, 7.0);
  EXPECT_EQ(out[0].severity, advise::kSeverityCritical);

  EXPECT_EQ(out[1].kind, advise::kKindCriticalPathBlame);
  EXPECT_EQ(out[1].device, "slow");
  EXPECT_DOUBLE_EQ(out[1].saving_s, 6.0);
  EXPECT_EQ(out[1].severity, advise::kSeverityInfo);

  EXPECT_EQ(out[2].kind, advise::kKindOverPrediction);
  EXPECT_EQ(out[2].device, "fast");
  EXPECT_DOUBLE_EQ(out[2].saving_s, 4.0);
  EXPECT_EQ(out[2].severity, advise::kSeverityWarning);
}

TEST(AdviseAttribution, BiasThresholdGatesBothDirections) {
  advise::Session s;
  s.runs.push_back(biased_run());
  advise::AttributionOptions opt;
  opt.bias_threshold = 100.0;
  const auto out = advise::attribute(s, opt);
  for (const advise::Inspection& f : out) {
    EXPECT_NE(f.kind, advise::kKindUnderPrediction);
    EXPECT_NE(f.kind, advise::kKindOverPrediction);
  }
}

TEST(AdviseAttribution, CutoffRegretUsesPreWeightAndBiasCorrection) {
  advise::RunAudit run;
  run.total_time_s = 10.0;
  run.has_cutoff = true;
  run.cutoff_selected = {1, 0};
  run.cutoff_pre_weights = {0.7, 0.3};
  run.devices = {device("kept", 10.0, 2), device("dropped", 0.0, 0)};
  run.decisions = {assigned("kept", 5.0, 5.0)};

  // Without bias evidence for the dropped device: regret = makespan x
  // pre-weight = 3, warning.
  {
    advise::Session s;
    s.runs.push_back(run);
    const auto out = advise::attribute(s, {});
    const advise::Inspection* regret = nullptr;
    for (const auto& f : out) {
      if (f.kind == advise::kKindCutoffDropRegret) regret = &f;
    }
    ASSERT_NE(regret, nullptr);
    EXPECT_EQ(regret->device, "dropped");
    EXPECT_DOUBLE_EQ(regret->saving_s, 3.0);
    EXPECT_EQ(regret->severity, advise::kSeverityWarning);
  }

  // A second run where "dropped" participated with bias 2 corrects the
  // regret by 1/bias: 10 x 0.3 x 0.5 = 1.5, demoted to info.
  {
    advise::RunAudit other;
    other.total_time_s = 4.0;
    other.devices = {device("dropped", 4.0, 1)};
    other.decisions = {assigned("dropped", 1.0, 2.0)};

    advise::Session s;
    s.runs.push_back(run);
    s.runs.push_back(other);
    const auto out = advise::attribute(s, {});
    const advise::Inspection* regret = nullptr;
    for (const auto& f : out) {
      if (f.kind == advise::kKindCutoffDropRegret) regret = &f;
    }
    ASSERT_NE(regret, nullptr);
    EXPECT_DOUBLE_EQ(regret->saving_s, 1.5);
    EXPECT_EQ(regret->severity, advise::kSeverityInfo);
  }
}

TEST(AdviseAttribution, SpeculationWasteIsLostCopiesTimesMeanChunk) {
  advise::RunAudit run = biased_run();
  run.devices[0].spec_copies_run = 3;
  run.devices[0].spec_copies_won = 1;
  advise::Session s;
  s.runs.push_back(run);
  const auto out = advise::attribute(s, {});
  const advise::Inspection* waste = nullptr;
  for (const auto& f : out) {
    if (f.kind == advise::kKindSpeculationWaste) waste = &f;
  }
  ASSERT_NE(waste, nullptr);
  EXPECT_EQ(waste->device, "fast");
  // 2 lost copies x mean actual chunk on "fast" (0.5s).
  EXPECT_DOUBLE_EQ(waste->saving_s, 1.0);
}

TEST(AdviseAttribution, ActualsCoverageFiresPastTheMissingRatio) {
  advise::RunAudit run = biased_run();
  // 3 of 6 assigned have actuals: exactly at the 50% default -> silent.
  run.decisions.push_back(assigned("slow", 1.0, -1.0));
  run.decisions.push_back(assigned("slow", 1.0, -1.0));
  run.decisions.push_back(assigned("slow", 1.0, -1.0));
  {
    advise::Session s;
    s.runs.push_back(run);
    for (const auto& f : advise::attribute(s, {})) {
      EXPECT_NE(f.kind, advise::kKindActualsCoverage);
    }
  }
  // One more missing tips it over.
  run.decisions.push_back(assigned("slow", 1.0, -1.0));
  {
    advise::Session s;
    s.runs.push_back(run);
    const auto out = advise::attribute(s, {});
    bool found = false;
    for (const auto& f : out) {
      found = found || f.kind == advise::kKindActualsCoverage;
    }
    EXPECT_TRUE(found);
  }
}

TEST(AdviseAttribution, OverlapDeficitFromTraceEvidence) {
  advise::TraceEvidence tr;
  tr.makespan_s = 10.0;
  advise::TraceDevice d;
  d.name = "gpu0";
  d.transfer_s = 4.0;
  d.hidden_s = 1.0;
  tr.devices.push_back(d);
  advise::Session s;
  s.traces.push_back(tr);
  const auto out = advise::attribute(s, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, advise::kKindOverlapDeficit);
  EXPECT_EQ(out[0].device, "gpu0");
  EXPECT_DOUBLE_EQ(out[0].saving_s, 3.0);  // 4 - 1 exposed
  EXPECT_EQ(out[0].severity, advise::kSeverityWarning);
}

TEST(AdviseAttribution, ServeShedPressureAndBreakerFlap) {
  advise::ServeAudit run;
  run.makespan_s = 10.0;
  run.shed_transitions = 2;
  advise::ServeTenantRow t;
  t.name = "poison";
  t.failed = 3;
  run.tenants.push_back(t);
  advise::ServeAuditEvent up, down, open1, open2;
  up.kind = "shed-level";
  up.time_s = 2.0;
  up.detail = "0 -> 1";
  down.kind = "shed-level";
  down.time_s = 5.0;
  down.detail = "1 -> 0";
  open1.kind = "breaker-open";
  open1.tenant = "poison";
  open2 = open1;
  run.events = {up, down, open1, open2};

  advise::Session s;
  s.serve_runs.push_back(run);
  const auto out = advise::attribute(s, {});
  ASSERT_EQ(out.size(), 2u);
  // Shed pressure integrates [2, 5) = 3s at level >= 1.
  EXPECT_EQ(out[0].kind, advise::kKindShedPressure);
  EXPECT_DOUBLE_EQ(out[0].saving_s, 3.0);
  EXPECT_EQ(out[0].severity, advise::kSeverityWarning);  // >= 25% of 10s
  // Two opens on one tenant flap the breaker.
  EXPECT_EQ(out[1].kind, advise::kKindBreakerFlap);
  EXPECT_EQ(out[1].tenant, "poison");
  EXPECT_EQ(out[1].severity, advise::kSeverityWarning);
}

TEST(AdviseAttribution, CrossRunMergeMarksPersistenceAndMeansSavings) {
  advise::Session s;
  s.runs.push_back(biased_run());
  s.runs.push_back(biased_run());
  const auto out = advise::attribute(s, {});
  ASSERT_FALSE(out.empty());
  const advise::Inspection& top = out[0];
  EXPECT_EQ(top.kind, advise::kKindUnderPrediction);
  EXPECT_EQ(top.runs_present, 2);
  EXPECT_EQ(top.runs_total, 2);
  EXPECT_TRUE(top.persistent);
  EXPECT_DOUBLE_EQ(top.saving_s, 7.0);  // mean of two identical savings
  EXPECT_NE(top.evidence.find("persistent across 2 runs"), std::string::npos);
}

TEST(AdviseAttribution, OneOffFindingIsNotPersistent) {
  advise::RunAudit clean = biased_run();
  clean.decisions = {assigned("fast", 1.0, 1.0), assigned("ok", 1.0, 1.0),
                     assigned("slow", 1.0, 1.0)};
  for (auto& d : clean.devices) d.finish_time_s = 4.0;
  advise::Session s;
  s.runs.push_back(biased_run());
  s.runs.push_back(clean);
  const auto out = advise::attribute(s, {});
  const advise::Inspection* under = nullptr;
  for (const auto& f : out) {
    if (f.kind == advise::kKindUnderPrediction) under = &f;
  }
  ASSERT_NE(under, nullptr);
  EXPECT_EQ(under->runs_present, 1);
  EXPECT_EQ(under->runs_total, 2);
  EXPECT_FALSE(under->persistent);
  EXPECT_DOUBLE_EQ(under->saving_s, 7.0);  // mean over firing runs only
  EXPECT_NE(under->evidence.find("seen in 1 of 2 runs"), std::string::npos);
}

// ---- rendering and diff --------------------------------------------------

TEST(AdviseReport, JsonRenderingIsDeterministic) {
  advise::Session s;
  s.runs.push_back(biased_run());
  const auto findings = advise::attribute(s, {});
  std::string first;
  for (int i = 0; i < 10; ++i) {
    std::ostringstream os;
    advise::write_report_json(findings, os);
    if (i == 0) {
      first = os.str();
    } else {
      EXPECT_EQ(os.str(), first);
    }
  }
  // And the rendered document is valid JSON with the rostered keys.
  const Json doc = Json::parse(first);
  EXPECT_DOUBLE_EQ(doc.number_or(advise::kReportVersionKey, 0.0), 1.0);
  ASSERT_NE(doc.find(advise::kFindingsKey), nullptr);
  EXPECT_EQ(doc.find(advise::kFindingsKey)->array().size(), 3u);
}

TEST(AdviseDiff, DirectionAwareRegressionsAndChanges) {
  const Json before = Json::parse(
      R"({"bench": "engine", "results": [)"
      R"({"name": "s1", "events_per_sec": 100.0, "total_time_s": 2.0}]})");
  const Json worse = Json::parse(
      R"({"bench": "engine", "results": [)"
      R"({"name": "s1", "events_per_sec": 50.0, "total_time_s": 4.0}]})");
  const advise::DiffResult r = advise::diff_artifacts(before, worse, 0.15);
  ASSERT_EQ(r.regressions.size(), 2u);
  EXPECT_EQ(r.regressions[0].key, "results/s1/events_per_sec");
  EXPECT_DOUBLE_EQ(r.regressions[0].rel, -0.5);
  EXPECT_EQ(r.regressions[1].key, "results/s1/total_time_s");

  // The same moves in the good direction are changes, not regressions.
  const advise::DiffResult g = advise::diff_artifacts(worse, before, 0.15);
  EXPECT_TRUE(g.regressions.empty());
  EXPECT_EQ(g.changes.size(), 2u);
}

TEST(AdviseDiff, ToleranceAndIdentity) {
  const Json a = Json::parse(
      R"({"bench": "engine", "results": [)"
      R"({"name": "s1", "events_per_sec": 100.0}]})");
  const Json b = Json::parse(
      R"({"bench": "engine", "results": [)"
      R"({"name": "s1", "events_per_sec": 90.0}]})");
  EXPECT_TRUE(advise::diff_artifacts(a, a, 0.0).identical());
  EXPECT_TRUE(advise::diff_artifacts(a, b, 0.15).identical());
  EXPECT_EQ(advise::diff_artifacts(a, b, 0.05).regressions.size(), 1u);
}

TEST(AdviseDiff, LabelSetsDisambiguateSharedMetricNames) {
  // Metrics exports repeat one metric name across many label sets; the
  // flatten key must carry the labels or same-named rows collide and a
  // self-diff comes back dirty (cross-device value "mismatches").
  const Json a = Json::parse(
      R"({"homp_metrics_version": 1, "metrics": [)"
      R"({"name": "homp_device_finish_seconds", "labels": "device=\"d0\"", "type": "gauge", "value": 1.0},)"
      R"({"name": "homp_device_finish_seconds", "labels": "device=\"d1\"", "type": "gauge", "value": 8.0}]})");
  EXPECT_TRUE(advise::diff_artifacts(a, a, 0.0).identical());

  const Json b = Json::parse(
      R"({"homp_metrics_version": 1, "metrics": [)"
      R"({"name": "homp_device_finish_seconds", "labels": "device=\"d0\"", "type": "gauge", "value": 1.0},)"
      R"({"name": "homp_device_finish_seconds", "labels": "device=\"d1\"", "type": "gauge", "value": 16.0}]})");
  const advise::DiffResult r = advise::diff_artifacts(a, b, 0.15);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].key,
            "metrics/homp_device_finish_seconds{device=\"d1\"}/value");
  EXPECT_DOUBLE_EQ(r.regressions[0].before, 8.0);
  EXPECT_DOUBLE_EQ(r.regressions[0].after, 16.0);
}

TEST(AdviseDiff, TracesCompareByRowsAndLongerMakespanRegresses) {
  const char* fast = R"([
    {"ph": "X", "name": "compute a", "pid": 0, "tid": 0, "ts": 0, "dur": 4},
    {"ph": "X", "name": "compute b", "pid": 0, "tid": 1, "ts": 0, "dur": 4}])";
  const char* slow = R"([
    {"ph": "X", "name": "compute a", "pid": 0, "tid": 0, "ts": 0, "dur": 4},
    {"ph": "X", "name": "compute b", "pid": 0, "tid": 1, "ts": 0, "dur": 8}])";
  EXPECT_TRUE(
      advise::diff_artifacts(Json::parse(fast), Json::parse(fast), 0.0)
          .identical());
  const advise::DiffResult r =
      advise::diff_artifacts(Json::parse(fast), Json::parse(slow), 0.15);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].key, advise::kRowMakespan);
  EXPECT_DOUBLE_EQ(r.regressions[0].rel, 1.0);
  // The critical device moved from slot 0 to slot 1: its text row shows
  // up as a key on each side.
  bool left = false, right = false;
  for (const advise::DiffEntry& e : r.changes) {
    left = left || (e.only_in == 'A' && e.key == "critical_device=slot 0");
    right = right || (e.only_in == 'B' && e.key == "critical_device=slot 1");
  }
  EXPECT_TRUE(left && right);
  EXPECT_THROW(
      advise::diff_artifacts(Json::parse("[]"), Json::parse(fast), 0.15),
      ConfigError);
}

TEST(AdviseDiff, MixedKindsThrow) {
  const Json bench = Json::parse(R"({"bench": "engine"})");
  const Json metrics = Json::parse(R"({"homp_metrics_version": 1})");
  EXPECT_THROW(advise::diff_artifacts(bench, metrics, 0.15), ConfigError);
}

}  // namespace
