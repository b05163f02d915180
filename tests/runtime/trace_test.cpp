// Offload tracing and the chrome://tracing exporter.

#include "runtime/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "kernels/axpy.h"
#include "kernels/matmul.h"
#include "machine/profiles.h"
#include "runtime/runtime.h"

namespace homp::rt {
namespace {

OffloadResult traced_run(bool collect) {
  Runtime rt{mach::testing_machine(2)};
  kern::AxpyCase c(100'000, /*materialize=*/false);
  OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.execute_bodies = false;
  o.collect_trace = collect;
  auto maps = c.maps();
  auto kernel = c.kernel();
  return rt.offload(kernel, maps, o);
}

TEST(Trace, DisabledByDefault) {
  EXPECT_TRUE(traced_run(false).trace.empty());
}

TEST(Trace, SpansCoverEveryChunk) {
  auto res = traced_run(true);
  ASSERT_FALSE(res.trace.empty());
  std::size_t computes = 0;
  for (const auto& s : res.trace) {
    EXPECT_GE(s.t1, s.t0);
    EXPECT_LE(s.t1, res.total_time + 1e-12);
    EXPECT_GE(s.slot, 0);
    EXPECT_LT(s.slot, 2);
    if (s.phase == Phase::kCompute) ++computes;
  }
  EXPECT_EQ(computes, res.chunks_issued);
}

TEST(Trace, ComputeSpansDoNotOverlapPerDevice) {
  auto res = traced_run(true);
  for (int slot = 0; slot < 2; ++slot) {
    std::vector<std::pair<double, double>> spans;
    for (const auto& s : res.trace) {
      if (s.slot == slot && s.phase == Phase::kCompute) {
        spans.emplace_back(s.t0, s.t1);
      }
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12)
          << "device " << slot << " computes two chunks at once";
    }
  }
}

TEST(Trace, TransfersOverlapComputeUnderDynamicChunking) {
  // The double-buffering claim made visible: some input transfer span
  // must intersect a compute span on the same device. Needs per-chunk
  // compute longer than the chunk-acquisition delay, so use matmul.
  Runtime rt{mach::testing_machine(2)};
  kern::MatMulCase c(512, /*materialize=*/false);
  OffloadOptions o;
  o.device_ids = {1, 2};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.execute_bodies = false;
  o.collect_trace = true;
  auto maps = c.maps();
  auto kernel = c.kernel();
  auto res = rt.offload(kernel, maps, o);
  bool overlap = false;
  for (const auto& in : res.trace) {
    if (in.phase != Phase::kCopyIn) continue;
    for (const auto& comp : res.trace) {
      if (comp.phase != Phase::kCompute || comp.slot != in.slot) continue;
      if (in.t0 < comp.t1 && comp.t0 < in.t1) overlap = true;
    }
  }
  EXPECT_TRUE(overlap);
}

TEST(Trace, ChromeJsonIsWellFormedish) {
  auto res = traced_run(true);
  std::ostringstream os;
  write_chrome_trace(res.trace, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("ph": "X")"), std::string::npos);
  EXPECT_NE(json.find("copy-in"), std::string::npos);
  EXPECT_NE(json.find("compute"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Balanced braces (cheap structural check).
  long depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Trace, FaultAndRecoveryMarkersBecomeInstantEvents) {
  // A scripted hang yields fault + watchdog instant events alongside the
  // spans when the whole result is serialized.
  Runtime rt{mach::testing_machine(3)};
  kern::AxpyCase c(50'000, /*materialize=*/false);
  OffloadOptions o;
  o.device_ids = {1, 2, 3};
  o.sched.kind = sched::AlgorithmKind::kDynamic;
  o.execute_bodies = false;
  o.collect_trace = true;
  sim::ScriptedFault hang;
  hang.device_id = 2;
  hang.kind = sim::FaultKind::kHang;
  hang.op = 0;
  o.fault.scripted.push_back(hang);
  auto maps = c.maps();
  auto kernel = c.kernel();
  auto res = rt.offload(kernel, maps, o);
  ASSERT_FALSE(res.fault_events.empty());
  ASSERT_FALSE(res.recovery_events.empty());

  std::ostringstream os;
  write_chrome_trace(res, os);
  const std::string json = os.str();
  EXPECT_NE(json.find(R"("ph": "i")"), std::string::npos);
  EXPECT_NE(json.find(R"("cat": "fault")"), std::string::npos);
  EXPECT_NE(json.find(R"("cat": "recovery")"), std::string::npos);
  EXPECT_NE(json.find("fault: hang"), std::string::npos);
  EXPECT_NE(json.find("watchdog-fired"), std::string::npos);
  // The span-only overload stays marker-free.
  std::ostringstream spans_only;
  write_chrome_trace(res.trace, spans_only);
  EXPECT_EQ(spans_only.str().find(R"("ph": "i")"), std::string::npos);
  // Balanced braces across the mixed event stream.
  long depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Trace, CounterTracksAndDecisionInstants) {
  auto res = traced_run(true);
  ASSERT_FALSE(res.counters.empty());
  ASSERT_FALSE(res.decisions.empty());
  std::ostringstream os;
  write_chrome_trace(res, os);
  const std::string json = os.str();
  // Counter rows carry device-qualified track names.
  EXPECT_NE(json.find(R"("ph": "C")"), std::string::npos);
  EXPECT_NE(json.find("queue depth ("), std::string::npos);
  EXPECT_NE(json.find("committed iterations ("), std::string::npos);
  // Decision instants with the prediction inputs in args.
  EXPECT_NE(json.find(R"("cat": "decision")"), std::string::npos);
  EXPECT_NE(json.find("decision: chunk-assigned"), std::string::npos);
  EXPECT_NE(json.find(R"("model1_s": )"), std::string::npos);
  EXPECT_NE(json.find(R"("actual_s": )"), std::string::npos);
  // The span-only overload stays counter- and decision-free.
  std::ostringstream spans_only;
  write_chrome_trace(res.trace, spans_only);
  EXPECT_EQ(spans_only.str().find(R"("ph": "C")"), std::string::npos);
  EXPECT_EQ(spans_only.str().find(R"("cat": "decision")"),
            std::string::npos);
}

TEST(Trace, AdversarialLabelsAreFullyEscaped) {
  // Labels carrying every JSON-hostile byte class must neither break the
  // document structure nor leak raw control characters.
  OffloadResult res;
  TraceSpan s;
  s.slot = 0;
  s.device = "dev\"\\\n\t\x01";
  s.phase = Phase::kCompute;
  s.t0 = 0.0;
  s.t1 = 1e-6;
  s.label = "quote\" backslash\\ nl\n cr\r tab\t bell\x07 esc\x1b";
  res.trace.push_back(s);
  std::ostringstream os;
  write_chrome_trace(res, os);
  const std::string json = os.str();
  // No raw control characters survive in the document.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte " << int(c) << " leaked into the JSON";
  }
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("\\u001b"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  // Quotes stay balanced: every '"' is structural or escaped, so the
  // total count of unescaped quotes is even.
  long quotes = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0);
  // (tests/advise/advise_test.cpp decodes the same kind of labels back
  // to their original bytes with homp-advise's reader.)
}

TEST(Trace, FileWriterValidates) {
  auto res = traced_run(false);
  EXPECT_THROW(write_chrome_trace_file(res, "/tmp/homp_trace.json"),
               ConfigError);
  res = traced_run(true);
  EXPECT_NO_THROW(write_chrome_trace_file(res, "/tmp/homp_trace.json"));
  EXPECT_THROW(write_chrome_trace_file(res, "/nonexistent/dir/x.json"),
               ConfigError);
}

}  // namespace
}  // namespace homp::rt
