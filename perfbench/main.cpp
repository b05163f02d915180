// Host-time benchmark of libhomp (README.md in this directory).
//
// One invocation runs one seeded workload. Untraced (--trace 0) it
// prints the end-to-end metrics; traced (--trace 1) it runs the workload
// again with spans around every layer call, then the per-layer probes,
// and prints the per-layer metrics. Either way the last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "layers.h"
#include "sim/dsan.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {sim-sweep|real-data|serve-soak|"
               "fuzz-corpus} --seed N --seconds S --trace {0|1}\n"
               "          [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::vector<std::pair<std::string, std::string>> manifest(const Args& a) {
  const auto mib = [](long bytes) {
    return bytes > 0 ? std::to_string(bytes / (1024 * 1024)) + " MiB"
                     : std::string("unknown");
  };
  return {
      {"build_type", PERFBENCH_BUILD_TYPE},
#ifdef __OPTIMIZE__
      {"optimized", "yes"},
#else
      {"optimized", "NO"},
#endif
      {"homp_dsan", homp::sim::dsan::compiled_in() ? "on" : "off"},
      {"compiler", std::string(PERFBENCH_CXX_ID) + " (" + __VERSION__ + ")"},
      {"git_sha", a.git_sha},
      {"source_digest", a.source_digest},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"l2_per_core", mib(sysconf(_SC_LEVEL2_CACHE_SIZE))},
      {"l3", mib(sysconf(_SC_LEVEL3_CACHE_SIZE))},
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"seconds", std::to_string(a.seconds)},
      {"trace", a.trace ? "1" : "0"},
  };
}

/// Peak resident set of this process image: VmHWM from /proc/self/status.
/// (getrusage's ru_maxrss also counts the launching process's peak, since
/// Linux keeps it across execve; it is the fallback.)
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_result(const LoopStats& st, const std::vector<Figure>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              st.failed == 0 ? "true" : "false", st.attempted, st.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  const auto meta = manifest(a);
  for (const auto& [k, v] : meta) {
    std::printf("manifest.%s: %s\n", k.c_str(), v.c_str());
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "\n*** WARNING: homp_perfbench was built WITHOUT optimization "
               "(build type %s). Host times are not comparable. ***\n\n",
               PERFBENCH_BUILD_TYPE);
  std::printf("WARNING: unoptimized build; host times are not comparable\n");
#endif
  std::filesystem::create_directories(a.out_dir);

  auto w = make_workload(a.workload, a.seed, a.out_dir);

  LoopStats st;
  std::vector<double> setup_s;
  std::vector<Figure> metrics;
  std::vector<Figure> figures;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
  };
  if (!a.trace) {
    // The run is split into segments, each after a complete set-up:
    // setup_s is the median of those set-ups, and both it and the loop's
    // samples are spread over the whole run, so one burst of host
    // interference cannot decide either.
    constexpr int kSegments = 5;
    for (int i = 0; i < kSegments; ++i) {
      timed_setup();
      w->run(a.seconds / kSegments, nullptr, st);
    }
    figures = w->figures(st);
    const std::vector<double> lat = st.unit_ms();
    const double p90 = quantile(lat, 0.9);
    std::printf("op: one %s; %zu corpus items x %zu passes; latency = each "
                "item's fastest ms per %s: p50 %.6g ms, p90 %.6g ms with %zu "
                "items above it\n",
                w->unit(), st.items.size(), st.passes, w->unit(),
                quantile(lat, 0.5), p90,
                static_cast<std::size_t>(
                    std::count_if(lat.begin(), lat.end(),
                                  [p90](double x) { return x > p90; })));
    metrics = {
        {"ops_per_s", st.rate(), "1/s"},
        {"op_p90_ms", p90, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    timed_setup();
    LoopStats plain, traced, probes;
    w->run(a.seconds / 2, nullptr, plain);
    figures = w->figures(plain);
    SpanRecorder rec;
    w->run(a.seconds / 2, &rec, traced);
    std::printf("tracing overhead: %s/s untraced %.6g, traced %.6g "
                "(%+.2f%%)\n",
                w->unit(), plain.rate(), traced.rate(),
                100.0 * (plain.rate() / traced.rate() - 1.0));
    metrics = run_layer_probes(w->layer_inputs(), rec, probes);
    for (const auto& f : figures) {
      if (f.name != "data_gb_s") continue;
      for (const auto& m : metrics) {
        if (m.name == "host.memcpy_gb_s") {
          std::printf("data_gb_s / host.memcpy_gb_s = %.4f\n",
                      f.value / m.value);
        }
      }
    }
    std::printf("self time by layer (ms, traced loop + probes; %zu spans):\n",
                rec.size());
    for (const auto& [layer, ms] : rec.self_ms_by_layer()) {
      std::printf("  %-10s %12.3f\n", layer.c_str(), ms);
    }
    const std::string path = a.out_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    if (!rec.write_chrome_trace(path, meta)) {
      throw std::runtime_error("cannot write " + path);
    }
    std::printf("chrome trace: %s\n", path.c_str());
    st.merge_checks(plain);
    st.merge_checks(traced);
    st.merge_checks(probes);
  }

  for (const auto& f : figures) {
    std::printf("%s.%s: %.6g %s\n", a.workload.c_str(), f.name.c_str(),
                f.value, f.unit.c_str());
  }
  std::printf("setup_s samples:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nvirtual digest: %s\n", hex64(w->virtual_digest()).c_str());
  std::printf("fail_ratio: %lld / %lld\n", st.failed, st.attempted);
  for (const auto& f : st.failures) std::printf("WRONG: %s\n", f.c_str());
  print_result(st, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage(argv[0]);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "homp_perfbench: %s\n", e.what());
    return 1;
  }
}
