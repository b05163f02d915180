#ifndef HOMP_PERFBENCH_SPANS_H
#define HOMP_PERFBENCH_SPANS_H

/// \file spans.h
/// Host-time spans recorded by the benchmark's own code around each call
/// into a libhomp layer (nothing inside src/ is instrumented). Spans are
/// kept in memory and written once, at exit, as a chrome://tracing file.
///
/// A span's layer is its name up to the first '.', which is the src/
/// module called ("runtime.offload" -> runtime). Self time is a span's
/// duration minus the part its child spans cover.

#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace perfbench {

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Open a span under the innermost open one; returns its id.
  int begin(const char* name);

  /// Close span `id`, which must be the innermost open one.
  void end(int id);

  /// Tag spans opened from now on with the workload operation index.
  void set_op(long long op) noexcept { op_ = op; }

  std::size_t size() const noexcept { return spans_.size(); }

  /// Self milliseconds per layer, largest first.
  std::vector<std::pair<std::string, double>> self_ms_by_layer() const;

  /// Chrome trace-event JSON: one complete ("X") event per span, with the
  /// span id, parent id and operation index in its args. `meta` is copied
  /// into the top-level "otherData" object as string pairs.
  bool write_chrome_trace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  struct Span {
    const char* name;
    double t0_us;
    double t1_us;
    double child_us;
    int parent;
    long long op;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  long long op_ = -1;
};

/// Compile-time switch around a SpanRecorder. Every member of
/// Tracer<false> is an empty inline function, so a loop instantiated
/// untraced contains no span code at all.
template <bool kOn>
class Tracer {
 public:
  explicit Tracer(SpanRecorder* rec) : rec_(rec) {}

  int begin(const char* name) {
    if constexpr (kOn) {
      return rec_->begin(name);
    } else {
      (void)name;
      return -1;
    }
  }

  void end(int id) {
    if constexpr (kOn) {
      rec_->end(id);
    } else {
      (void)id;
    }
  }

  void op(long long i) {
    if constexpr (kOn) {
      rec_->set_op(i);
    } else {
      (void)i;
    }
  }

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // HOMP_PERFBENCH_SPANS_H
