#ifndef HOMP_PERFBENCH_BENCH_UTIL_H
#define HOMP_PERFBENCH_BENCH_UTIL_H

/// \file bench_util.h
/// Small helpers shared by the benchmark's translation units: the host
/// clock, quantiles, the virtual-time digest and the per-run tallies.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// Order-sensitive 64-bit digest over virtual-time outputs: two runs of
/// one build with one seed must agree on it bit for bit.
class Digest {
 public:
  void add(std::uint64_t v) noexcept { h_ = homp::mix64(h_ ^ v); }
  void add(double v) noexcept {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    add(b);
  }
  void add(const std::string& s) noexcept {
    add(homp::checksum_bytes(homp::ChecksumKind::kMix64, s.data(), s.size()));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ull;
};

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Host times of one timed loop. A workload's inputs form a fixed corpus
/// of items; every pass runs each item once. Interference from other
/// tenants of the host only ever adds time, in bursts that can slow this
/// simulator by 40%, so the figures use each item's fastest pass: the
/// estimate such bursts disturb least (README.md, "Why host time here is
/// noisy").
struct LoopStats {
  /// One corpus item. An item may be timed in parts (a serve-soak round,
  /// between consecutive submissions); each part keeps its fastest pass,
  /// and the item's time is their sum.
  struct Item {
    double units = 0.0;             ///< work units one run completes
    std::vector<double> part_best;  ///< fastest ms of each part so far

    double best_ms() const {
      double t = 0.0;
      for (const double p : part_best) t += p;
      return t;
    }
  };
  std::vector<Item> items;  ///< indexed by the workload's item id
  std::size_t passes = 0;
  long long attempted = 0;  ///< operations whose result was checked
  long long failed = 0;     ///< wrong results (see README.md)
  std::vector<std::string> failures;  ///< first few, for the log

  /// One pass of item `id`, timed in `parts_ms` (same count every pass).
  /// Only the fastest parts are kept, so the benchmark's own memory does
  /// not grow with the number of passes (peak_rss_mb measures libhomp).
  void record(std::size_t id, const std::vector<double>& parts_ms,
              double units) {
    if (items.size() <= id) items.resize(id + 1);
    Item& it = items[id];
    it.units = units;
    if (it.part_best.size() != parts_ms.size()) {
      it.part_best = parts_ms;
    } else {
      for (std::size_t i = 0; i < parts_ms.size(); ++i) {
        it.part_best[i] = std::min(it.part_best[i], parts_ms[i]);
      }
    }
  }

  void record(std::size_t id, double ms, double units) {
    record(id, std::vector<double>{ms}, units);
  }

  /// Units per host second of one pass with every item at its fastest.
  double rate() const {
    double units = 0.0, ms = 0.0;
    for (const Item& it : items) {
      units += it.units;
      ms += it.best_ms();
    }
    return ms > 0.0 ? units * 1e3 / ms : 0.0;
  }

  /// Each item's fastest milliseconds per unit: the latency sample set.
  std::vector<double> unit_ms() const {
    std::vector<double> out;
    for (const Item& it : items) {
      if (it.units > 0.0) out.push_back(it.best_ms() / it.units);
    }
    return out;
  }

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }

  /// Fold another loop's correctness tallies into this one.
  void merge_checks(const LoopStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& f : o.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

/// Whole passes a run makes in total, however short its time.
inline constexpr std::size_t kMinPasses = 3;

/// Paces a timed loop in whole passes: at least one, and at least
/// kMinPasses counting the `done` passes of earlier loops over the same
/// LoopStats; beyond that, another only while a pass as long as the
/// previous one still ends within `seconds`.
class PassClock {
 public:
  PassClock(double seconds, std::size_t& done)
      : seconds_(seconds), done_(done), start_(Clock::now()),
        pass_start_(start_) {}

  /// Call before each pass; false when the loop should stop.
  bool next() {
    const auto now = Clock::now();
    const double last =
        std::chrono::duration<double>(now - pass_start_).count();
    pass_start_ = now;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    if (started_) ++done_;  // the pass that just ended
    if (started_ && done_ >= kMinPasses && elapsed + last > seconds_) {
      return false;
    }
    started_ = true;
    return true;
  }

 private:
  double seconds_;
  std::size_t& done_;
  Clock::time_point start_;
  Clock::time_point pass_start_;
  bool started_ = false;
};

/// One named figure with its unit, as printed.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench

#endif  // HOMP_PERFBENCH_BENCH_UTIL_H
