#ifndef HOMP_PERFBENCH_WORKLOADS_H
#define HOMP_PERFBENCH_WORKLOADS_H

/// \file workloads.h
/// The four seeded workloads (README.md explains why each exists). Every
/// workload is a closed loop on the host: the next call into libhomp
/// starts when the previous one returns. Inputs are a pure function of
/// the seed; the loop runs whole cycles of them until its time is up.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "layers.h"
#include "spans.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one unit of `ops_per_s` is: "offload", "job" or "scenario".
  virtual const char* unit() const = 0;

  /// Build everything the timed loop needs, replacing any earlier state.
  /// The caller times it (setup_s) and may call it several times.
  virtual void setup() = 0;

  /// Closed loop of whole input cycles until `seconds` of wall time have
  /// passed (at least one cycle). Spans go to `rec` when it is non-null.
  virtual void run(double seconds, SpanRecorder* rec, LoopStats& st) = 0;

  /// The workload's own end-to-end figures (offloads_per_s, data_gb_s,
  /// jobs_per_s, ...) plus its virtual-time figures, for the log.
  virtual std::vector<Figure> figures(const LoopStats& st) const = 0;

  /// Digest of the virtual-time results of the first cycle after setup:
  /// must repeat exactly for one build and seed.
  virtual std::uint64_t virtual_digest() const = 0;

  /// Inputs of the per-layer probes, derived from this workload's seed.
  /// The returned pointers stay valid while the workload lives.
  virtual LayerInputs layer_inputs() = 0;
};

/// Throws std::invalid_argument for an unknown name. Scratch files (fuzz
/// repros) go under `out_dir`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir);

/// Outcome of one serve-soak round (also the serve layer probe).
struct SoakOutcome {
  double run_s = 0.0;          ///< host seconds inside OffloadServer::run
  /// The same run cut at every submission: host ms from the run's start
  /// to the first submission, between consecutive ones, and from the
  /// last to the run's end. Same seed, same parts.
  std::vector<double> parts_ms;
  double submit_s = 0.0;       ///< host seconds inside submit (traced only)
  std::size_t submits = 0;
  std::size_t submitted = 0, admitted = 0, completed = 0, failed = 0,
              cancelled = 0, rejected = 0;
  std::size_t engine_events = 0;
  std::uint64_t allocations = 0;  ///< operator new calls inside run()
  double gold_p99_s = 0.0;
  std::uint64_t digest = 0;       ///< of the summary JSON
  std::vector<std::string> wrong;  ///< breaches: validate() + leftovers

  std::size_t terminal() const { return completed + failed + cancelled; }
};

/// One open-loop soak on the "full" machine with the bench_traffic --soak
/// tenant mix at 2x pool capacity and at least `min_jobs` submissions.
SoakOutcome soak_round(std::uint64_t seed, std::size_t min_jobs,
                       SpanRecorder* rec);

}  // namespace perfbench

#endif  // HOMP_PERFBENCH_WORKLOADS_H
