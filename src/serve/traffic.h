#ifndef HOMP_SERVE_TRAFFIC_H
#define HOMP_SERVE_TRAFFIC_H

/// \file traffic.h
/// Deterministic multi-tenant traffic generation for the offload server
/// (docs/SERVING.md): per-tenant open-loop (Poisson arrivals) or
/// closed-loop (fixed population with think time) job streams with
/// heavy-tailed (bounded-Pareto) problem sizes, driven entirely in
/// virtual time on the server's shared engine. Same seeds => the same
/// arrival sequence => the same serving run, byte for byte.

#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace homp::serve {

/// One tenant's workload shape.
struct TenantLoad {
  TenantSpec tenant;
  /// Job template; `n` is overridden by the per-arrival size draw.
  JobSpec job;

  /// false: open loop — Poisson arrivals at `arrival_rate_hz`,
  /// rejections are dropped (that is the overload signal being
  /// measured). true: closed loop — `population` outstanding jobs, each
  /// resubmitting `think_s` after completion; queue-full rejections
  /// retry after the server's retry-after hint.
  bool closed_loop = false;
  double arrival_rate_hz = 10.0;
  int population = 4;
  double think_s = 0.0;

  /// Bounded-Pareto problem-size distribution (heavy tail).
  long long size_min = 1 << 12;
  long long size_max = 1 << 16;
  double tail_alpha = 1.5;

  /// Stop submitting past this virtual time (jobs in flight complete).
  double duration_s = 1.0;
  /// Hard cap on submissions; 0 = duration-bound only.
  std::size_t max_jobs = 0;

  std::uint64_t seed = 1;
};

/// See file comment. start() schedules the first arrivals; the caller
/// then drives server.run(). The generator must outlive the run.
class TrafficGen {
 public:
  TrafficGen(OffloadServer& server, std::vector<TenantLoad> loads);
  ~TrafficGen();  // retires the generation on the server's engine

  TrafficGen(const TrafficGen&) = delete;
  TrafficGen& operator=(const TrafficGen&) = delete;

  /// Schedule every tenant's opening arrivals on the server's engine.
  void start();

  /// Jobs submitted so far (accepted or not).
  std::size_t submitted() const noexcept { return submitted_; }

 private:
  struct Stream {
    TenantLoad load;
    Prng prng;
    std::size_t sent = 0;
  };

  long long draw_size(Stream& s);
  double draw_interarrival(Stream& s);
  void open_arrival(std::size_t idx);
  void closed_submit(std::size_t idx);

  OffloadServer& server_;
  std::vector<Stream> streams_;
  std::size_t submitted_ = 0;
  /// Generation tag for every timer this generator arms (homp-lint
  /// HL006): all pending arrivals are cancellable as one unit, and the
  /// destructor retires the tag, keeping `--soak` flat.
  sim::Engine::GenTag gen_ = 0;
};

}  // namespace homp::serve

#endif  // HOMP_SERVE_TRAFFIC_H
