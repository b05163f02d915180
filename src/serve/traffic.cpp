#include "serve/traffic.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace homp::serve {

TrafficGen::TrafficGen(OffloadServer& server, std::vector<TenantLoad> loads)
    : server_(server) {
  if (loads.empty()) throw ConfigError("TrafficGen needs at least one load");
  for (auto& l : loads) {
    if (l.size_min <= 0 || l.size_max < l.size_min) {
      throw ConfigError("TenantLoad sizes must satisfy 0 < size_min <= size_max");
    }
    if (!(l.tail_alpha > 0.0)) {
      throw ConfigError("TenantLoad::tail_alpha must be > 0");
    }
    if (!l.closed_loop && !(l.arrival_rate_hz > 0.0)) {
      throw ConfigError("open-loop TenantLoad needs arrival_rate_hz > 0");
    }
    if (l.closed_loop && l.population < 1) {
      throw ConfigError("closed-loop TenantLoad needs population >= 1");
    }
    Stream s{l, Prng(l.seed), 0};
    streams_.push_back(std::move(s));
  }
  gen_ = server_.engine().new_generation();
}

TrafficGen::~TrafficGen() { server_.engine().retire_generation(gen_); }

long long TrafficGen::draw_size(Stream& s) {
  const auto& l = s.load;
  if (l.size_min == l.size_max) return l.size_min;
  // Bounded Pareto on [size_min, size_max] with tail index alpha:
  // inverse-CDF of the truncated power law.
  const double xm = static_cast<double>(l.size_min);
  const double xM = static_cast<double>(l.size_max);
  const double a = l.tail_alpha;
  const double u = s.prng.next_double();
  const double x =
      xm / std::pow(1.0 - u * (1.0 - std::pow(xm / xM, a)), 1.0 / a);
  return std::clamp(static_cast<long long>(x), l.size_min, l.size_max);
}

double TrafficGen::draw_interarrival(Stream& s) {
  // Exponential interarrivals -> Poisson process.
  const double u = s.prng.next_double();
  return -std::log(1.0 - u) / s.load.arrival_rate_hz;
}

void TrafficGen::start() {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    auto& s = streams_[i];
    if (s.load.closed_loop) {
      // Stagger the initial population by one engine tick each so the
      // opening dispatch order is well-defined but effectively
      // simultaneous.
      for (int p = 0; p < s.load.population; ++p) {
        server_.engine().schedule_after(
            0.0, [this, i] { closed_submit(i); }, gen_);
      }
    } else {
      const double dt = draw_interarrival(s);
      server_.engine().schedule_after(dt, [this, i] { open_arrival(i); },
                                      gen_);
    }
  }
}

void TrafficGen::open_arrival(std::size_t idx) {
  auto& s = streams_[idx];
  const double now = server_.engine().now();
  if (now > s.load.duration_s ||
      (s.load.max_jobs > 0 && s.sent >= s.load.max_jobs)) {
    return;
  }
  JobSpec job = s.load.job;
  job.n = draw_size(s);
  ++s.sent;
  ++submitted_;
  // Open loop: rejections are dropped — shed/reject counts under
  // overload are precisely the signal bench_traffic measures.
  server_.submit(s.load.tenant.name, job);
  const double dt = draw_interarrival(s);
  server_.engine().schedule_after(dt, [this, idx] { open_arrival(idx); },
                                  gen_);
}

void TrafficGen::closed_submit(std::size_t idx) {
  auto& s = streams_[idx];
  const double now = server_.engine().now();
  if (now > s.load.duration_s ||
      (s.load.max_jobs > 0 && s.sent >= s.load.max_jobs)) {
    return;
  }
  JobSpec job = s.load.job;
  job.n = draw_size(s);
  ++s.sent;
  ++submitted_;
  const SubmitResult r = server_.submit(
      s.load.tenant.name, job,
      [this, idx](const JobRecord&) {
        const double think = streams_[idx].load.think_s;
        server_.engine().schedule_after(
            std::max(think, 0.0), [this, idx] { closed_submit(idx); }, gen_);
      });
  if (!r.accepted()) {
    // Back off and re-offer: a closed-loop client keeps its population
    // constant, honouring the server's retry-after hint.
    const double wait =
        std::max({s.load.think_s, r.retry_after_s, 1e-4});
    server_.engine().schedule_after(
        wait, [this, idx] { closed_submit(idx); }, gen_);
  }
}

}  // namespace homp::serve
