#include "workloads.h"

#include <cmath>
#include <deque>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "alloc_count.h"
#include "common/prng.h"
#include "common/stats.h"
#include "fuzz/driver.h"
#include "fuzz/scenario.h"
#include "fuzz/serve_scenario.h"
#include "fuzz/serve_driver.h"
#include "kernels/case.h"
#include "kernels/sum.h"
#include "machine/profiles.h"
#include "runtime/runtime.h"
#include "sched/algorithm.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace homp;

const std::string kMachineDir = "machines/";

/// A kernel case with its loop and map clauses built once, outside the
/// timed region. The case lives on the heap, so `kernel` and `maps` stay
/// valid when the slot moves.
struct CaseSlot {
  std::unique_ptr<kern::KernelCase> c;
  rt::LoopKernel kernel;
  std::vector<mem::MapSpec> maps;

  explicit CaseSlot(std::unique_ptr<kern::KernelCase> kc)
      : c(std::move(kc)), kernel(c->kernel()), maps(c->maps()) {}
};

/// One input of an offload workload.
struct OffloadItem {
  std::size_t machine = 0;
  std::size_t slot = 0;
  rt::OffloadOptions opts;
  bool large = false;  ///< real-data size class
};

void shuffle(std::vector<std::size_t>& v, Prng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Checks of one finished offload against the failure definition:
/// contained failure, iteration conservation and (with bodies on) the
/// kernel's sequential reference.
template <bool kOn>
void check_offload(const rt::OffloadResult& res, CaseSlot& cs, bool verify,
                   Tracer<kOn>& tr, LoopStats& st) {
  if (res.failed || res.cancelled) {
    st.fail(cs.kernel.name + ": offload failed: " + res.error);
    return;
  }
  if (res.total_iterations() != cs.kernel.iterations.size()) {
    st.fail(cs.kernel.name + ": committed " +
            std::to_string(res.total_iterations()) + " of " +
            std::to_string(cs.kernel.iterations.size()) + " iterations");
    return;
  }
  if (!verify) return;
  const int s = tr.begin("kernels.verify");
  if (auto* sum = dynamic_cast<kern::SumCase*>(cs.c.get())) {
    sum->set_result(res.reduction);
  }
  std::string why;
  if (!cs.c->verify(&why)) st.fail(why);
  tr.end(s);
}

/// sim-sweep and real-data: runtimes, cases and a fixed corpus of
/// offloads, run in a seeded order that is reshuffled every pass.
class OffloadWorkload : public Workload {
 public:
  OffloadWorkload(std::uint64_t seed, bool materialized)
      : seed_(seed), materialized_(materialized) {}

  const char* unit() const override { return "offload"; }

  void run(double seconds, SpanRecorder* rec, LoopStats& st) override {
    if (rec != nullptr) {
      loop<true>(seconds, rec, st);
    } else {
      loop<false>(seconds, rec, st);
    }
  }

  std::uint64_t virtual_digest() const override { return digest_.value(); }

 protected:
  /// Drop all state and re-seed the pass order.
  void reset() {
    items_.clear();
    cases_.clear();
    runtimes_.clear();
    first_pass_done_ = false;
    order_rng_ = Prng(mix64(seed_ ^ 0x0dde5ull));
    digest_ = Digest();
    makespans_.clear();
    bytes_ = 0.0;
    events_ = 0.0;
  }

  /// Seconds of one pass with every item at its fastest time.
  static double pass_seconds(const LoopStats& st) {
    return st.rate() > 0.0 ? static_cast<double>(st.items.size()) / st.rate()
                           : 0.0;
  }

  ProbeOffload probe_of(const OffloadItem& it) const {
    ProbeOffload p;
    p.machine = &runtimes_[it.machine].machine();
    p.kernel = &cases_[it.slot].kernel;
    p.maps = &cases_[it.slot].maps;
    p.opts = it.opts;
    return p;
  }

  template <bool kOn>
  void loop(double seconds, SpanRecorder* rec, LoopStats& st);

  std::uint64_t seed_;
  bool materialized_;
  std::vector<rt::Runtime> runtimes_;
  std::vector<CaseSlot> cases_;
  std::vector<OffloadItem> items_;
  Prng order_rng_;
  /// Virtual-time results of the first pass after setup.
  bool first_pass_done_ = false;
  Digest digest_;
  std::vector<double> makespans_;
  double bytes_ = 0.0;   ///< mapped bytes (bytes_in + bytes_out)
  double events_ = 0.0;  ///< engine events
};

template <bool kOn>
void OffloadWorkload::loop(double seconds, SpanRecorder* rec, LoopStats& st) {
  Tracer<kOn> tr(rec);
  std::vector<std::size_t> order(items_.size());
  for (PassClock clock(seconds, st.passes); clock.next();) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    shuffle(order, order_rng_);
    const bool first = !first_pass_done_;
    for (const std::size_t idx : order) {
      OffloadItem& it = items_[idx];
      CaseSlot& cs = cases_[it.slot];
      tr.op(st.attempted);
      // Bodies on: inputs are re-initialized and outputs verified against
      // the sequential reference in the first pass; later passes repeat
      // the identical offloads for timing only.
      if (materialized_ && first) {
        const int s = tr.begin("kernels.init");
        cs.c->init();
        tr.end(s);
      }
      rt::OffloadResult res;
      std::string error;
      const int s = tr.begin("runtime.offload");
      const auto t0 = Clock::now();
      try {
        res = runtimes_[it.machine].offload(cs.kernel, cs.maps, it.opts);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double dt = seconds_since(t0);
      tr.end(s);

      ++st.attempted;
      st.record(idx, dt * 1e3, 1.0);
      if (!error.empty()) {
        st.fail(cs.kernel.name + ": " + error);
        continue;
      }
      check_offload(res, cs, materialized_ && first, tr, st);
      if (first) {
        for (const auto& d : res.devices) bytes_ += d.bytes_in + d.bytes_out;
        events_ += static_cast<double>(res.engine_events);
        digest_.add(res.total_time);
        digest_.add(static_cast<std::uint64_t>(res.engine_events));
        digest_.add(static_cast<std::uint64_t>(res.chunks_issued));
        digest_.add(res.reduction);
        makespans_.push_back(res.total_time);
      }
    }
    first_pass_done_ = true;
  }
}

// ---------------------------------------------------------------- sim-sweep

/// Paper-scale pure simulation: every Table IV kernel at its paper size,
/// on three machines, under all ten algorithm families; CUTOFF 15% on two
/// of the four families that support it, chosen per (machine, kernel).
class SimSweep final : public OffloadWorkload {
 public:
  explicit SimSweep(std::uint64_t seed) : OffloadWorkload(seed, false) {}

  void setup() override {
    reset();
    for (const char* m : {"gpu4", "cpu-mic", "full"}) {
      runtimes_.push_back(
          rt::Runtime::from_machine_file(kMachineDir + m + ".ini"));
    }
    cases_.reserve(kern::all_kernel_names().size());
    for (const auto& k : kern::all_kernel_names()) {
      cases_.emplace_back(kern::make_case(k, kern::paper_size(k), false));
    }
    Prng rng(mix64(seed_ ^ 0xc0ffull));
    const sched::AlgorithmKind* every = sched::every_algorithm();
    for (std::size_t m = 0; m < runtimes_.size(); ++m) {
      for (std::size_t slot = 0; slot < cases_.size(); ++slot) {
        std::vector<std::size_t> cutoff_capable;
        for (int a = 0; a < sched::kNumEveryAlgorithm; ++a) {
          if (sched::algorithm_info(every[a]).supports_cutoff) {
            cutoff_capable.push_back(static_cast<std::size_t>(a));
          }
        }
        shuffle(cutoff_capable, rng);
        cutoff_capable.resize(cutoff_capable.size() / 2);
        for (int a = 0; a < sched::kNumEveryAlgorithm; ++a) {
          OffloadItem it;
          it.machine = m;
          it.slot = slot;
          it.opts.device_ids = runtimes_[m].all_devices();
          it.opts.sched.kind = every[a];
          for (const std::size_t c : cutoff_capable) {
            if (c == static_cast<std::size_t>(a)) {
              it.opts.sched.cutoff_ratio = 0.15;
            }
          }
          it.opts.execute_bodies = false;
          it.opts.noise_seed = mix64(seed_ + items_.size());
          items_.push_back(std::move(it));
        }
      }
    }
    // Warm-up: one pass over the whole corpus.
    for (const auto& it : items_) {
      const CaseSlot& cs = cases_[it.slot];
      (void)runtimes_[it.machine].offload(cs.kernel, cs.maps, it.opts);
    }
  }

  std::vector<Figure> figures(const LoopStats& st) const override {
    return {
        {"offloads_per_s", st.rate(), "1/s"},
        {"engine_events_per_s", events_ / pass_seconds(st), "1/s"},
        {"virtual_makespan_geomean_s", geomean(makespans_), "s(virtual)"},
        {"corpus_offloads", static_cast<double>(items_.size()), "count"},
    };
  }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.seed = seed_;
    for (const auto& it : items_) in.offloads.push_back(probe_of(it));
    in.fuzz_seeds = {seed_ * 3 + 1, seed_ * 3 + 2, seed_ * 3 + 3};
    return in;
  }
};

// ---------------------------------------------------------------- real-data

/// Per-array sizes of the two classes: <= 1 MiB (L2-resident) and
/// >= 64 MiB (beyond L2, inside a 300 MiB L3).
struct SizeClass {
  const char* kernel;
  long long small;
  long long large;
};

constexpr SizeClass kRealData[] = {
    {"axpy", 131072, 8388608},  // 1 MiB / 64 MiB per vector
    {"stencil2d", 362, 2897},   // 1.0 MB / 64.1 MiB per grid
    {"matvec", 362, 2897},      // 1.0 MB / 64.1 MiB matrix, FULL vector
    {"sum", 131072, 8388608},   // 1 MiB / 64 MiB reduction input
};

/// Materialized cases with bodies on, on gpu4's four K40s (discrete
/// copies over shared K80 lanes) and on cpu-mic (shared host memory
/// beside a discrete MIC), under SCHED_DYNAMIC and MODEL_2_AUTO. Each
/// (machine, kernel, algorithm) combination contributes three small
/// offloads, each (machine, kernel) one large: 48 small and 7 large.
/// integrity.always is on for 12 small and 2 large offloads.
class RealData final : public OffloadWorkload {
 public:
  explicit RealData(std::uint64_t seed) : OffloadWorkload(seed, true) {}

  void setup() override {
    reset();
    for (const char* m : {"gpu4", "cpu-mic"}) {
      runtimes_.push_back(
          rt::Runtime::from_machine_file(kMachineDir + m + ".ini"));
    }
    cases_.reserve(2 * std::size(kRealData));
    for (const auto& k : kRealData) {
      cases_.emplace_back(kern::make_case(k.kernel, k.small, true));
      cases_.emplace_back(kern::make_case(k.kernel, k.large, true));
    }
    const sched::AlgorithmKind algos[] = {sched::AlgorithmKind::kDynamic,
                                          sched::AlgorithmKind::kModel2Auto};
    std::size_t pair = 0;  // (machine, kernel) index
    for (std::size_t m = 0; m < runtimes_.size(); ++m) {
      const auto devices =
          m == 0 ? runtimes_[m].accelerators() : runtimes_[m].all_devices();
      const auto add = [&](std::size_t k, std::size_t a, bool large,
                           bool integrity) {
        OffloadItem it;
        it.machine = m;
        it.large = large;
        it.slot = 2 * k + (large ? 1 : 0);
        it.opts.device_ids = devices;
        it.opts.sched.kind = algos[a];
        it.opts.execute_bodies = true;
        it.opts.noise_seed = mix64(seed_ + items_.size());
        it.opts.integrity.always = integrity;
        items_.push_back(std::move(it));
      };
      for (std::size_t k = 0; k < std::size(kRealData); ++k, ++pair) {
        // Three small offloads per algorithm, integrity on every fourth;
        // one large, the algorithms alternating over the pairs, integrity
        // on the two pairs with (kernel + machine) % 4 == 0 (gpu4 axpy,
        // cpu-mic sum).
        for (std::size_t a = 0; a < 2; ++a) {
          for (std::size_t r = 0; r < 3; ++r) {
            add(k, a, false, (3 * a + r + pair) % 4 == 0);
          }
        }
        // cpu-mic's large stencil2d is left out: at 1.4-1.7 s per offload
        // (ArrayView-bound) it would halve the passes a run can make;
        // gpu4's large stencil2d stays.
        if (!(m == 1 && std::string(kRealData[k].kernel) == "stencil2d")) {
          add(k, pair % 2, true, (k + m) % 4 == 0);
        }
        // Warm-up: the small case once on each simulated machine.
        rt::OffloadOptions o;
        o.device_ids = devices;
        o.sched.kind = sched::AlgorithmKind::kDynamic;
        CaseSlot& cs = cases_[2 * k];
        (void)runtimes_[m].offload(cs.kernel, cs.maps, o);
      }
    }
  }

  std::vector<Figure> figures(const LoopStats& st) const override {
    std::vector<double> small, large;
    const auto ms = st.unit_ms();
    for (std::size_t i = 0; i < ms.size() && i < items_.size(); ++i) {
      (items_[i].large ? large : small).push_back(ms[i]);
    }
    return {
        {"offloads_per_s", st.rate(), "1/s"},
        {"data_gb_s", bytes_ / pass_seconds(st) / 1e9, "GB/s"},
        {"small_offload_p50_ms", median(small), "ms"},
        {"large_offload_p50_ms", median(large), "ms"},
        {"small_class_array_bytes", 1048576.0, "B"},
        {"large_class_array_bytes", 67108864.0, "B"},
    };
  }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.seed = seed_;
    // One small offload per (machine, kernel, algorithm), plus the large
    // ones on gpu4.
    std::size_t small_seen = 0;
    for (const OffloadItem& it : items_) {
      if (it.large ? it.machine == 0 : small_seen++ % 3 == 0) {
        in.offloads.push_back(probe_of(it));
      }
    }
    for (const auto& cs : cases_) in.data.push_back(&cs.maps);
    in.fuzz_seeds = {seed_ * 3 + 1, seed_ * 3 + 2, seed_ * 3 + 3};
    return in;
  }
};

// --------------------------------------------------------------- serve-soak

/// Mean of the bounded Pareto on [lo, hi] with tail index a (a != 1).
double pareto_mean(long long lo, long long hi, double a) {
  if (lo == hi) return static_cast<double>(lo);
  const double xm = static_cast<double>(lo);
  const double xM = static_cast<double>(hi);
  const double head = std::pow(xm, a) / (1.0 - std::pow(xm / xM, a));
  return head * a / (a - 1.0) *
         (std::pow(xm, 1.0 - a) - std::pow(xM, 1.0 - a));
}

long long pareto_draw(Prng& rng, long long lo, long long hi, double a) {
  const double xm = static_cast<double>(lo);
  const double ratio = std::pow(xm / static_cast<double>(hi), a);
  const double u = rng.next_double();
  const double x = xm / std::pow(1.0 - u * (1.0 - ratio), 1.0 / a);
  return std::clamp(static_cast<long long>(x), lo, hi);
}

/// One tenant of the soak mix (the bench_traffic --soak shape).
struct Mix {
  const char* name;
  serve::PriorityClass cls;
  double weight;
  serve::BackpressureMode bp;
  std::size_t depth;
  double share;  ///< of pool capacity; the five sum to 2.05
  const char* kernel;
  long long size_min, size_max;
  double tail_alpha;
  int devices;
  bool deadline;
  sim::FaultProfile fault;
};

std::vector<Mix> soak_mix() {
  using serve::BackpressureMode;
  using serve::PriorityClass;
  sim::FaultProfile none;
  sim::FaultProfile flaky;
  flaky.transfer_fault_rate = 0.01;
  sim::FaultProfile slow;
  slow.slowdown_rate = 0.05;
  slow.slowdown_factor = 3.0;
  sim::FaultProfile poison;
  poison.fail_at_s = 1e-4;  // every granted device dies mid-run
  return {
      {"gold", PriorityClass::kGold, 2.0, BackpressureMode::kReject, 8, 0.30,
       "axpy", 1 << 14, 1 << 17, 1.5, 2, false, none},
      {"silver-a", PriorityClass::kSilver, 2.0, BackpressureMode::kReject, 12,
       0.60, "matvec", 1 << 9, 1 << 11, 1.5, 2, true, none},
      {"silver-b", PriorityClass::kSilver, 1.0, BackpressureMode::kBlock, 12,
       0.50, "axpy", 1 << 14, 1 << 17, 1.5, 2, false, slow},
      {"bronze", PriorityClass::kBronze, 1.0, BackpressureMode::kReject, 16,
       0.60, "sum", 1 << 15, 1 << 19, 1.2, 1, false, flaky},
      {"chaos", PriorityClass::kBronze, 1.0, BackpressureMode::kReject, 8,
       0.05, "axpy", 1 << 12, 1 << 14, 1.5, 2, false, poison},
  };
}

serve::ServeOptions soak_options(std::uint64_t seed) {
  serve::ServeOptions so;
  so.seed = seed;
  so.shed_l1_depth = 8;
  so.shed_l2_depth = 16;
  so.shed_l3_depth = 24;
  so.floor_fraction = 0.1;
  return so;
}

std::vector<serve::TenantSpec> soak_tenants() {
  std::vector<serve::TenantSpec> out;
  for (const auto& m : soak_mix()) {
    serve::TenantSpec t;
    t.name = m.name;
    t.priority = m.cls;
    t.weight = m.weight;
    t.backpressure = m.bp;
    t.max_queue_depth = m.depth;
    t.fault = m.fault;
    out.push_back(std::move(t));
  }
  return out;
}

/// One soak: the server plus its pre-generated open-loop Poisson arrivals
/// (virtual time), submitted from engine callbacks as they fall due.
class SoakDriver {
 public:
  SoakDriver(std::uint64_t seed, std::size_t min_jobs)
      : server_(mach::builtin("full"), soak_tenants(), soak_options(seed)) {
    const auto mixes = soak_mix();
    std::vector<double> rates;
    double total_rate = 0.0;
    const double pool = static_cast<double>(server_.pool().size());
    for (const auto& m : mixes) {
      const double mean_n = pareto_mean(m.size_min, m.size_max, m.tail_alpha);
      const double pred = server_.predicted_job_seconds(
          m.kernel, static_cast<long long>(mean_n), m.devices);
      rates.push_back(m.share * pool / (pred * m.devices));
      total_rate += rates.back();
      Stream s;
      s.tenant = m.name;
      s.job.kernel = m.kernel;
      s.job.devices = m.devices;
      if (m.deadline) s.job.deadline_s = 8.0 * pred;
      streams_.push_back(std::move(s));
    }
    double duration = 1.1 * static_cast<double>(min_jobs) / total_rate;
    for (std::size_t total = 0; total < min_jobs; duration *= 1.1) {
      total = 0;
      for (std::size_t i = 0; i < mixes.size(); ++i) {
        Stream& s = streams_[i];
        s.t.clear();
        s.n.clear();
        Prng rng(mix64(seed ^ (0x9e3779b97f4a7c15ull * (i + 1))));
        for (double t = 0.0;;) {
          t += -std::log(1.0 - rng.next_double()) / rates[i];
          if (t > duration) break;
          s.t.push_back(t);
          s.n.push_back(pareto_draw(rng, mixes[i].size_min,
                                    mixes[i].size_max, mixes[i].tail_alpha));
        }
        total += s.t.size();
      }
    }
  }

  template <bool kOn>
  SoakOutcome drive(SpanRecorder* rec) {
    Tracer<kOn> tr(rec);
    SoakOutcome out;
    gen_ = server_.engine().new_generation();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (streams_[i].t.empty()) continue;
      server_.engine().schedule_at(
          streams_[i].t[0], [this, i, &tr, &out] { arrive(i, tr, out); },
          gen_);
    }
    std::size_t arrivals = 0;
    for (const Stream& st : streams_) arrivals += st.t.size();
    marks_.clear();
    marks_.reserve(arrivals + 1);
    const int s = tr.begin("serve.run");
    const std::uint64_t a0 = allocations();
    const auto t0 = Clock::now();
    server_.run();
    const auto t1 = Clock::now();
    out.allocations = allocations() - a0;
    tr.end(s);
    out.run_s = std::chrono::duration<double>(t1 - t0).count();
    marks_.push_back(t1);
    auto prev = t0;
    for (const auto m : marks_) {
      out.parts_ms.push_back(
          std::chrono::duration<double, std::milli>(m - prev).count());
      prev = m;
    }

    const serve::ServeReport& rep = server_.report();
    for (const auto& c : rep.counts) {
      out.submitted += c.submitted;
      out.admitted += c.admitted;
      out.completed += c.completed;
      out.failed += c.failed;
      out.cancelled += c.cancelled;
      out.rejected += c.rejected();
    }
    out.engine_events = server_.engine().events_processed();
    const serve::PriorityClass gold = serve::PriorityClass::kGold;
    out.gold_p99_s = rep.latency_percentile(0.99, &gold);
    std::ostringstream summary;
    rep.write_summary_json(summary);
    Digest d;
    d.add(summary.str());
    out.digest = d.value();
    out.wrong = rep.validate();
    const auto leftover = [&out](const char* what, std::size_t n) {
      if (n != 0) out.wrong.push_back(std::string(what) + " = " +
                                      std::to_string(n) + " after drain");
    };
    leftover("retained_jobs", server_.retained_jobs());
    leftover("live_events", server_.engine().live_events());
    leftover("live_generations", server_.engine().live_generations());
    return out;
  }

 private:
  struct Stream {
    std::string tenant;
    serve::JobSpec job;
    std::vector<double> t;     ///< arrival times, virtual seconds
    std::vector<long long> n;  ///< problem sizes
    std::size_t next = 0;
  };

  template <bool kOn>
  void arrive(std::size_t i, Tracer<kOn>& tr, SoakOutcome& out) {
    marks_.push_back(Clock::now());
    Stream& s = streams_[i];
    serve::JobSpec job = s.job;
    job.n = s.n[s.next];
    if constexpr (kOn) {
      const int sp = tr.begin("serve.submit");
      const auto t0 = Clock::now();
      (void)server_.submit(s.tenant, job);
      out.submit_s += seconds_since(t0);
      ++out.submits;
      tr.end(sp);
    } else {
      (void)server_.submit(s.tenant, job);
    }
    if (++s.next < s.t.size()) {
      server_.engine().schedule_at(
          s.t[s.next], [this, i, &tr, &out] { arrive(i, tr, out); }, gen_);
    }
  }

  serve::OffloadServer server_;
  std::vector<Stream> streams_;
  std::vector<Clock::time_point> marks_;  ///< host time of each submission
  sim::Engine::GenTag gen_ = 0;
};

constexpr std::size_t kSoakJobs = 10000;

constexpr std::size_t kSoakRounds = 2;

/// The full machine under the soak tenant mix: a corpus of two rounds,
/// each >= 10k submissions drained by one OffloadServer::run, every round
/// seeded from the workload seed. A round is timed in parts cut at its
/// submissions, so its fastest time is assembled from ~10k short parts
/// rather than one 1-2 s sample that a burst of interference can cover.
class ServeSoak final : public Workload {
 public:
  explicit ServeSoak(std::uint64_t seed) : seed_(seed) {}

  const char* unit() const override { return "job"; }

  void setup() override {
    first_ = true;
    // Warm-up: a short soak through the same server code paths.
    SoakDriver warm(mix64(seed_ ^ 0xa11ull), 1000);
    const SoakOutcome w = warm.drive<false>(nullptr);
    if (!w.wrong.empty()) throw std::runtime_error("warm-up: " + w.wrong[0]);
  }

  void run(double seconds, SpanRecorder* rec, LoopStats& st) override {
    for (PassClock clock(seconds, st.passes); clock.next();) {
      for (std::size_t round = 0; round < kSoakRounds; ++round) {
        SoakDriver d(mix64(seed_ + 0x50a4ull * (round + 1)), kSoakJobs);
        const SoakOutcome o =
            rec != nullptr ? d.drive<true>(rec) : d.drive<false>(nullptr);
        st.attempted += static_cast<long long>(o.submitted);
        for (const auto& w : o.wrong) st.fail(w);
        st.record(round, o.parts_ms, static_cast<double>(o.terminal()));
        if (first_) {
          first_ = false;
          round0_ = o;
        }
        total_failed_ += o.failed;
        total_cancelled_ += o.cancelled;
        total_rejected_ += o.rejected;
      }
    }
  }

  std::vector<Figure> figures(const LoopStats& st) const override {
    const auto& r = round0_;
    return {
        {"jobs_per_s", st.rate(), "1/s"},
        {"gold_p99_virtual_ms", r.gold_p99_s * 1e3, "ms(virtual)"},
        {"completed_share_virtual",
         static_cast<double>(r.completed) / static_cast<double>(r.submitted),
         "ratio"},
        {"round0_submitted", static_cast<double>(r.submitted), "count"},
        {"injected_kfail_jobs_all_rounds",
         static_cast<double>(total_failed_), "count"},
        {"deadline_cancellations_all_rounds",
         static_cast<double>(total_cancelled_), "count"},
        {"rejections_all_rounds", static_cast<double>(total_rejected_),
         "count"},
    };
  }

  std::uint64_t virtual_digest() const override { return round0_.digest; }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.seed = seed_;
    in.serve_jobs = kSoakJobs;
    // 200 jobs drawn from the soak mix, run as standalone fault-free
    // offloads on the full machine's first accelerators.
    probe_runtime_ = std::make_unique<rt::Runtime>(mach::builtin("full"));
    const auto accel = probe_runtime_->accelerators();
    const auto mixes = soak_mix();
    probe_cases_.clear();
    probe_cases_.reserve(200);
    Prng rng(mix64(seed_ ^ 0x9b0bull));
    for (int j = 0; j < 200; ++j) {
      const Mix& m = mixes[static_cast<std::size_t>(j) % mixes.size()];
      probe_cases_.emplace_back(kern::make_case(
          m.kernel, pareto_draw(rng, m.size_min, m.size_max, m.tail_alpha),
          false));
      ProbeOffload p;
      p.machine = &probe_runtime_->machine();
      p.kernel = &probe_cases_.back().kernel;
      p.maps = &probe_cases_.back().maps;
      p.opts.device_ids.assign(accel.begin(), accel.begin() + m.devices);
      p.opts.sched.kind = sched::AlgorithmKind::kDynamic;
      p.opts.execute_bodies = false;
      p.opts.noise_seed = mix64(seed_ + static_cast<std::uint64_t>(j));
      in.offloads.push_back(std::move(p));
    }
    in.fuzz_seeds = {seed_ * 3 + 1, seed_ * 3 + 2, seed_ * 3 + 3};
    return in;
  }

 private:
  std::uint64_t seed_;
  bool first_ = true;
  SoakOutcome round0_;
  std::size_t total_failed_ = 0, total_cancelled_ = 0, total_rejected_ = 0;
  std::unique_ptr<rt::Runtime> probe_runtime_;
  std::vector<CaseSlot> probe_cases_;
};

// -------------------------------------------------------------- fuzz-corpus

/// Options the differential oracle uses for one scenario and algorithm
/// (fuzz/oracle.cpp options_for), for the runtime probe's replays.
rt::OffloadOptions scenario_options(const fuzz::ScenarioSpec& s,
                                    sched::AlgorithmKind kind,
                                    const std::vector<int>& devices) {
  rt::OffloadOptions o;
  o.device_ids = devices;
  o.sched = s.sched;
  o.sched.kind = kind;
  o.noise_seed = s.noise_seed;
  o.fault.seed = s.fault_seed;
  o.fault.scripted = s.faults;
  o.watchdog.enabled = s.watchdog;
  o.integrity.enabled = s.integrity;
  o.parallel_offload = s.parallel_offload;
  o.harness.step_budget = s.step_budget;
  o.harness.capture_result_checksum = true;
  o.collect_audit = true;
  return o;
}

/// One size band of the oracle half of a corpus cycle.
struct Band {
  const char* kernel;
  long long lo, hi;  ///< inclusive problem-size range
};

/// Every kernel in a lower and an upper size band. The costly upper
/// bands are narrow and the cubic kernels stop at n = 64 (bm2d) and
/// n = 40 (matmul): one bm2d-128 scenario costs ~1.4 s, so drawing sizes
/// freely would make a run's figure depend on which sizes its seed drew.
constexpr Band kBands[] = {
    {"axpy", 1, 2047},      {"axpy", 2048, 4096},   {"sum", 1, 2047},
    {"sum", 2048, 4096},    {"matvec", 4, 255},     {"matvec", 288, 352},
    {"stencil2d", 8, 47},   {"stencil2d", 48, 96},  {"matmul", 4, 31},
    {"matmul", 32, 40},     {"bm2d", 48, 48},       {"bm2d", 64, 64},
};

/// Oracle scenarios join the corpus only when they inject faults, so the
/// resilience half of OffloadExecution runs in every one of them, and
/// none that can lose or hang a device: when the loss or the watchdog's
/// hard kill lands after the other devices finished, the oracle reports
/// an imbalance-bounds violation (a device "finishes" after the offload
/// end). That is a known runtime bug, about one scenario in 500 with these
/// faults, and not this benchmark's subject.
bool scenario_admissible(const fuzz::ScenarioSpec& s) {
  bool faulty = !s.faults.empty();
  for (const auto& d : s.machine.devices) {
    const sim::FaultProfile& f = d.fault;
    if (f.hang_rate > 0.0) return false;
    faulty = faulty || f.transfer_fault_rate > 0.0 ||
             f.launch_fault_rate > 0.0 || f.slowdown_rate > 0.0 ||
             f.degrade_rate > 0.0 || f.corrupt_transfer_rate > 0.0 ||
             f.corrupt_compute_rate > 0.0;
  }
  for (const auto& f : s.faults) {
    if (f.kind == sim::FaultKind::kDeviceLoss ||
        f.kind == sim::FaultKind::kHang) {
      return false;
    }
  }
  return faulty;
}

constexpr std::size_t kServePerCycle = std::size(kBands) / 2;  // 2:1

/// Serve scenarios join the corpus only when no job is a cubic kernel
/// above n = 48, for the same reason as the bands.
bool serve_admissible(const fuzz::ServeScenarioSpec& s) {
  for (const auto& j : s.jobs) {
    const auto& k = j.job.kernel;
    if ((k == "bm2d" || k == "matmul" || k == "stencil2d") && j.job.n > 48) {
      return false;
    }
  }
  return true;
}

/// Seeds of one corpus cycle: one oracle scenario per band, and serve
/// scenarios alternating between <= 7 and > 7 jobs.
struct CorpusCycle {
  std::vector<std::uint64_t> scenarios;
  std::vector<std::uint64_t> serve;
};

/// Stratified draw from the generators' seed streams: each stream is
/// scanned in order from a seed-derived start and every generated
/// scenario is queued under its band, so a cycle always has the same
/// composition while machines, faults and tuning vary with the seed.
class CorpusPlan {
 public:
  explicit CorpusPlan(std::uint64_t seed)
      : next_scenario_((mix64(seed) >> 24) | 1u),
        next_serve_((mix64(seed + 1) >> 24) | 1u) {}

  CorpusCycle next() {
    CorpusCycle c;
    for (std::size_t b = 0; b < std::size(kBands); ++b) {
      while (scenario_q_[b].empty()) {
        const std::uint64_t s = next_scenario_++;
        fuzz::ScenarioSpec spec;
        try {
          spec = fuzz::generate_scenario(s);
        } catch (const std::exception&) {
          ++skipped_;
          continue;
        }
        if (!scenario_admissible(spec)) continue;
        for (std::size_t i = 0; i < std::size(kBands); ++i) {
          if (spec.kernel == kBands[i].kernel && spec.n >= kBands[i].lo &&
              spec.n <= kBands[i].hi) {
            scenario_q_[i].push_back(s);
            break;
          }
        }
      }
      c.scenarios.push_back(scenario_q_[b].front());
      scenario_q_[b].pop_front();
    }
    for (std::size_t k = 0; k < kServePerCycle; ++k) {
      auto& q = serve_q_[k % 2];
      while (q.empty()) {
        const std::uint64_t s = next_serve_++;
        fuzz::ServeScenarioSpec spec;
        try {
          spec = fuzz::generate_serve_scenario(s);
        } catch (const std::exception&) {
          ++skipped_;
          continue;
        }
        if (serve_admissible(spec)) {
          serve_q_[spec.jobs.size() > 7 ? 1 : 0].push_back(s);
        }
      }
      c.serve.push_back(q.front());
      q.pop_front();
    }
    return c;
  }

  /// Seeds whose generator threw instead of returning a valid scenario
  /// (about 0.2% of serve seeds fail TenantSpec validation); skipped.
  std::size_t skipped() const noexcept { return skipped_; }

 private:
  std::size_t skipped_ = 0;
  std::uint64_t next_scenario_;
  std::uint64_t next_serve_;
  std::deque<std::uint64_t> scenario_q_[std::size(kBands)];
  std::deque<std::uint64_t> serve_q_[2];
};

/// homp-fuzz corpora from the workload seed: two differential-oracle
/// scenarios (fuzz::run_fuzz) per serve-chaos scenario
/// (fuzz::run_serve_fuzz), one scenario per call, shrinking on.
class FuzzCorpus final : public Workload {
 public:
  FuzzCorpus(std::uint64_t seed, std::string out_dir)
      : seed_(seed), repro_dir_(std::move(out_dir) + "/fuzz-repro") {}

  const char* unit() const override { return "scenario"; }

  void setup() override {
    CorpusPlan plan(seed_);
    corpus_.clear();
    for (std::size_t c = 0; c < kCorpusCycles; ++c) {
      const CorpusCycle cycle = plan.next();
      // Two oracle scenarios, then one serve scenario, and so on.
      for (std::size_t k = 0; k < cycle.scenarios.size(); ++k) {
        corpus_.push_back({false, cycle.scenarios[k]});
        if (k % 2 == 1) corpus_.push_back({true, cycle.serve[k / 2]});
      }
    }
    skipped_ = plan.skipped();
    first_pass_done_ = false;
    digest_ = Digest();
    offloads_ = 0.0;
    serve_jobs_ = 0.0;
    // Warm-up: one oracle sweep over a bm2d-48 scenario outside the corpus.
    const auto warm = CorpusPlan(mix64(seed_ ^ 0xa11ull)).next();
    const auto report =
        fuzz::run_oracle(fuzz::generate_scenario(warm.scenarios[10]));
    if (!report.ok()) {
      throw std::runtime_error("warm-up scenario: " +
                               report.violations[0].invariant);
    }
  }

  void run(double seconds, SpanRecorder* rec, LoopStats& st) override {
    if (rec != nullptr) {
      loop<true>(seconds, rec, st);
    } else {
      loop<false>(seconds, rec, st);
    }
  }

  std::vector<Figure> figures(const LoopStats& st) const override {
    const double pass_s =
        st.rate() > 0.0 ? static_cast<double>(corpus_.size()) / st.rate() : 0.0;
    return {
        {"scenarios_per_s", st.rate(), "1/s"},
        {"oracle_offloads_per_s", offloads_ / pass_s, "1/s"},
        {"corpus_scenarios", static_cast<double>(corpus_.size()), "count"},
        {"serve_jobs_in_corpus", serve_jobs_, "count"},
        {"generator_seeds_skipped", static_cast<double>(skipped_), "count"},
    };
  }

  std::uint64_t virtual_digest() const override { return digest_.value(); }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.seed = seed_;
    specs_.clear();
    probe_cases_.clear();
    specs_.reserve(corpus_.size());
    probe_cases_.reserve(corpus_.size());
    for (const Entry& e : corpus_) {
      if (e.serve || specs_.size() == std::size(kBands)) continue;
      const std::size_t i = specs_.size();
      specs_.push_back(fuzz::generate_scenario(e.seed));
      const auto& s = specs_.back();
      probe_cases_.emplace_back(kern::make_case(s.kernel, s.n, true));
      std::vector<int> devices(s.machine.devices.size());
      std::iota(devices.begin(), devices.end(), 0);
      ProbeOffload p;
      p.machine = &s.machine;
      p.kernel = &probe_cases_.back().kernel;
      p.maps = &probe_cases_.back().maps;
      p.opts = scenario_options(
          s, sched::every_algorithm()[i % sched::kNumEveryAlgorithm],
          devices);
      in.offloads.push_back(std::move(p));
      in.data.push_back(&probe_cases_.back().maps);
      in.fuzz_seeds.push_back(e.seed);
    }
    return in;
  }

 private:
  /// Cycles of the plan in the corpus every pass runs.
  static constexpr std::size_t kCorpusCycles = 4;

  struct Entry {
    bool serve = false;
    std::uint64_t seed = 0;
  };

  template <bool kOn>
  void loop(double seconds, SpanRecorder* rec, LoopStats& st) {
    Tracer<kOn> tr(rec);
    for (PassClock clock(seconds, st.passes); clock.next();) {
      const bool first = !first_pass_done_;
      for (std::size_t i = 0; i < corpus_.size(); ++i) {
        const Entry& e = corpus_[i];
        tr.op(st.attempted);
        ++st.attempted;
        std::string json;
        int violations = 0;
        const int s =
            tr.begin(e.serve ? "fuzz.run_serve_fuzz" : "fuzz.run_fuzz");
        const auto t0 = Clock::now();
        if (!e.serve) {
          fuzz::FuzzConfig cfg;
          cfg.seed = e.seed;
          cfg.count = 1;
          cfg.repro_dir = repro_dir_;
          const auto sum = fuzz::run_fuzz(cfg);
          violations = sum.violations;
          if (first) offloads_ += sum.offloads;
          json = sum.json;
        } else {
          fuzz::ServeFuzzConfig cfg;
          cfg.seed = e.seed;
          cfg.count = 1;
          cfg.repro_dir = repro_dir_;
          const auto sum = fuzz::run_serve_fuzz(cfg);
          violations = sum.violations;
          if (first) serve_jobs_ += sum.jobs;
          json = sum.json;
        }
        st.record(i, seconds_since(t0) * 1e3, 1.0);
        tr.end(s);
        if (violations != 0) {
          st.fail("fuzz seed " + std::to_string(e.seed) + ": " +
                  std::to_string(violations) + " violations (repro under " +
                  repro_dir_ + ")");
        }
        if (first) digest_.add(json);
      }
      first_pass_done_ = true;
    }
  }

  std::uint64_t seed_;
  std::string repro_dir_;
  std::vector<Entry> corpus_;
  std::size_t skipped_ = 0;
  bool first_pass_done_ = false;
  Digest digest_;
  double offloads_ = 0.0;
  double serve_jobs_ = 0.0;
  std::vector<fuzz::ScenarioSpec> specs_;
  std::vector<CaseSlot> probe_cases_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir) {
  if (name == "sim-sweep") return std::make_unique<SimSweep>(seed);
  if (name == "real-data") return std::make_unique<RealData>(seed);
  if (name == "serve-soak") return std::make_unique<ServeSoak>(seed);
  if (name == "fuzz-corpus") {
    return std::make_unique<FuzzCorpus>(seed, out_dir);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

SoakOutcome soak_round(std::uint64_t seed, std::size_t min_jobs,
                       SpanRecorder* rec) {
  SoakDriver d(seed, min_jobs);
  return rec != nullptr ? d.drive<true>(rec) : d.drive<false>(nullptr);
}

}  // namespace perfbench
