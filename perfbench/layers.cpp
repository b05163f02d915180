#include "layers.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>

#include "alloc_count.h"
#include "common/checksum.h"
#include "dist/distribution.h"
#include "fuzz/oracle.h"
#include "fuzz/scenario.h"
#include "kernels/case.h"
#include "memory/device_mapping.h"
#include "model/loop_model.h"
#include "runtime/runtime.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace homp;

/// Keeps the optimizer from discarding probe reads.
volatile double g_sink = 0.0;

/// Repeat `pass` until `min_s` of host time has gone by (at least once,
/// at most `max_passes` times); returns the passes made.
int repeat_for(double min_s, int max_passes,
               const std::function<void()>& pass) {
  const auto t0 = Clock::now();
  int n = 0;
  do {
    pass();
    ++n;
  } while (n < max_passes && seconds_since(t0) < min_s);
  return n;
}

// ------------------------------------------------------------- runtime/sim

struct RuntimeProbe {
  double offloads = 0.0, events = 0.0, allocs = 0.0, chunks = 0.0,
         bytes = 0.0, integrity = 0.0, recovery = 0.0, devices = 0.0;
  std::vector<double> offload_ms;
  std::vector<sched::LoopContext> contexts;
  std::vector<sched::SchedulerConfig> configs;
  std::vector<std::pair<dist::Range, std::vector<double>>> weights;
  double link_latency_s = 11e-6;
  double link_bandwidth_Bps = 11e9;
  /// Fresh runtimes, one per machine: empty ThroughputHistory at start,
  /// so every count repeats exactly.
  std::map<const mach::MachineDescriptor*, std::unique_ptr<rt::Runtime>>
      runtimes;
};

RuntimeProbe probe_runtime(const LayerInputs& in, Tracer<true>& tr,
                           LoopStats& st) {
  RuntimeProbe p;
  if (!in.offloads.empty() && !in.offloads[0].machine->links.empty()) {
    p.link_latency_s = in.offloads[0].machine->links[0].latency_s;
    p.link_bandwidth_Bps = in.offloads[0].machine->links[0].bandwidth_Bps;
  }
  for (const ProbeOffload& po : in.offloads) {
    auto& runtime = p.runtimes[po.machine];
    if (!runtime) runtime = std::make_unique<rt::Runtime>(*po.machine);
    rt::OffloadResult res;
    std::string error;
    const int s = tr.begin("runtime.offload");
    const std::uint64_t a0 = allocations();
    const auto t0 = Clock::now();
    try {
      res = runtime->offload(*po.kernel, *po.maps, po.opts);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double dt = seconds_since(t0);
    const std::uint64_t a1 = allocations();
    tr.end(s);
    ++st.attempted;
    if (error.empty() && (res.failed || res.cancelled)) error = res.error;
    if (error.empty() &&
        res.total_iterations() != po.kernel->iterations.size()) {
      error = "iteration conservation";
    }
    if (!error.empty()) {
      st.fail("runtime probe " + po.kernel->name + ": " + error);
      continue;
    }
    p.offloads += 1.0;
    p.offload_ms.push_back(dt * 1e3);
    p.events += static_cast<double>(res.engine_events);
    p.allocs += static_cast<double>(a1 - a0);
    p.chunks += static_cast<double>(res.chunks_issued);
    p.devices += static_cast<double>(po.opts.device_ids.size());
    for (const auto& d : res.devices) {
      p.bytes += d.bytes_in + d.bytes_out;
      p.integrity += static_cast<double>(d.integrity_checks);
      p.recovery += static_cast<double>(d.retries);
    }
    p.recovery += static_cast<double>(res.recovery_events.size());

    sched::LoopContext ctx;
    ctx.loop = po.kernel->iterations;
    ctx.kernel = po.kernel->cost;
    ctx.devices = model::prediction_inputs(*po.machine, po.opts.device_ids);
    sched::SchedulerConfig cfg = po.opts.sched;
    cfg.history = &runtime->history();
    cfg.history_kernel = po.kernel->name;
    cfg.history_device_ids = po.opts.device_ids;
    p.contexts.push_back(std::move(ctx));
    p.configs.push_back(std::move(cfg));
    std::vector<double> w = res.planned_weights;
    if (w.empty()) w.assign(po.opts.device_ids.size(), 1.0);
    p.weights.emplace_back(po.kernel->iterations, std::move(w));
  }
  return p;
}

/// Drive a scheduler the way the runtime's proxies do: every slot asks
/// for chunks in turn, reports a synthetic duration, and the stage
/// barrier is released once every unfinished slot waits at it. Returns
/// the chunks handed out, or -1 when the schedule never drained.
long long drain(sched::LoopScheduler& s, std::size_t slots) {
  std::vector<char> done(slots, 0), waiting(slots, 0);
  std::size_t finished = 0;
  long long chunks = 0;
  for (int round = 0; finished < slots; ++round) {
    if (round > 1'000'000) return -1;
    for (std::size_t i = 0; i < slots; ++i) {
      if (done[i] || waiting[i]) continue;
      const int slot = static_cast<int>(i);
      if (auto c = s.next_chunk(slot)) {
        ++chunks;
        s.report(slot, *c, 1e-9 * static_cast<double>(c->size() * (slot + 1)));
      } else if (s.finished(slot)) {
        done[i] = 1;
        ++finished;
      } else {
        waiting[i] = 1;
      }
    }
    bool active = false, parked = false;
    for (std::size_t i = 0; i < slots; ++i) {
      active = active || (!done[i] && !waiting[i]);
      parked = parked || waiting[i];
    }
    if (!active && parked) {
      s.advance_stage();
      std::fill(waiting.begin(), waiting.end(), 0);
    }
  }
  return chunks;
}

double sched_ns_per_chunk(const RuntimeProbe& p, Tracer<true>& tr,
                          LoopStats& st) {
  double chunks = 0.0;
  double secs = 0.0;
  bool stuck = false;
  repeat_for(0.2, 1000, [&] {
    const int s = tr.begin("sched.drain");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < p.contexts.size(); ++i) {
      auto sch = sched::make_scheduler(p.configs[i], p.contexts[i]);
      const long long c = drain(*sch, p.contexts[i].num_devices());
      if (c < 0) stuck = true;
      chunks += static_cast<double>(std::max(c, 0LL));
    }
    secs += seconds_since(t0);
    tr.end(s);
  });
  ++st.attempted;
  if (stuck) st.fail("sched probe: a schedule never drained");
  return chunks > 0.0 ? secs * 1e9 / chunks : 0.0;
}

/// Engine::schedule_at + run replaying `events` per offload: `lanes`
/// chains advance in lockstep, so every timestamp holds `lanes` tied
/// events (the per-device proxies of one offload).
double engine_ns_per_event(double events, double lanes, Tracer<true>& tr) {
  const auto per_offload = static_cast<std::size_t>(std::max(events, 1.0));
  const auto width = static_cast<std::size_t>(std::max(lanes, 1.0));
  std::size_t processed = 0;
  double secs = 0.0;
  repeat_for(0.2, 100000, [&] {
    const int s = tr.begin("sim.engine_replay");
    const auto t0 = Clock::now();
    sim::Engine eng;
    std::size_t left = per_offload;
    std::function<void()> tick = [&] {
      if (left == 0) return;
      --left;
      eng.schedule_after(1e-6, tick);
    };
    for (std::size_t i = 0; i < width; ++i) eng.schedule_at(0.0, tick);
    eng.run();
    secs += seconds_since(t0);
    processed += eng.events_processed();
    tr.end(s);
  });
  return secs * 1e9 / static_cast<double>(processed);
}

/// Tagged schedule_at + cancel_generation: each job owns a generation
/// with two timers that fire and two far-future timers that the job's
/// completion cancels wholesale, as a serve job's watchdog and deadline
/// timers are.
double cancel_ns_per_event(Tracer<true>& tr) {
  constexpr std::size_t kJobs = 20000;
  std::size_t scheduled = 0;
  double secs = 0.0;
  repeat_for(0.2, 1000, [&] {
    const int s = tr.begin("sim.cancel_replay");
    const auto t0 = Clock::now();
    sim::Engine eng;
    for (std::size_t j = 0; j < kJobs; ++j) {
      eng.schedule_at(static_cast<double>(j) * 1e-6, [&eng] {
        const auto g = eng.new_generation();
        eng.schedule_after(1e-7, [] {}, g);
        eng.schedule_after(2e-7, [] {}, g);
        eng.schedule_after(1.0, [] {}, g);
        eng.schedule_after(2.0, [] {}, g);
        eng.schedule_after(3e-7, [&eng, g] { eng.cancel_generation(g); });
      });
    }
    eng.run();
    secs += seconds_since(t0);
    scheduled += 6 * kJobs;
    tr.end(s);
  });
  return secs * 1e9 / static_cast<double>(scheduled);
}

/// SharedLink::transfer of `bytes` in `lanes` overlapping chains.
double link_ns_per_transfer(const RuntimeProbe& p, double bytes, int lanes,
                            Tracer<true>& tr) {
  constexpr std::size_t kTransfers = 20000;
  std::size_t done = 0;
  double secs = 0.0;
  repeat_for(0.1, 1000, [&] {
    const int s = tr.begin("sim.link_replay");
    const auto t0 = Clock::now();
    sim::Engine eng;
    sim::SharedLink link(eng, "probe", p.link_latency_s, p.link_bandwidth_Bps);
    std::size_t left = kTransfers;
    std::function<void()> next = [&] {
      if (left == 0) return;
      --left;
      link.transfer(bytes, next);
    };
    for (int i = 0; i < lanes; ++i) next();
    eng.run();
    secs += seconds_since(t0);
    done += link.transfers_completed();
    tr.end(s);
  });
  return secs * 1e9 / static_cast<double>(done);
}

double distribution_us(const RuntimeProbe& p, Tracer<true>& tr) {
  double calls = 0.0;
  double secs = 0.0;
  repeat_for(0.1, 100000, [&] {
    const int s = tr.begin("dist.by_weights");
    const auto t0 = Clock::now();
    for (const auto& [range, w] : p.weights) {
      const auto d = dist::Distribution::by_weights(range, w);
      g_sink = g_sink + static_cast<double>(d.num_parts());
    }
    secs += seconds_since(t0);
    calls += static_cast<double>(p.weights.size());
    tr.end(s);
  });
  return calls > 0.0 ? secs * 1e6 / calls : 0.0;
}

// ------------------------------------------------------------------ memory

struct MemoryTotals {
  double build_s = 0.0, builds = 0.0;
  double copy_s = 0.0, copy_bytes = 0.0;
  double view_s = 0.0, elems = 0.0;
  double checksum_s = 0.0, checksum_bytes = 0.0;
  double memcpy_s = 0.0, memcpy_bytes = 0.0;
};

constexpr int kMappingParts = 4;  ///< gpu4's accelerator count

/// Materialize every double-typed map of `maps` on kMappingParts devices
/// (row blocks of the partitioned dimension plus halo; FULL maps whole),
/// copy in and out, read the footprint through ArrayView, and checksum
/// and memcpy the host payload.
void memory_pass(const std::vector<mem::MapSpec>& maps, Tracer<true>& tr,
                 MemoryTotals& m, std::vector<std::byte>& scratch) {
  for (const mem::MapSpec& spec : maps) {
    if (spec.binding.elem_size != sizeof(double)) continue;
    std::vector<std::pair<dist::Region, dist::Region>> pieces;
    const int pd = spec.partitioned_dim();
    if (pd < 0) {
      pieces.assign(kMappingParts, {spec.region, spec.region});
    } else {
      const auto dim = static_cast<std::size_t>(pd);
      const dist::Range whole = spec.region.dim(dim);
      const auto blocks = dist::Distribution::block(whole, kMappingParts);
      for (const auto& part : blocks.parts()) {
        if (part.empty()) continue;
        pieces.emplace_back(
            spec.region.with_dim(dim, part),
            spec.region.with_dim(
                dim, part.widened(spec.halo_before, spec.halo_after)
                         .clamped_to(whole)));
      }
    }
    for (const auto& [owned, footprint] : pieces) {
      int s = tr.begin("memory.mapping_build");
      auto t0 = Clock::now();
      mem::DeviceMapping dm(spec, owned, footprint, /*shared=*/false,
                            /*materialize=*/true);
      m.build_s += seconds_since(t0);
      m.builds += 1.0;
      tr.end(s);

      s = tr.begin("memory.copy");
      t0 = Clock::now();
      dm.copy_in();
      dm.copy_out();
      m.copy_s += seconds_since(t0);
      m.copy_bytes += dm.bytes_in() + dm.bytes_out();
      tr.end(s);

      s = tr.begin("memory.view");
      t0 = Clock::now();
      const auto v = dm.view<double>();
      double acc = 0.0;
      const dist::Range r0 = footprint.dim(0);
      if (footprint.rank() == 1) {
        for (long long i = r0.lo; i < r0.hi; ++i) acc += v(i);
      } else {
        const dist::Range r1 = footprint.dim(1);
        for (long long i = r0.lo; i < r0.hi; ++i) {
          for (long long j = r1.lo; j < r1.hi; ++j) acc += v(i, j);
        }
      }
      g_sink = g_sink + acc;
      m.view_s += seconds_since(t0);
      m.elems += static_cast<double>(footprint.volume());
      tr.end(s);
    }

    const auto bytes = static_cast<std::size_t>(spec.region_bytes());
    int s = tr.begin("common.checksum");
    auto t0 = Clock::now();
    Checksummer sum(ChecksumKind::kMix64);
    sum.update(spec.binding.base, bytes);
    g_sink = g_sink + static_cast<double>(sum.digest() & 0xff);
    m.checksum_s += seconds_since(t0);
    m.checksum_bytes += static_cast<double>(bytes);
    tr.end(s);

    if (scratch.size() < bytes) scratch.resize(bytes);
    s = tr.begin("host.memcpy");
    t0 = Clock::now();
    std::memcpy(scratch.data(), spec.binding.base, bytes);
    g_sink = g_sink + static_cast<double>(scratch[bytes / 2]);
    m.memcpy_s += seconds_since(t0);
    m.memcpy_bytes += static_cast<double>(bytes);
    tr.end(s);
  }
}

}  // namespace

std::vector<Figure> run_layer_probes(const LayerInputs& in, SpanRecorder& rec,
                                     LoopStats& st) {
  Tracer<true> tr(&rec);
  std::vector<Figure> out;
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  // runtime, sim, sched, dist: the workload's offloads on fresh runtimes.
  const RuntimeProbe rp = probe_runtime(in, tr, st);
  const double events_per_offload = per(rp.events, rp.offloads);
  const double chunk_bytes = per(rp.bytes, rp.chunks);
  const double link1 = link_ns_per_transfer(rp, chunk_bytes, 1, tr);
  const double link2 = link_ns_per_transfer(rp, chunk_bytes, 2, tr);
  std::printf("layer sim: link ns/transfer 1 lane %.1f, 2 lanes %.1f "
              "(%.0f B per transfer)\n",
              link1, link2, chunk_bytes);
  out.push_back({"sim.events_per_offload", events_per_offload, "count"});
  out.push_back({"sim.allocs_per_event", per(rp.allocs, rp.events), "count"});
  out.push_back({"sim.engine_ns_per_event",
                 engine_ns_per_event(events_per_offload,
                                     per(rp.devices, rp.offloads), tr),
                 "ns"});
  out.push_back({"sim.cancel_ns_per_event", cancel_ns_per_event(tr), "ns"});
  out.push_back({"sim.link_ns_per_transfer", 0.5 * (link1 + link2), "ns"});
  out.push_back({"sched.chunks_per_offload", per(rp.chunks, rp.offloads),
                 "count"});
  out.push_back({"sched.ns_per_chunk", sched_ns_per_chunk(rp, tr, st), "ns"});
  out.push_back({"dist.distribution_us", distribution_us(rp, tr), "us"});

  // memory, common, host: the workload's materialized data, or the small
  // real-data set when the workload has none.
  std::vector<std::unique_ptr<kern::KernelCase>> own;
  std::vector<std::vector<mem::MapSpec>> own_maps;
  std::vector<const std::vector<mem::MapSpec>*> data = in.data;
  if (data.empty()) {
    using Size = std::pair<const char*, long long>;
    for (const auto& [k, n] : {Size{"axpy", 131072}, Size{"stencil2d", 362},
                               Size{"matvec", 362}, Size{"sum", 131072}}) {
      own.push_back(kern::make_case(k, n, true));
      own_maps.push_back(own.back()->maps());
    }
    for (const auto& m : own_maps) data.push_back(&m);
  }
  MemoryTotals mt;
  std::vector<std::byte> scratch;
  repeat_for(0.3, 64, [&] {
    for (const auto* maps : data) memory_pass(*maps, tr, mt, scratch);
  });
  out.push_back({"memory.mapping_build_us", per(mt.build_s * 1e6, mt.builds),
                 "us"});
  out.push_back({"memory.copy_gb_s", per(mt.copy_bytes / 1e9, mt.copy_s),
                 "GB/s"});
  out.push_back({"memory.view_ns_per_elem", per(mt.view_s * 1e9, mt.elems),
                 "ns"});
  out.push_back({"memory.bytes_per_offload", per(rp.bytes, rp.offloads), "B"});
  out.push_back({"common.checksum_gb_s",
                 per(mt.checksum_bytes / 1e9, mt.checksum_s), "GB/s"});
  out.push_back({"host.memcpy_gb_s", per(mt.memcpy_bytes / 1e9, mt.memcpy_s),
                 "GB/s"});

  out.push_back({"runtime.offload_ms", median(rp.offload_ms), "ms"});
  out.push_back({"runtime.allocs_per_offload", per(rp.allocs, rp.offloads),
                 "count"});
  out.push_back({"runtime.integrity_checks_per_offload",
                 per(rp.integrity, rp.offloads), "count"});
  out.push_back({"runtime.recovery_events_per_offload",
                 per(rp.recovery, rp.offloads), "count"});

  // serve: one traced soak round for host times, and the same round
  // untraced for the exact counts.
  const std::uint64_t serve_seed = mix64(in.seed ^ 0x5e7eull);
  const SoakOutcome traced = soak_round(serve_seed, in.serve_jobs, &rec);
  const SoakOutcome exact = soak_round(serve_seed, in.serve_jobs, nullptr);
  for (const SoakOutcome* o : {&traced, &exact}) {
    st.attempted += static_cast<long long>(o->submitted);
    for (const auto& w : o->wrong) st.fail("serve probe: " + w);
  }
  out.push_back({"serve.submit_us",
                 per(traced.submit_s * 1e6,
                     static_cast<double>(traced.submits)),
                 "us"});
  out.push_back({"serve.drain_s", exact.run_s, "s"});
  out.push_back({"serve.admitted_share",
                 per(static_cast<double>(exact.admitted),
                     static_cast<double>(exact.submitted)),
                 "ratio"});
  out.push_back({"serve.allocs_per_event",
                 per(static_cast<double>(exact.allocations),
                     static_cast<double>(exact.engine_events)),
                 "count"});

  // fuzz: scenario generation and the differential oracle.
  std::vector<double> gen_us;
  const std::uint64_t gen_base = in.fuzz_seeds.empty() ? 1 : in.fuzz_seeds[0];
  for (std::uint64_t i = 0; i < 200; ++i) {
    const int s = tr.begin("fuzz.generate_scenario");
    const auto t0 = Clock::now();
    const auto spec = fuzz::generate_scenario(gen_base + i);
    gen_us.push_back(seconds_since(t0) * 1e6);
    g_sink = g_sink + static_cast<double>(spec.n);
    tr.end(s);
  }
  std::vector<double> oracle_ms;
  double oracle_offloads = 0.0;
  for (const std::uint64_t seed : in.fuzz_seeds) {
    const auto spec = fuzz::generate_scenario(seed);
    const int s = tr.begin("fuzz.run_oracle");
    const auto t0 = Clock::now();
    const auto report = fuzz::run_oracle(spec);
    oracle_ms.push_back(seconds_since(t0) * 1e3);
    tr.end(s);
    ++st.attempted;
    if (!report.ok()) {
      st.fail("oracle probe seed " + std::to_string(seed) + ": " +
              report.violations[0].invariant);
    }
    oracle_offloads += static_cast<double>(report.runs.size());
  }
  out.push_back({"fuzz.generate_us", median(gen_us), "us"});
  out.push_back({"fuzz.oracle_ms", median(oracle_ms), "ms"});
  out.push_back({"fuzz.offloads_per_scenario",
                 per(oracle_offloads, static_cast<double>(oracle_ms.size())),
                 "count"});

  // machine: Runtime::from_machine_file over machines/*.ini.
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator("machines")) {
    if (e.path().extension() == ".ini") files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  std::vector<double> load_ms;
  for (int rep = 0; rep < 5; ++rep) {
    double total = 0.0;
    for (const auto& f : files) {
      const int s = tr.begin("machine.load");
      const auto t0 = Clock::now();
      const auto runtime = rt::Runtime::from_machine_file(f);
      total += seconds_since(t0) * 1e3;
      g_sink = g_sink + static_cast<double>(runtime.num_devices());
      tr.end(s);
    }
    load_ms.push_back(per(total, static_cast<double>(files.size())));
  }
  out.push_back({"machine.load_ms", median(load_ms), "ms"});
  return out;
}

}  // namespace perfbench
