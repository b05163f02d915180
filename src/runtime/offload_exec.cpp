#include "runtime/offload_exec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/checksum.h"
#include "common/error.h"
#include "common/log.h"
#include "model/cost.h"
#include "model/loop_model.h"
#include "runtime/resilience.h"
#include "sched/extended_sched.h"
#include "sched/partition_sched.h"
#include "sched/selector.h"

namespace homp::rt {

namespace {
/// Cost of one chunk acquisition (shared-cursor CAS plus bookkeeping on
/// the proxy thread).
constexpr double kChunkSchedOverheadS = 1e-6;

/// The last of `pool`'s spare records, or a fresh one.
template <class T>
T take_spare(std::vector<T>& pool) {
  if (pool.empty()) return T{};
  T spare = std::move(pool.back());
  pool.pop_back();
  return spare;
}
}  // namespace

/// One transfer attempt in flight, with its own start, bytes, jitter and
/// wire outcome. A retry, a requeue or the proxy's next chunk may change
/// the proxy before the attempt completes; the attempt reads only these.
struct OffloadExecution::WireAttempt {
  int slot = -1;
  int attempt = 1;
  double start = 0.0;
  double bytes = 0.0;
  double jitter = 0.0;  ///< copy-in: delay from landing to input_ready
  WireFault wire;
  std::shared_ptr<OutRecord> rec;  ///< copy-out: the record it ships
};

OffloadExecution::~OffloadExecution() {
  // Revoke anything still pending (normally finish_now()
  // already did — this covers owners tearing down mid-flight) and hand
  // the tag back. The context's engine outlives the execution by
  // contract.
  engine_.retire_generation(gen_);
}

OffloadExecution::OffloadExecution(ExecContext& ctx,
                                   const mach::MachineDescriptor& machine,
                                   const LoopKernel& kernel,
                                   const std::vector<mem::MapSpec>& maps,
                                   OffloadOptions opts,
                                   const dist::Distribution* forced_loop_dist,
                                   const std::vector<mem::DeviceDataEnv>*
                                       region_envs)
    : machine_(machine),
      kernel_(kernel),
      maps_(maps),
      opts_(std::move(opts)),
      engine_(ctx.engine),
      region_envs_(region_envs) {
  HOMP_REQUIRE(ctx.down_links.size() == machine_.links.size() &&
                   ctx.up_links.size() == machine_.links.size(),
               "ExecContext link lanes do not match the machine's links");
  alive_ = std::make_shared<bool>(true);
  // The one validation of every entry point (Runtime::offload,
  // DataRegion::offload, server jobs): bad knob combinations are rejected,
  // every violation in one message, before any planning work starts.
  opts_.validate_or_throw();
  if (region_envs_ != nullptr) {
    HOMP_REQUIRE(maps_.empty(),
                 "offloads inside a data region use the region's mappings; "
                 "per-offload map clauses are not supported");
    HOMP_REQUIRE(forced_loop_dist != nullptr,
                 "offloads inside a data region must use the region's loop "
                 "distribution");
    HOMP_REQUIRE(region_envs_->size() == opts_.device_ids.size(),
                 "region environment count does not match device list");
  }
  validate_and_plan();

  // Prediction context (model-visible peak numbers).
  loop_context_.loop = kernel_.iterations;
  loop_context_.devices =
      model::prediction_inputs(machine_, opts_.device_ids);
  loop_context_.kernel = effective_profile_;

  // Resolve the loop scheduler.
  if (forced_loop_dist != nullptr) {
    HOMP_REQUIRE(forced_loop_dist->domain() == kernel_.iterations,
                 "kernel loop " + kernel_.iterations.to_string() +
                     " does not match region domain " +
                     forced_loop_dist->domain().to_string());
    HOMP_REQUIRE(forced_loop_dist->num_parts() == opts_.device_ids.size(),
                 "data-region device count mismatch");
    scheduler_ = sched::PartitionScheduler::from_distribution(
        *forced_loop_dist);
    algorithm_used_ = opts_.sched.kind;
  } else if (opts_.loop_policy.kind == dist::PolicyKind::kAlign) {
    // Align computation with data: copy the target array's distribution.
    const ArrayPlan* root = nullptr;
    for (const auto& p : plans_) {
      if (p.spec->name == opts_.loop_policy.align_target) root = &p;
    }
    HOMP_REQUIRE(root != nullptr, "dist_schedule ALIGN target '" +
                                      opts_.loop_policy.align_target +
                                      "' is not a mapped array");
    HOMP_REQUIRE(!root->follows_loop,
                 "circular alignment: loop aligns to '" + root->spec->name +
                     "' which aligns back to the loop");
    HOMP_REQUIRE(root->pdim >= 0,
                 "loop cannot align to non-partitioned array '" +
                     root->spec->name + "'");
    dist::Distribution d =
        root->static_dist.aligned(opts_.loop_policy.align_ratio);
    HOMP_REQUIRE(d.domain() == kernel_.iterations,
                 "aligned loop distribution " + d.domain().to_string() +
                     " does not match loop domain " +
                     kernel_.iterations.to_string());
    scheduler_ = sched::PartitionScheduler::from_distribution(std::move(d));
    algorithm_used_ = sched::AlgorithmKind::kBlock;
  } else {
    sched::SchedulerConfig cfg = opts_.sched;
    if (opts_.loop_policy.kind == dist::PolicyKind::kBlock) {
      cfg.kind = sched::AlgorithmKind::kBlock;
    } else if (opts_.loop_policy.kind == dist::PolicyKind::kCyclic) {
      cfg.kind = sched::AlgorithmKind::kCyclic;
      cfg.cyclic_absolute_block = opts_.loop_policy.cyclic_block;
    } else if (opts_.auto_select_algorithm) {
      cfg.kind = sched::select_algorithm(effective_profile_,
                                         loop_context_.devices);
      HOMP_INFO << "AUTO selected " << sched::to_string(cfg.kind) << " for "
                << kernel_.name;
    }
    algorithm_used_ = cfg.kind;
    scheduler_ = sched::make_scheduler(cfg, loop_context_);
  }

  build_proxies(ctx);
  res_ = Resilience::build(*this);
  // Last, so a constructor that throws holds no tag: only the destructor
  // retires it.
  gen_ = engine_.new_generation();
}

void OffloadExecution::validate_and_plan() {
  check_device_ids(machine_, opts_.device_ids);
  HOMP_REQUIRE(!kernel_.iterations.empty(), "offloaded loop is empty");
  HOMP_REQUIRE(kernel_.cost.flops_per_iter >= 0.0 &&
                   kernel_.cost.mem_bytes_per_iter >= 0.0,
               "kernel cost profile has negative entries");
  if (opts_.execute_bodies) {
    HOMP_REQUIRE(kernel_.body != nullptr,
                 "execute_bodies requested but kernel '" + kernel_.name +
                     "' has no body");
  }

  plans_ = plan_arrays(maps_, opts_.device_ids.size(), opts_.loop_label);

  // Chunk schedulers re-slice data per chunk, which requires every
  // partitioned array to follow the loop; pinned (BLOCK) arrays force an
  // aligned single-shot loop distribution.
  const bool loop_is_aligned =
      opts_.loop_policy.kind == dist::PolicyKind::kAlign;
  for (const auto& p : plans_) {
    if (p.pdim >= 0 && !p.follows_loop && !loop_is_aligned) {
      throw ConfigError(
          "array '" + p.spec->name +
          "' has a pinned (BLOCK) distribution; the loop must use "
          "dist_schedule(target:[ALIGN(" +
          p.spec->name + ")]) so computation follows the data");
    }
  }

  // Effective per-iteration transfer bytes, derived from the real maps.
  const double n = static_cast<double>(kernel_.iterations.size());
  double bytes_per_iter = 0.0;
  for (const auto& p : plans_) {
    const auto& s = *p.spec;
    const double dir_factor = (mem::copies_in(s.dir) ? 1.0 : 0.0) +
                              (mem::copies_out(s.dir) ? 1.0 : 0.0);
    if (dir_factor == 0.0) continue;
    if (p.pdim < 0) {
      // Replicated: amortize one full copy over the loop (the models treat
      // transfer as a per-iteration characteristic; see DESIGN.md).
      bytes_per_iter += s.region_bytes() * (mem::copies_in(s.dir) ? 1 : 0) / n;
    } else {
      const double vol = static_cast<double>(s.region.volume());
      const double pdim_size = static_cast<double>(
          s.region.dim(static_cast<std::size_t>(p.pdim)).size());
      const double per_index =
          vol / pdim_size * static_cast<double>(s.binding.elem_size);
      bytes_per_iter += per_index * p.ratio * dir_factor;
    }
  }
  effective_profile_ = kernel_.cost;
  effective_profile_.transfer_bytes_per_iter = bytes_per_iter;
}

void OffloadExecution::build_proxies(const ExecContext& ctx) {
  // Every concurrent execution's transfers ride the context's lanes, so
  // cross-tenant link contention falls out of SharedLink's processor
  // sharing with no further machinery.
  proxies_.clear();
  for (std::size_t slot = 0; slot < opts_.device_ids.size(); ++slot) {
    auto p = std::make_unique<Proxy>();
    p->slot = static_cast<int>(slot);
    p->device_id = opts_.device_ids[slot];
    p->desc = &machine_.devices[static_cast<std::size_t>(p->device_id)];
    const bool transfers = p->desc->memory == mach::MemorySpace::kDiscrete &&
                           !opts_.use_unified_memory &&
                           p->desc->link != mach::kNoLink;
    if (transfers) {
      p->down = ctx.down_links[static_cast<std::size_t>(p->desc->link)].get();
      p->up = ctx.up_links[static_cast<std::size_t>(p->desc->link)].get();
    }
    p->noise = Prng(opts_.noise_seed ^ (0x9e37u * (slot + 1)));
    if (opts_.sched.history != nullptr) {
      p->history_rate = opts_.sched.history->rate(opts_.sched.history_kernel,
                                                  p->device_id);
    }
    p->stats.device_name = p->desc->name;
    p->stats.device_id = p->device_id;
    proxies_.push_back(std::move(p));
  }
}

void OffloadExecution::make_static_mappings(Proxy& p) {
  const bool shared_with_host =
      p.desc->memory == mach::MemorySpace::kShared || opts_.use_unified_memory;
  for (const auto& plan : plans_) {
    if (plan.follows_loop) continue;
    ArraySlice slice = pinned_slice(plan, static_cast<std::size_t>(p.slot));
    auto& m = p.store.create(*plan.spec, std::move(slice.owned),
                             std::move(slice.footprint), shared_with_host,
                             opts_.execute_bodies);
    p.static_env.add(plan.spec->name, &m);
  }
}

void OffloadExecution::make_chunk_mappings(
    Proxy& p, const dist::Range& chunk,
    std::vector<mem::DeviceMapping*>* out) const {
  const bool shared_with_host =
      p.desc->memory == mach::MemorySpace::kShared || opts_.use_unified_memory;
  for (const auto& plan : plans_) {
    if (!plan.follows_loop) continue;
    ArraySlice slice = loop_slice(plan, chunk, /*halo_if_empty=*/true);
    auto& m = p.store.create(*plan.spec, std::move(slice.owned),
                             std::move(slice.footprint), shared_with_host,
                             opts_.execute_bodies);
    out->push_back(&m);
  }
}

double OffloadExecution::compute_seconds(Proxy& p,
                                         const dist::Range& chunk) const {
  const double iters = static_cast<double>(chunk.size());
  const double flops = kernel_.cost.flops_per_iter * iters;
  const double mem = kernel_.cost.mem_bytes_per_iter * iters;
  double t = model::roofline_time(flops, mem, p.desc->sustained_flops(),
                                  p.desc->sustained_membw_Bps())
                 .seconds;

  // Within-device (teams) distribution across the device's parallel
  // units. The sustained_* rates describe all units running flat out, so
  // the base roofline above *is* the perfectly-divisible case; the two
  // effects modelled on top are
  //  (a) quantization: indivisible iterations leave units idle when the
  //      chunk is small (critical path = ceil(size/units) iterations),
  //  (b) skew: with a work_factor, teams BLOCK puts a whole contiguous
  //      subrange on one unit (critical path = heaviest subrange) while
  //      teams CYCLIC interleaves iterations and averages the skew out.
  const int units = p.desc->parallel_units;
  if (!kernel_.cost.divisible_iterations && units > 1 && chunk.size() > 0) {
    const double per_unit =
        std::ceil(iters / static_cast<double>(units));
    t *= per_unit * static_cast<double>(units) / iters;
  }
  if (kernel_.work_factor) {
    if (opts_.teams_policy == dist::PolicyKind::kBlock && units > 1) {
      // Critical path: the heaviest contiguous per-unit subrange.
      const auto parts = dist::Distribution::block(chunk, units).parts();
      double worst = 0.0;
      for (const auto& part : parts) {
        if (part.empty()) continue;
        worst = std::max(worst, kernel_.work_factor(part));
      }
      t *= worst;
    } else {
      t *= kernel_.work_factor(chunk);
    }
  }
  if (opts_.use_unified_memory &&
      p.desc->memory == mach::MemorySpace::kDiscrete &&
      p.desc->link != mach::kNoLink) {
    // On-demand page migration of the chunk's data slice instead of bulk
    // DMA: pay the transfer at a page-fault-degraded rate inside the
    // kernel (§V-C).
    const double slice_bytes =
        effective_profile_.transfer_bytes_per_iter * iters;
    const auto& l =
        machine_.links[static_cast<std::size_t>(p.desc->link)];
    t += model::kUnifiedMemoryFaultFactor * slice_bytes / l.bandwidth_Bps;
  }
  if (p.desc->noise > 0.0) {
    const double factor =
        std::clamp(1.0 + p.desc->noise * p.noise.next_gaussian(), 0.5, 1.5);
    t *= factor;
  }
  return t;
}

void OffloadExecution::pass_serial_token(int slot) {
  if (opts_.parallel_offload || slot != serial_token_) return;
  ++serial_token_;
  if (static_cast<std::size_t>(serial_token_) < proxies_.size()) {
    const int next = serial_token_;
    sched_after(0.0, [this, next] { try_fetch(next); });
  }
}

void OffloadExecution::try_fetch(int slot) {
  if (cancelled_) {
    // Cancelled jobs fetch nothing more: every drain path funnels back
    // here, so the proxy parks the moment its pipeline empties.
    park_proxy(slot);
    maybe_finish();
    return;
  }
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) {
    // A quarantined proxy that still holds the serial token must hand it
    // on, or the remaining devices would never start.
    pass_serial_token(slot);
    return;
  }
  if (p.done || p.finalizing || p.fetching || p.inflight || p.ready ||
      p.waiting_stage) {
    return;
  }
  if (!opts_.parallel_offload && slot > serial_token_) return;

  std::shared_ptr<ChunkRecovery> recovery;
  const std::optional<dist::Range> chunk_opt =
      res_ ? res_->next_chunk(slot, &recovery) : scheduler_->next_chunk(slot);
  if (!chunk_opt) {
    // A proxy handed no work does no serialized setup, so it must pass
    // the token on: a two-stage scheduler can give a device an empty
    // stage-1 sample, and under serialized setup the devices behind it
    // would otherwise never start — deadlocking the stage barrier.
    pass_serial_token(slot);
    if (scheduler_->finished(slot)) {
      check_completion(slot);
    } else if (!p.computing && p.outputs.empty()) {
      // Two-stage scheduler: wait for the others at the stage barrier.
      p.waiting_stage = true;
      p.stage_wait_start = engine_.now();
      check_stage_barrier();
    }
    return;
  }

  p.stats.phase_time[static_cast<int>(Phase::kScheduling)] +=
      kChunkSchedOverheadS;
  ++p.stats.chunks;

  PendingChunk chunk;
  chunk.range = *chunk_opt;
  chunk.fetch_start = engine_.now();
  chunk.recovery = std::move(recovery);

  if (audit_on()) {
    const ChunkRecovery* r = chunk.recovery.get();
    const char* source = "scheduler";
    if (r != nullptr) {
      source = r->integ && r->from_requeue ? "integrity re-execution"
               : r->is_spec                ? "speculative duplicate"
               : r->from_requeue           ? "requeue"
                                           : "probation probe";
    }
    chunk.decision_index =
        note_decision(slot, DecisionKind::kChunkAssigned, chunk.range, source);
  }

  // Inside a data region the data is already resident on the devices:
  // no allocation, no transfers — just compute against the region's
  // environment.
  double alloc_delay = 0.0;
  if (region_envs_ != nullptr) {
    p.alloc_paid = true;
    p.statics_loaded = true;
    chunk.env = (*region_envs_)[static_cast<std::size_t>(slot)].fork(
        0, take_spare(p.spare_envs));
  } else if (!p.alloc_paid) {
    p.alloc_paid = true;
    if (p.desc->memory == mach::MemorySpace::kDiscrete &&
        !opts_.use_unified_memory) {
      alloc_delay = p.desc->alloc_overhead_s *
                    static_cast<double>(maps_.size());
    }
    p.stats.phase_time[static_cast<int>(Phase::kAlloc)] += alloc_delay;
    make_static_mappings(p);
  }

  if (region_envs_ == nullptr) {
    chunk.chunk_maps = take_spare(p.spare_maps);
    chunk.chunk_maps.reserve(plans_.size());
    make_chunk_mappings(p, chunk.range, &chunk.chunk_maps);
    chunk.env = p.static_env.fork(chunk.chunk_maps.size(),
                                  take_spare(p.spare_envs));
    for (auto* m : chunk.chunk_maps) chunk.env.add(m->spec().name, m);

    for (auto* m : chunk.chunk_maps) {
      chunk.bytes_in += m->bytes_in();
      chunk.bytes_out += m->bytes_out();
    }
    // Every chunk is an independent offload transaction: read-only static
    // data (replicated FULL inputs, pinned 'to' arrays) is staged per
    // chunk. This is the "more stages need more memory movement
    // transactions" overhead of Table II, and it is why BLOCK beats
    // SCHED_DYNAMIC on matmul (B is re-shipped with every chunk) while
    // data-intensive kernels with no replicated inputs still profit from
    // dynamic chunking's transfer/compute overlap. Statics the device
    // writes (tofrom) are staged once — restaging would clobber earlier
    // chunk results. Persistent residency across offloads is what data
    // regions are for.
    for (const auto& [_, m] : p.static_env.mappings()) {
      const bool writes_back = mem::copies_out(m->spec().dir);
      if (!p.statics_loaded || !writes_back) chunk.bytes_in += m->bytes_in();
    }
  }

  // The chunk is the proxy's from here on, so a quarantine inside the
  // alloc/scheduling-delay window requeues it with the rest.
  p.fetching = true;
  p.inflight = std::move(chunk);
  if (!p.setup_signalled) {
    p.setup_signalled = true;
    pass_serial_token(slot);
  }

  sched_after(alloc_delay + kChunkSchedOverheadS,
              [this, slot] { issue_input(slot, 1); });
}

void OffloadExecution::issue_input(int slot, int attempt) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.inflight) return;
  const double bytes = p.inflight->bytes_in;
  if (p.down == nullptr || bytes <= 0.0) {
    on_input_done(slot, attempt, 0);
    return;
  }
  const double start = engine_.now();
  // Per-transfer jitter (DMA setup, switch arbitration): without it,
  // same-size transfers on sibling links complete in exact lockstep
  // and the FIFO tie-break systematically hands consecutive tail
  // chunks to one link pair — a knife-edge a real machine never sits
  // on. The jitter lets dynamic chunking self-balance across links.
  const double jitter =
      p.desc->noise > 0.0
          ? bytes / p.down->bandwidth() * p.desc->noise *
                std::abs(p.noise.next_gaussian())
          : 0.0;
  const WireFault wire = res_ ? res_->draw_wire_fault(p) : WireFault{};
  if (attempt == 1) sample_queue_depth(p);
  adjust_outstanding_bytes(p, bytes);
  const std::uint32_t a =
      open_attempt({slot, attempt, start, bytes, jitter, wire, nullptr});
  transfer(p.down, bytes, [this, a] {
    const WireAttempt& sent = attempts_[a];
    adjust_outstanding_bytes(*proxies_[static_cast<std::size_t>(sent.slot)],
                             -sent.bytes);
    // The jitter event runs for a lost proxy too: it is an event of the
    // offload either way.
    sched_after(sent.jitter, [this, a] {
      const WireAttempt w = close_attempt(a);
      Proxy& q = *proxies_[static_cast<std::size_t>(w.slot)];
      if (q.lost || !q.inflight) return;  // quarantined mid-transfer
      if (w.wire.lost) {
        res_->lose_attempt(w.slot, w.start, w.attempt, "copy-in",
                           &q.inflight->range,
                           [this, slot = w.slot, attempt = w.attempt] {
                             issue_input(slot, attempt + 1);
                           });
        return;
      }
      q.stats.phase_time[static_cast<int>(Phase::kCopyIn)] +=
          engine_.now() - w.start;
      span(q, Phase::kCopyIn, w.start, engine_.now(),
           [r = q.inflight->range] { return r.to_string(); });
      on_input_done(w.slot, w.attempt, w.wire.corrupt_seed);
    });
  });
}

std::uint32_t OffloadExecution::open_attempt(WireAttempt a) {
  if (free_attempts_.empty()) {
    attempts_.push_back(std::move(a));
    return static_cast<std::uint32_t>(attempts_.size() - 1);
  }
  const std::uint32_t i = free_attempts_.back();
  free_attempts_.pop_back();
  attempts_[i] = std::move(a);
  return i;
}

OffloadExecution::WireAttempt OffloadExecution::close_attempt(
    std::uint32_t a) {
  free_attempts_.push_back(a);
  return std::move(attempts_[a]);
}

void OffloadExecution::on_input_done(int slot, int attempt,
                                     std::uint64_t wire_seed) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.inflight) return;

  // Perform the real copies now that the transfer has (virtually)
  // completed. Read-only statics are restaged with every chunk (matching
  // the byte accounting — idempotent copies); writable statics only once.
  if (region_envs_ == nullptr) {
    if (opts_.execute_bodies) {
      for (const auto& [_, m] : p.static_env.mappings()) {
        if (!p.statics_loaded || !mem::copies_out(m->spec().dir)) {
          m->copy_in();
        }
      }
    }
    p.statics_loaded = true;
  }
  if (opts_.execute_bodies) {
    for (auto* m : p.inflight->chunk_maps) m->copy_in();
  }

  if (res_ && res_->check_input(slot, attempt, wire_seed)) return;
  input_ready(slot);
}

void OffloadExecution::input_ready(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.inflight) return;
  p.fetching = false;
  p.stats.bytes_in += p.inflight->bytes_in;
  p.ready = std::move(p.inflight);
  p.inflight.reset();
  try_start_compute(slot);
}

void OffloadExecution::try_start_compute(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || p.computing || !p.ready || !p.statics_loaded) return;
  p.computing = std::move(p.ready);
  p.ready.reset();
  start_launch(slot, 1);
}

void OffloadExecution::start_launch(int slot, int attempt) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.computing) return;
  p.compute_started = engine_.now();
  const double launch = p.desc->launch_overhead_s;

  if (res_ && res_->launch_fails(slot, attempt, launch)) return;
  double compute = compute_seconds(p, p.computing->range);
  const bool hangs = res_ && res_->perturb(slot, &compute);
  p.stats.phase_time[static_cast<int>(Phase::kLaunch)] += launch;

  // Prefetch the next chunk while this one computes (double buffering).
  try_fetch(slot);

  ++p.compute_serial;
  if (!hangs) {
    p.stats.phase_time[static_cast<int>(Phase::kCompute)] += compute;
    sched_after(launch + compute,
                           [this, slot] { on_compute_done(slot); });
  }
  if (res_) res_->arm_watchdog(slot, launch);
}

void OffloadExecution::on_compute_done(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.computing) return;  // quarantined; chunk was requeued
  PendingChunk chunk = std::move(*p.computing);
  p.computing.reset();
  ++p.compute_serial;  // invalidates this chunk's pending watchdog events

  span(p, Phase::kCompute, p.compute_started, engine_.now(),
       [r = chunk.range] { return r.to_string(); });
  // Requeued and speculative chunks are recovery work the scheduler never
  // issued; feeding their timings back would skew the profiling rates.
  const ChunkRecovery* r = chunk.recovery.get();
  const bool issued = r == nullptr || (!r->from_requeue && !r->is_spec);
  const bool speculated = r != nullptr && r->token;
  if (issued) {
    scheduler_->report(slot, chunk.range, engine_.now() - chunk.fetch_start);
  }
  if (!speculated && chunk.range.size() > 0) {
    // Healthy completions feed the per-device observed per-iteration time
    // the watchdog uses to loosen its deadline (tardy chunks excluded:
    // they would teach the watchdog to tolerate the very straggling it is
    // meant to catch).
    const double per_iter = (engine_.now() - p.compute_started) /
                            static_cast<double>(chunk.range.size());
    p.ewma_iter_s = p.ewma_iter_s > 0.0
                        ? 0.3 * per_iter + 0.7 * p.ewma_iter_s
                        : per_iter;
    record_counter(p, CounterTrack::kEwmaThroughput, 1.0 / p.ewma_iter_s);
  }

  const double chunk_elapsed = engine_.now() - chunk.fetch_start;
  p.stats.chunk_seconds.observe(chunk_elapsed);
  if (chunk.decision_index < decisions_.size()) {
    decisions_[chunk.decision_index].actual_s = chunk_elapsed;
  }
  if (issued && !speculated) {
    accumulate_prediction_error(p, chunk.range,
                                engine_.now() - p.compute_started,
                                chunk_elapsed);
  }

  if (res_ && res_->superseded(slot, chunk)) {
    p.spare_envs.push_back(std::move(chunk.env));
    try_start_compute(slot);
    try_fetch(slot);
    check_completion(slot);
    return;
  }

  // The body runs now, on the device, against device-resident storage.
  // Its host-visible effects commit when the output transfer lands.
  OutRecord out;
  out.range = chunk.range;
  out.maps = std::move(chunk.chunk_maps);
  if (opts_.execute_bodies) {
    out.reduction = kernel_.body(chunk.range, chunk.env);
  }
  out.recovery = std::move(chunk.recovery);
  p.spare_envs.push_back(std::move(chunk.env));
  bool integ_settled = false;

  if (p.up != nullptr && chunk.bytes_out > 0.0) {
    out.bytes_out = chunk.bytes_out;
    if (res_) res_->seal(out);
    auto rec = std::make_shared<OutRecord>(std::move(out));
    p.outputs.push_back(rec);
    issue_output(slot, std::move(rec), 1);
  } else {
    // Shared memory (or nothing to ship): effects become host-visible the
    // instant compute completes — an atomic commit on the DES engine, so
    // a later loss cannot leave them half-applied.
    integ_settled = res_ && res_->settle_shared(slot, out);
    commit(slot, out);
  }

  sample_queue_depth(p);
  try_start_compute(slot);
  try_fetch(slot);
  if (integ_settled) {
    // Settling an integrity re-execution lifts a *global* completion
    // block; proxies parked on the unresolved chunk need a fresh look.
    sweep_completion();
  } else {
    check_completion(slot);
  }
}

void OffloadExecution::issue_output(int slot, std::shared_ptr<OutRecord> rec,
                                    int attempt) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.holds(rec)) return;
  const double bytes = rec->bytes_out;
  const WireFault wire = res_ ? res_->draw_wire_fault(p) : WireFault{};
  adjust_outstanding_bytes(p, bytes);
  const std::uint32_t a = open_attempt(
      {slot, attempt, engine_.now(), bytes, 0.0, wire, std::move(rec)});
  transfer(p.up, bytes, [this, a] {
    const WireAttempt w = close_attempt(a);
    Proxy& q = *proxies_[static_cast<std::size_t>(w.slot)];
    adjust_outstanding_bytes(q, -w.bytes);
    if (q.lost || !q.holds(w.rec)) return;  // requeued at quarantine
    if (w.wire.lost) {
      res_->lose_attempt(w.slot, w.start, w.attempt, "copy-out",
                         &w.rec->range,
                         [this, slot = w.slot, rec = w.rec,
                          attempt = w.attempt]() mutable {
                           issue_output(slot, std::move(rec), attempt + 1);
                         });
      return;
    }
    q.stats.phase_time[static_cast<int>(Phase::kCopyOut)] +=
        engine_.now() - w.start;
    span(q, Phase::kCopyOut, w.start, engine_.now(),
         [r = w.rec->range] { return r.to_string(); });
    q.stats.bytes_out += w.bytes;  // physically transferred either way
    if (res_ &&
        res_->land_output(w.slot, w.rec, w.wire.corrupt_seed, w.bytes)) {
      return;  // the verified commit follows its checksum scan
    }
    // Unverified commit: only now do the chunk's results reach the host —
    // and only for the first copy of a speculated chunk
    // (first-commit-wins).
    commit(w.slot, *w.rec);
    std::erase(q.outputs, w.rec);
    sample_queue_depth(q);
    // Draining the last output may let this proxy enter (and possibly
    // release) the stage barrier, or finish the offload.
    try_fetch(w.slot);
    check_completion(w.slot);
  });
}

void OffloadExecution::commit(int slot, OutRecord& rec) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (!res_ || res_->claim(slot, rec)) {
    if (opts_.execute_bodies) {
      for (auto* m : rec.maps) m->copy_out();
    }
    p.partial_reduction += rec.reduction;
    p.stats.iterations += rec.range.size();
    record_counter(p, CounterTrack::kIterations,
                   static_cast<double>(p.stats.iterations));
  }
  rec.maps.clear();
  p.spare_maps.push_back(std::move(rec.maps));
}

void OffloadExecution::rouse(Proxy& q) {
  if (q.done) {
    // Revival: the proxy had already finalized, but new work arrived. It
    // re-enters the pipeline and finalizes again later (the repeated
    // static write-back is deterministic byte accounting on idempotent
    // copies, not a correctness hazard).
    q.done = false;
    q.finalizing = false;
  } else if (q.waiting_stage) {
    // Barrier waiters pick up work before re-waiting.
    leave_stage(q, "stage");
  } else if (q.busy()) {
    return;  // busy: picks work up at its next pipeline step
  }
  const int s = q.slot;
  sched_after(0.0, [this, s] { try_fetch(s); });
}

std::size_t OffloadExecution::note_decision(int slot, DecisionKind kind,
                                            const dist::Range& range,
                                            std::string detail) {
  const Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  SchedDecision d;
  d.time = engine_.now();
  d.slot = slot;
  d.device_id = p.device_id;
  d.kind = kind;
  d.range = range;
  d.ewma_iter_s = p.ewma_iter_s;
  d.detail = std::move(detail);
  if (kind == DecisionKind::kChunkAssigned ||
      kind == DecisionKind::kSpeculated) {
    d.chunk_bytes = effective_profile_.transfer_bytes_per_iter *
                    static_cast<double>(range.size());
    predict_chunk(p, range, &d.predicted_model1_s, &d.predicted_model2_s,
                  &d.predicted_profile_s);
  }
  decisions_.push_back(std::move(d));
  return decisions_.size() - 1;
}

void OffloadExecution::record_counter(const Proxy& p, CounterTrack track,
                                      double value) {
  if (!opts_.collect_trace) return;
  counters_.push_back(CounterSample{engine_.now(), p.slot, track, value});
}

void OffloadExecution::sample_queue_depth(const Proxy& p) {
  if (!opts_.collect_trace) return;
  const double depth = (p.inflight ? 1.0 : 0.0) + (p.ready ? 1.0 : 0.0) +
                       (p.computing ? 1.0 : 0.0) +
                       static_cast<double>(p.outputs.size());
  record_counter(p, CounterTrack::kQueueDepth, p.lost ? 0.0 : depth);
}

void OffloadExecution::adjust_outstanding_bytes(Proxy& p, double delta) {
  if (!opts_.collect_trace) return;
  p.outstanding_bytes += delta;
  if (p.outstanding_bytes < 0.0) p.outstanding_bytes = 0.0;
  record_counter(p, CounterTrack::kOutstandingBytes,
                 p.lost ? 0.0 : p.outstanding_bytes);
}

void OffloadExecution::predict_chunk(const Proxy& p, const dist::Range& chunk,
                                     double* model1_s, double* model2_s,
                                     double* profile_s) const {
  const auto& din = loop_context_.devices[static_cast<std::size_t>(p.slot)];
  const double iters = static_cast<double>(chunk.size());
  double m1 = iters * model::model1_iter_time(loop_context_.kernel, din);
  double m2 = iters * model::model2_iter_time(loop_context_.kernel, din) +
              p.desc->launch_overhead_s;
  if (kernel_.work_factor) {
    const double wf = kernel_.work_factor(chunk);
    m1 *= wf;
    m2 *= wf;
  }
  *model1_s = m1;
  *model2_s = m2;
  *profile_s = p.history_rate > 0.0 ? iters / p.history_rate : -1.0;
}

void OffloadExecution::accumulate_prediction_error(Proxy& p,
                                                   const dist::Range& chunk,
                                                   double compute_s,
                                                   double chunk_s) {
  if (chunk.size() <= 0 || compute_s <= 0.0 || chunk_s <= 0.0) return;
  double m1 = 0.0;
  double m2 = 0.0;
  double prof = -1.0;
  predict_chunk(p, chunk, &m1, &m2, &prof);
  PredictionErrorStats& e = p.stats.prediction;
  // MODEL_1 predicts pure compute; MODEL_2 and PROFILE predict the whole
  // fetch-to-compute-done span the scheduler's report() also sees.
  const auto extrema = [](double& mn, double& mx, double v) {
    if (mn < 0.0 || v < mn) mn = v;
    if (v > mx) mx = v;
  };
  const double e1 = std::abs(m1 - compute_s) / compute_s;
  const double e2 = std::abs(m2 - chunk_s) / chunk_s;
  e.model1_err_sum += e1;
  e.model2_err_sum += e2;
  extrema(e.model1_err_min, e.model1_err_max, e1);
  extrema(e.model2_err_min, e.model2_err_max, e2);
  ++e.model_samples;
  if (prof >= 0.0) {
    const double ep = std::abs(prof - chunk_s) / chunk_s;
    e.profile_err_sum += ep;
    extrema(e.profile_err_min, e.profile_err_max, ep);
    ++e.profile_samples;
  }
}

void OffloadExecution::check_stage_barrier() {
  if (!scheduler_->stage_barrier_pending()) return;
  std::size_t waiting = 0;
  std::size_t active = 0;
  for (const auto& p : proxies_) {
    if (p->done || p->lost) continue;
    ++active;
    if (p->waiting_stage && p->outputs.empty()) ++waiting;
  }
  if (waiting != active || active == 0) return;

  scheduler_->advance_stage();
  for (const auto& p : proxies_) {
    if (!p->waiting_stage) continue;
    leave_stage(*p, "stage");
    const int slot = p->slot;
    sched_after(0.0, [this, slot] { try_fetch(slot); });
  }
}

void OffloadExecution::leave_stage(Proxy& p, const char* label) {
  if (!p.waiting_stage) return;
  p.waiting_stage = false;
  p.stats.phase_time[static_cast<int>(Phase::kBarrier)] +=
      engine_.now() - p.stage_wait_start;
  if (label != nullptr) {
    span(p, Phase::kBarrier, p.stage_wait_start, engine_.now(), label);
  }
}

void OffloadExecution::check_completion(int slot) {
  if (cancelled_) {
    park_proxy(slot);
    maybe_finish();
    return;
  }
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.done || p.finalizing || p.lost) return;
  // Unsettled integrity re-executions are mandatory work too: nobody
  // finalizes while a discarded chunk still awaits a verified commit.
  if (!scheduler_->finished(slot) || (res_ && res_->owed_work()) ||
      p.busy()) {
    return;
  }
  finalize_device(slot);
}

void OffloadExecution::sweep_completion() {
  // Serving or settling integrity work changes a *global* completion
  // precondition, so every proxy needs a fresh look — earlier refusals
  // may have parked idle proxies that can now finalize.
  for (const auto& p : proxies_) check_completion(p->slot);
}

void OffloadExecution::finalize_device(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  p.finalizing = true;

  // A device that got work earlier still has its static (pinned/FULL)
  // output regions to write back; one that never computed has nothing.
  double bytes = p.statics_loaded ? p.static_env.total_bytes_out() : 0.0;
  if (kernel_.has_reduction && p.up != nullptr && p.stats.iterations > 0) {
    bytes += 8.0;  // the device's partial reduction value
  }
  if (p.up != nullptr && bytes > 0.0) {
    issue_finalize(slot, bytes, 1);
  } else {
    complete_finalize(slot);
  }

  // A device that finished without ever fetching must pass the token on.
  pass_serial_token(slot);
}

void OffloadExecution::issue_finalize(int slot, double bytes, int attempt) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) return;
  const WireFault wire = res_ ? res_->draw_wire_fault(p) : WireFault{};
  adjust_outstanding_bytes(p, bytes);
  const std::uint32_t a =
      open_attempt({slot, attempt, engine_.now(), bytes, 0.0, wire, nullptr});
  transfer(p.up, bytes, [this, a] {
    const WireAttempt w = close_attempt(a);
    Proxy& q = *proxies_[static_cast<std::size_t>(w.slot)];
    adjust_outstanding_bytes(q, -w.bytes);
    if (q.lost) return;  // quarantined mid-write-back
    if (w.wire.lost) {
      res_->lose_attempt(w.slot, w.start, w.attempt, "write-back", nullptr,
                         [this, slot = w.slot, bytes = w.bytes,
                          attempt = w.attempt] {
                           issue_finalize(slot, bytes, attempt + 1);
                         });
      return;
    }
    q.stats.phase_time[static_cast<int>(Phase::kCopyOut)] +=
        engine_.now() - w.start;
    q.stats.bytes_out += w.bytes;
    if (w.wire.corrupt_seed != 0 &&
        res_->resend_write_back(w.slot, w.attempt, w.bytes)) {
      return;
    }
    complete_finalize(w.slot);
  });
}

void OffloadExecution::complete_finalize(int slot) {
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  if (opts_.execute_bodies && q.statics_loaded) {
    q.static_env.copy_out_all();
  }
  q.done = true;
  q.stats.finish_time = engine_.now();
  // Redistribution work may have arrived while the write-back was in
  // flight; a healthy finished device takes its share.
  if (res_ && res_->has_work_for(slot)) rouse(q);
  maybe_finish();
}

void OffloadExecution::start(std::function<void(OffloadResult&&)>
                                 on_complete) {
  HOMP_REQUIRE(!ran_, "OffloadExecution launched twice");
  HOMP_REQUIRE(on_complete != nullptr, "start() needs a completion callback");
  ran_ = true;
  on_complete_ = std::move(on_complete);
  start_time_ = engine_.now();
  events_at_launch_ = engine_.events_processed();

  // CUTOFF verdicts are part of the audit trail: one record per slot at
  // launch time, carrying the renormalized weight (Table V's predicted
  // contribution) in the detail field.
  if (audit_on()) {
    if (const auto* cut = scheduler_->cutoff()) {
      for (const auto& p : proxies_) {
        const auto s = static_cast<std::size_t>(p->slot);
        const bool kept = s < cut->selected.size() && cut->selected[s];
        // Kept devices report their renormalized share (Table V's
        // predicted contribution); dropped devices report the pre-drop
        // share — their renormalized weight is 0 by definition, which
        // would erase the very figure drop-regret analysis needs.
        const double w = kept ? (s < cut->weights.size() ? cut->weights[s] : 0.0)
                              : (s < cut->pre_weights.size()
                                     ? cut->pre_weights[s]
                                     : 0.0);
        note_decision(p->slot,
                      kept ? DecisionKind::kCutoffKept
                           : DecisionKind::kCutoffDropped,
                      dist::Range(),
                      "weight " + std::to_string(w) +
                          (kept ? "" : " below the cutoff ratio"));
      }
    }
  }

  for (std::size_t slot = 0; slot < proxies_.size(); ++slot) {
    const int s = static_cast<int>(slot);
    sched_after(0.0, [this, s] { try_fetch(s); });
  }
  if (res_) res_->arm_losses();
}

void OffloadExecution::maybe_finish() {
  if (finished_) return;
  for (const auto& p : proxies_) {
    if (!p->done && !p->lost) return;
  }
  // Owed work (requeue, unsettled integrity re-executions) holds the
  // result even when every surviving proxy believes it is done
  // (check_completion would have parked them, not finalized them — but a
  // quarantine can strand the queue momentarily). A cancelled job owes
  // nothing: its results are discarded anyway.
  if (!cancelled_ && res_ && res_->owed_work()) return;
  finish_now();
}

void OffloadExecution::finish_now() {
  if (finished_) return;
  finished_ = true;
  engine_events_ = engine_.events_processed() - events_at_launch_;
  // Revoke every timer this job ever armed — watchdog deadlines, loss
  // schedules, retry backoffs, probation cooldowns. After delivery the
  // owner may destroy the execution: nothing tagged can fire, and the
  // untagged link completions are made inert by the alive_ sentinel.
  engine_.cancel_generation(gen_);
  // Deliver from a fresh event: the caller's completion handler may
  // destroy queues, launch new executions — or destroy *this* — which
  // must not run inside whatever commit chain called us. Move the
  // callback to a local before invoking: its body may free the member.
  // The one untagged arm: the generation was just revoked, and alive_
  // makes the delivery inert once the owner destroys the execution.
  std::weak_ptr<bool> alive = std::weak_ptr<bool>(alive_);
  // homp-lint: allow(HL006)
  engine_.schedule_after(0.0, [this, alive] {
    if (alive.expired()) return;
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb(harvest());
  });
}

bool OffloadExecution::admit_event() {
  if (failed_) return false;  // the domain is sealed
  if (opts_.harness.step_budget > 0 &&
      ++events_used_ >
          static_cast<std::size_t>(opts_.harness.step_budget)) {
    fail(FailClass::kStepBudget,
         "job step budget (" + std::to_string(opts_.harness.step_budget) +
             " events) exhausted during offload of '" + kernel_.name +
             "' — livelock or deadlock suspected");
    return false;
  }
  return true;
}

void OffloadExecution::fail(FailClass cls, std::string what) {
  if (finished_ || failed_) return;
  failed_ = true;
  if (!cancelled_) {
    // A failure that lands while a cancellation is draining completes
    // the cancellation; the first terminal cause keeps its class.
    fail_class_ = cls;
    fail_error_ = std::move(what);
  }
  finish_now();
}

void OffloadExecution::request_cancel(FailClass cls, std::string reason) {
  if (finished_ || failed_ || cancelled_) return;
  cancelled_ = true;
  fail_class_ = cls;
  fail_error_ = std::move(reason);
  // Park everything idle right now; busy proxies drain their in-flight
  // transfer/compute and park when their pipeline next reaches
  // try_fetch / check_completion.
  for (const auto& p : proxies_) park_proxy(p->slot);
  maybe_finish();
}

void OffloadExecution::park_proxy(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.done || p.lost) {
    pass_serial_token(slot);
    return;
  }
  leave_stage(p, "stage (cancelled)");
  if (p.busy()) return;  // drains back through try_fetch and parks there
  // No final static write-back: a cancelled job's results are discarded,
  // so it does not get to occupy the up-lane on its way out.
  p.done = true;
  p.stats.finish_time = engine_.now();
  pass_serial_token(slot);
}

OffloadResult OffloadExecution::run() {
  std::optional<OffloadResult> res;
  start([&res](OffloadResult&& r) { res = std::move(r); });
  engine_.run();
  // Drained without a delivery: harvest() names the device that never
  // completed.
  if (!res) res = harvest();
  if (res->failed) throw OffloadError(res->error, res->fail_class);
  return std::move(*res);
}

OffloadResult OffloadExecution::harvest() {
  OffloadResult res;
  const bool aborted = failed_ || cancelled_;
  res.failed = failed_ && !cancelled_;
  res.cancelled = cancelled_;
  res.fail_class = fail_class_;
  res.error = fail_error_;
  res.engine_events = engine_events_;
  res.algorithm_used = algorithm_used_;
  res.planned_weights = scheduler_->planned_weights();
  if (const auto* cut = scheduler_->cutoff()) {
    res.cutoff = *cut;
    res.has_cutoff = true;
  }
  res.chunks_issued = scheduler_->chunks_issued();
  if (res_) {
    res.fault_events = std::move(res_->fault_events);
    res.recovery_events = std::move(res_->recovery_events);
  }
  res.decisions = std::move(decisions_);
  res.counters = std::move(counters_);

  double end = 0.0;
  long long covered = 0;
  for (auto& p : proxies_) {
    if (p->stats.quarantine_count > 0) res.degraded = true;
    if (p->stats.quarantined) {
      // Chunks this device committed before its quarantine are valid host
      // results and stay counted; the rest were redistributed. The device
      // was lost before it completed, so the offload cannot end earlier.
      p->stats.finish_time = p->stats.quarantined_at;
      end = std::max(end, p->stats.quarantined_at);
      covered += p->stats.iterations;
      continue;
    }
    if (!aborted) {
      HOMP_REQUIRE(p->done, "device '" + p->desc->name +
                                "' never completed — scheduler deadlock");
    } else if (!p->done) {
      // The failure sealed the domain mid-flight; the proxy's clock
      // stops at the seal, not at some never-reached finish.
      p->stats.finish_time = engine_.now();
    }
    end = std::max(end, p->stats.finish_time);
    covered += p->stats.iterations;
  }
  // A failed or cancelled job surrenders its coverage guarantee: the
  // record carries whatever partial iteration counts accrued.
  if (!aborted) HOMP_ASSERT(covered == kernel_.iterations.size());
  end = std::max(end, start_time_);
  res.total_time = end - start_time_;

  res.devices.reserve(proxies_.size());
  for (auto& p : proxies_) {
    if (!p->stats.quarantined) {
      p->stats.phase_time[static_cast<int>(Phase::kBarrier)] +=
          end - p->stats.finish_time;
      span(*p, Phase::kBarrier, p->stats.finish_time, end, "final");
    }
    // Stats times are job-relative (launch = 0) so imbalance() and the
    // throughput feedback read the same whether the execution ran
    // on a reset context (start_time_ == 0: identity) or a shared one.
    // Trace spans above stay absolute for multi-tenant interleaving.
    p->stats.finish_time = std::max(0.0, p->stats.finish_time - start_time_);
    if (p->stats.quarantined) {
      p->stats.quarantined_at =
          std::max(0.0, p->stats.quarantined_at - start_time_);
    }
    res.reduction += p->partial_reduction;
    res.devices.push_back(p->stats);
    if (opts_.collect_trace) {
      res.trace.insert(res.trace.end(), p->spans.begin(), p->spans.end());
    }
  }

  if (opts_.harness.capture_result_checksum && opts_.execute_bodies &&
      region_envs_ == nullptr && !aborted) {
    // Differential-oracle tap (docs/FUZZING.md): fold every copies-out
    // host array into one digest, in map order. The reduction is
    // deliberately excluded — its partial-sum grouping differs across
    // algorithms, so the oracle compares it under a tolerance, never
    // bit-exactly. Only packed row-major bindings are digestible; a
    // strided view leaves the checksum invalid rather than silently
    // covering a subset of the result.
    Checksummer sum(ChecksumKind::kMix64);
    bool digestible = true;
    for (const auto& spec : maps_) {
      if (!mem::copies_out(spec.dir)) continue;
      const mem::ArrayBinding& b = spec.binding;
      long long elems = 1;
      bool packed = b.base != nullptr;
      for (std::size_t d = b.shape.size(); d-- > 0;) {
        if (b.strides[d] != elems) packed = false;
        elems *= b.shape[d];
      }
      if (!packed) {
        digestible = false;
        break;
      }
      sum.update(b.base, static_cast<std::size_t>(elems) * b.elem_size);
    }
    if (digestible) {
      res.result_checksum = sum.digest();
      res.result_checksum_valid = true;
    }
  }
  return res;
}

}  // namespace homp::rt
