#include "runtime/offload_exec.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <type_traits>
#include <utility>

#include "common/checksum.h"
#include "common/error.h"
#include "common/log.h"
#include "common/prng.h"
#include "dist/align.h"
#include "model/cost.h"
#include "model/loop_model.h"
#include "sched/extended_sched.h"
#include "sched/partition_sched.h"
#include "sched/selector.h"

namespace homp::rt {

namespace {
/// Cost of one chunk acquisition (shared-cursor CAS plus bookkeeping on
/// the proxy thread).
constexpr double kChunkSchedOverheadS = 1e-6;
}  // namespace

/// How one mapped array participates in the distribution.
struct OffloadExecution::SpecPlan {
  const mem::MapSpec* spec = nullptr;
  int pdim = -1;            ///< partitioned dimension, -1 = FULL
  bool follows_loop = false;  ///< owned region derived from loop chunks
  double ratio = 1.0;       ///< composite ALIGN ratio to the loop / root
  dist::Distribution static_dist;  ///< for partitioned non-following arrays
};

/// Shared state of the copies of one tardy chunk racing to commit.
/// Exactly one copy wins (`committed` flips once, on the single-threaded
/// engine); every other copy discards its results before they reach the
/// host, so the race cannot double-apply effects or corrupt arrays.
struct OffloadExecution::SpecToken {
  dist::Range range;
  int origin_slot = -1;   ///< the tardy device that triggered speculation
  int runners = 0;        ///< copies currently in some pipeline
  bool committed = false; ///< a copy's host effects have landed
  bool queued = false;    ///< still offered in spec_queue_
  /// Non-null once a copy of this chunk failed payload verification; the
  /// surviving racers inherit the integrity state so a late clean copy
  /// settles the chunk instead of re-queueing it.
  std::shared_ptr<IntegrityState> integ;
};

/// Shared recovery state of one chunk whose commit failed payload
/// verification (docs/RESILIENCE.md "Integrity"). The chunk is queued
/// for re-execution on another device; after `vote_after_failures`
/// mismatches it escalates to voting, where each execution becomes a
/// ballot keyed by its payload checksum and the chunk commits only once
/// `vote_quorum` ballots agree on the same sum.
struct OffloadExecution::IntegrityState {
  dist::Range range;
  int failures = 0;     ///< verification mismatches observed so far
  int executions = 0;   ///< re-executions served from the integrity queue
  bool voting = false;  ///< escalated to quorum voting
  bool resolved = false;  ///< the range's host commit has landed
  std::vector<int> suspects;  ///< slots whose payload failed verification
  std::vector<int> balloted;  ///< slots that already cast a ballot
  struct Ballot {
    std::uint64_t sum = 0;
    int count = 0;
  };
  std::vector<Ballot> ballots;  ///< distinct payload sums seen while voting
};

/// A chunk moving through a proxy's pipeline.
struct OffloadExecution::PendingChunk {
  dist::Range range;
  std::vector<mem::DeviceMapping*> chunk_maps;
  mem::DeviceDataEnv env;      ///< statics + chunk slices
  double fetch_start = 0.0;    ///< virtual time the chunk was acquired
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  bool from_requeue = false;   ///< redistributed after a quarantine
  std::shared_ptr<SpecToken> token;  ///< non-null once speculated
  bool is_spec = false;        ///< this copy is the speculative duplicate
  bool is_probe = false;       ///< probation probe chunk
  /// Non-zero: FaultPlan decided this chunk's kernel output is silently
  /// corrupted; the seed drives the injected bit flips.
  std::uint64_t corrupt_seed = 0;
  std::shared_ptr<IntegrityState> integ;  ///< set for re-executions
  /// Index of this chunk's kChunkAssigned audit record (actual_s is
  /// backfilled at compute completion); npos when audit is off.
  std::size_t decision_index = static_cast<std::size_t>(-1);
};

/// A computed chunk awaiting its host commit. On a discrete device its
/// results are still device-resident while the output transfer is in
/// flight (possibly retrying): host-visible effects — copy_out into host
/// arrays, the partial reduction, the iteration count — commit only when
/// the transfer succeeds, so a device quarantined mid-copy-out leaves the
/// host bit-identical and its chunk free to requeue. A shared-memory
/// chunk commits the instant its compute completes.
struct OffloadExecution::OutRecord {
  dist::Range range;
  std::vector<mem::DeviceMapping*> maps;
  double bytes_out = 0.0;
  double reduction = 0.0;  ///< body result, committed on success
  bool abandoned = false;  ///< quarantine requeued this chunk
  std::shared_ptr<SpecToken> token;  ///< first-commit-wins gate
  bool is_spec = false;
  bool is_probe = false;
  /// Integrity verification (docs/RESILIENCE.md "Integrity"). The three
  /// sums snapshot the payload at each hand-off: after the kernel body
  /// (`sum_result`), after any injected compute corruption
  /// (`sum_payload`, the device-side checksum shipped with the chunk),
  /// and as received after the output transfer (`sum_wire`). The commit
  /// compares them to tell a corrupted kernel result from a corrupted
  /// transfer.
  bool verify = false;
  std::uint64_t sum_result = 0;
  std::uint64_t sum_payload = 0;
  std::uint64_t sum_wire = 0;
  std::shared_ptr<IntegrityState> integ;
};

/// Whether the wire loses a transfer attempt and, if it lands, the seed
/// of its silent payload corruption (0 = clean).
struct OffloadExecution::WireFault {
  bool lost = false;
  std::uint64_t corrupt_seed = 0;
};

/// Per-device proxy actor state.
struct OffloadExecution::Proxy {
  int slot = -1;
  int device_id = -1;
  const mach::DeviceDescriptor* desc = nullptr;
  sim::SharedLink* down = nullptr;  ///< host -> device lane
  sim::SharedLink* up = nullptr;    ///< device -> host lane
  Prng noise{0};

  mem::MappingStore store;
  mem::DeviceDataEnv static_env;
  bool statics_loaded = false;
  bool alloc_paid = false;
  bool setup_signalled = false;  ///< for serialized (!parallel) offloading

  bool fetching = false;
  std::optional<PendingChunk> inflight;   ///< input transfer in progress
  std::optional<PendingChunk> ready;      ///< resident, awaiting compute
  std::optional<PendingChunk> computing;  ///< kernel in progress
  double compute_started = 0.0;
  std::vector<std::shared_ptr<OutRecord>> outputs;  ///< in-flight copy-outs

  bool waiting_stage = false;
  double stage_wait_start = 0.0;
  bool finalizing = false;
  bool done = false;

  bool lost = false;        ///< quarantined (possibly re-admitted later)
  double loss_time = -1.0;  ///< scheduled permanent loss; < 0 = never

  /// Watchdog / probation state.
  std::uint64_t compute_serial = 0;  ///< guards stale watchdog events
  double degrade_factor = 1.0;  ///< latched sustained-slowdown multiplier
  double ewma_iter_s = 0.0;     ///< observed per-iteration time (EWMA)
  bool probation = false;       ///< re-admitted, serving probe chunks
  int probes_passed = 0;

  double partial_reduction = 0.0;
  double outstanding_bytes = 0.0;  ///< transfer bytes currently in flight
  DeviceStats stats;
  std::vector<TraceSpan> spans;

  /// Anything in the pipeline: fetching, staged, computing, finalizing
  /// or copying out.
  bool busy() const {
    return fetching || inflight || ready || computing || finalizing ||
           !outputs.empty();
  }
};

template <class Label>
void OffloadExecution::span(Proxy& p, Phase phase, double t0, double t1,
                            const Label& label) {
  if (!opts_.collect_trace || t1 <= t0) return;
  std::string text;
  if constexpr (std::is_invocable_v<const Label&>) {
    text = label();
  } else {
    text = label;
  }
  p.spans.push_back(
      TraceSpan{p.slot, p.desc->name, phase, t0, t1, std::move(text)});
}

OffloadExecution::~OffloadExecution() {
  // Shared mode: revoke anything still pending (normally finish_now()
  // already did — this covers owners tearing down mid-flight). The
  // context's engine outlives the execution by contract.
  if (ctx_ != nullptr) engine_.cancel_generation(gen_);
}

OffloadExecution::OffloadExecution(const mach::MachineDescriptor& machine,
                                   const LoopKernel& kernel,
                                   const std::vector<mem::MapSpec>& maps,
                                   const OffloadOptions& opts,
                                   const dist::Distribution* forced_loop_dist,
                                   const std::vector<mem::DeviceDataEnv>*
                                       region_envs,
                                   const ExecContext* ctx)
    : machine_(machine),
      kernel_(kernel),
      maps_(maps),
      opts_(opts),
      ctx_(ctx),
      owned_engine_(ctx == nullptr ? std::make_unique<sim::Engine>()
                                   : nullptr),
      engine_(ctx == nullptr ? *owned_engine_ : *ctx->engine),
      region_envs_(region_envs) {
  if (ctx_ != nullptr) {
    HOMP_REQUIRE(ctx_->engine != nullptr,
                 "ExecContext has no engine");
    HOMP_REQUIRE(ctx_->down_links.size() == machine_.links.size() &&
                     ctx_->up_links.size() == machine_.links.size(),
                 "ExecContext link lanes do not match the machine's links");
    gen_ = engine_.new_generation();
    alive_ = std::make_shared<bool>(true);
  }
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
                 "data-region loop distribution does not cover this loop");
    HOMP_REQUIRE(forced_loop_dist->num_parts() == opts_.device_ids.size(),
                 "data-region device count mismatch");
    scheduler_ = sched::PartitionScheduler::from_distribution(
        *forced_loop_dist);
    algorithm_used_ = opts_.sched.kind;
  } else if (opts_.loop_policy.kind == dist::PolicyKind::kAlign) {
    // Align computation with data: copy the target array's distribution.
    const SpecPlan* root = nullptr;
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

  build_proxies();
  build_fault_plan();
}

void OffloadExecution::build_fault_plan() {
  // Option values were already validated (OffloadOptions::validate_or_throw
  // in the constructor); this only derives the runtime plan from them.
  const WatchdogOptions& w = opts_.watchdog;
  probe_grain_ = w.probe_iterations > 0
                     ? w.probe_iterations
                     : std::max(opts_.sched.min_chunk,
                                kernel_.iterations.size() / 64);
  if (probe_grain_ < 1) probe_grain_ = 1;

  fault_plan_.set_seed(opts_.fault.seed);
  for (const auto& p : proxies_) {
    const sim::FaultProfile combined =
        p->desc->fault.combined(opts_.fault.extra);
    if (combined.any()) fault_plan_.set_profile(p->device_id, combined);
  }
  for (const auto& f : opts_.fault.scripted) fault_plan_.add_scripted(f);
  fault_active_ = fault_plan_.active();
  // Checksumming is armed whenever it could matter (fault injection on) or
  // when explicitly requested (`integrity.always`, to measure its cost).
  // Offloads inside a data region move no per-chunk bytes — integrity of
  // the region's bulk transfers is the DataRegion's own verified exit.
  integrity_armed_ = opts_.integrity.enabled && region_envs_ == nullptr &&
                     (fault_active_ || opts_.integrity.always);
}

void OffloadExecution::validate_and_plan() {
  HOMP_REQUIRE(!opts_.device_ids.empty(), "offload has no target devices");
  for (int id : opts_.device_ids) {
    HOMP_REQUIRE(id >= 0 &&
                     static_cast<std::size_t>(id) < machine_.devices.size(),
                 "device id " + std::to_string(id) + " out of range");
  }
  for (std::size_t i = 0; i < opts_.device_ids.size(); ++i) {
    for (std::size_t j = i + 1; j < opts_.device_ids.size(); ++j) {
      HOMP_REQUIRE(opts_.device_ids[i] != opts_.device_ids[j],
                   "device " + std::to_string(opts_.device_ids[i]) +
                       " listed twice");
    }
  }
  HOMP_REQUIRE(!kernel_.iterations.empty(), "offloaded loop is empty");
  HOMP_REQUIRE(kernel_.cost.flops_per_iter >= 0.0 &&
                   kernel_.cost.mem_bytes_per_iter >= 0.0,
               "kernel cost profile has negative entries");
  if (opts_.execute_bodies) {
    HOMP_REQUIRE(kernel_.body != nullptr,
                 "execute_bodies requested but kernel '" + kernel_.name +
                     "' has no body");
  }

  // ALIGN chains resolve through one graph (§V-D): BLOCK arrays and the
  // loop label are its roots.
  const std::size_t m = opts_.device_ids.size();
  std::set<std::string> names;
  dist::AlignmentGraph align;
  for (const auto& s : maps_) {
    s.validate();
    HOMP_REQUIRE(names.insert(s.name).second,
                 "variable '" + s.name + "' mapped twice");
    const int pdim = s.partitioned_dim();
    if (pdim < 0) continue;
    const auto d = static_cast<std::size_t>(pdim);
    const dist::DimPolicy pol = s.partitioned_policy();
    if (pol.kind == dist::PolicyKind::kBlock) {
      align.set_concrete(s.name, dist::Distribution::block(s.region.dim(d), m));
    } else {
      HOMP_ASSERT(pol.kind == dist::PolicyKind::kAlign);
      align.set_aligned(s.name, pol.align_target, pol.align_ratio);
    }
  }
  align.set_concrete(opts_.loop_label, dist::Distribution());

  plans_.clear();
  plans_.reserve(maps_.size());
  for (const auto& s : maps_) {
    SpecPlan plan;
    plan.spec = &s;
    plan.pdim = s.partitioned_dim();
    if (plan.pdim < 0) {
      // FULL replication: multi-device copy-out of a replicated array is
      // ill-defined (every device would write the whole array).
      HOMP_REQUIRE(!mem::copies_out(s.dir) || m == 1,
                   "array '" + s.name +
                       "' is replicated (FULL) but mapped '" +
                       to_string(s.dir) +
                       "' on multiple devices; partition it or use a "
                       "reduction");
      plans_.push_back(std::move(plan));
      continue;
    }
    // An array whose chain roots at the loop label follows the loop's
    // chunks; the rest take their root's BLOCK distribution.
    plan.follows_loop = align.root_of(s.name) == opts_.loop_label;
    plan.ratio = align.ratio_to_root(s.name);
    if (!plan.follows_loop) {
      plan.static_dist = align.resolve(s.name);
      HOMP_REQUIRE(
          plan.static_dist.domain() ==
              s.region.dim(static_cast<std::size_t>(plan.pdim)),
          "aligned distribution domain mismatch for '" + s.name + "'");
    }
    plans_.push_back(std::move(plan));
  }

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

void OffloadExecution::build_proxies() {
  if (ctx_ != nullptr) {
    // Shared-engine mode: every concurrent execution's transfers ride
    // the server's lanes, so cross-tenant link contention falls out of
    // SharedLink's processor sharing with no further machinery.
    down_links_ = ctx_->down_links;
    up_links_ = ctx_->up_links;
  } else {
    // One pair of full-duplex lanes per machine link, owned.
    owned_down_links_.resize(machine_.links.size());
    owned_up_links_.resize(machine_.links.size());
    down_links_.resize(machine_.links.size());
    up_links_.resize(machine_.links.size());
    for (std::size_t i = 0; i < machine_.links.size(); ++i) {
      const auto& l = machine_.links[i];
      owned_down_links_[i] = std::make_unique<sim::SharedLink>(
          engine_, l.name + ".down", l.latency_s, l.bandwidth_Bps);
      owned_up_links_[i] = std::make_unique<sim::SharedLink>(
          engine_, l.name + ".up", l.latency_s, l.bandwidth_Bps);
      down_links_[i] = owned_down_links_[i].get();
      up_links_[i] = owned_up_links_[i].get();
    }
  }

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
      p->down = down_links_[static_cast<std::size_t>(p->desc->link)];
      p->up = up_links_[static_cast<std::size_t>(p->desc->link)];
    }
    p->noise = Prng(opts_.noise_seed ^ (0x9e37u * (slot + 1)));
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
    const auto& s = *plan.spec;
    dist::Region owned = s.region;
    dist::Region footprint = s.region;
    if (plan.pdim >= 0) {
      const auto d = static_cast<std::size_t>(plan.pdim);
      const dist::Range part =
          plan.static_dist.part(static_cast<std::size_t>(p.slot));
      owned = s.region.with_dim(d, part.clamped_to(s.region.dim(d)));
      footprint = s.region.with_dim(
          d, part.widened(s.halo_before, s.halo_after)
                 .clamped_to(s.region.dim(d)));
      if (part.empty()) footprint = owned;  // no data for this device
    }
    auto& m = p.store.create(s, owned, footprint, shared_with_host,
                             opts_.execute_bodies);
    p.static_env.add(s.name, &m);
  }
}

void OffloadExecution::make_chunk_mappings(
    Proxy& p, const dist::Range& chunk,
    std::vector<mem::DeviceMapping*>* out) const {
  const bool shared_with_host =
      p.desc->memory == mach::MemorySpace::kShared || opts_.use_unified_memory;
  for (const auto& plan : plans_) {
    if (!plan.follows_loop) continue;
    const auto& s = *plan.spec;
    const auto d = static_cast<std::size_t>(plan.pdim);
    const dist::Range owned_dim =
        chunk.scaled(plan.ratio).clamped_to(s.region.dim(d));
    const dist::Range fp_dim = owned_dim.widened(s.halo_before, s.halo_after)
                                   .clamped_to(s.region.dim(d));
    auto& m = p.store.create(s, s.region.with_dim(d, owned_dim),
                             s.region.with_dim(d, fp_dim), shared_with_host,
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

dist::Range OffloadExecution::take_requeue() {
  HOMP_ASSERT(!requeue_.empty());
  dist::Range& front = requeue_.front();
  const long long take = std::min(requeue_grain_, front.size());
  const dist::Range chunk(front.lo, front.lo + take);
  front.lo += take;
  if (front.empty()) requeue_.pop_front();
  return chunk;
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

  std::optional<dist::Range> chunk_opt;
  bool from_requeue = false;
  std::shared_ptr<SpecToken> token;
  std::shared_ptr<IntegrityState> integ;
  bool is_spec = false;
  bool is_probe = false;
  while (!integrity_queue_.empty() && integrity_queue_.front()->resolved) {
    integrity_queue_.pop_front();
  }
  for (auto it = integrity_queue_.begin(); it != integrity_queue_.end();
       ++it) {
    // Chunks that failed payload verification outrank everything else:
    // they sit on the critical path (completion waits on them) and may
    // need several sequential vote rounds to settle.
    if ((*it)->resolved || !integrity_slot_allowed(**it, slot)) continue;
    integ = *it;
    integrity_queue_.erase(it);
    break;
  }
  if (integ) {
    chunk_opt = integ->range;
    from_requeue = true;  // recovery work, not the scheduler's own chunk
    ++integ->executions;
    ++p.stats.integrity_reexecutions;
    if (integ->voting) ++p.stats.vote_rounds;
  } else if (!requeue_.empty()) {
    // Orphaned iterations of a quarantined device are served first, in
    // dynamic grains, regardless of the algorithm in use — the
    // redistribution fallback that lets single-stage (BLOCK/MODEL) plans
    // survive a device loss.
    chunk_opt = take_requeue();
    from_requeue = true;
  } else {
    // Speculative duplicates of tardy chunks come next. Not for the tardy
    // device itself (it is still running the original) and not for
    // probation devices (probes must be cheap scheduler work).
    while (!spec_queue_.empty() && spec_queue_.front()->committed) {
      spec_queue_.front()->queued = false;
      spec_queue_.pop_front();
    }
    if (!p.probation) {
      for (auto it = spec_queue_.begin(); it != spec_queue_.end(); ++it) {
        if ((*it)->committed || (*it)->origin_slot == slot) continue;
        token = *it;
        spec_queue_.erase(it);
        token->queued = false;
        ++token->runners;
        is_spec = true;
        chunk_opt = token->range;
        ++p.stats.spec_copies_run;
        break;
      }
    }
    if (!chunk_opt) chunk_opt = scheduler_->next_chunk(slot);
  }
  if (chunk_opt && p.probation && !is_spec && !integ) {
    // Probation: serve only a small probe; the rest goes back to the
    // requeue where any device (including this one, later) can take it.
    is_probe = true;
    ++p.stats.probe_chunks;
    if (chunk_opt->size() > probe_grain_) {
      requeue_.push_front(
          dist::Range(chunk_opt->lo + probe_grain_, chunk_opt->hi));
      chunk_opt = dist::Range(chunk_opt->lo, chunk_opt->lo + probe_grain_);
      kick_survivors();
    }
  }
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
  chunk.from_requeue = from_requeue;
  chunk.token = std::move(token);
  chunk.is_spec = is_spec;
  chunk.is_probe = is_probe;
  // A speculative copy of a chunk that already failed verification
  // inherits its integrity state (set when the mismatch happened after
  // speculation started).
  chunk.integ =
      integ ? std::move(integ) : (chunk.token ? chunk.token->integ : nullptr);

  if (audit_on()) {
    const char* source = chunk.integ && chunk.from_requeue
                             ? "integrity re-execution"
                             : chunk.is_spec     ? "speculative duplicate"
                             : chunk.from_requeue ? "requeue"
                             : chunk.is_probe     ? "probation probe"
                                                  : "scheduler";
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
    chunk.env = (*region_envs_)[static_cast<std::size_t>(slot)].fork();
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
    make_chunk_mappings(p, chunk.range, &chunk.chunk_maps);
    chunk.env = p.static_env.fork();
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
    for (const auto& name : p.static_env.names()) {
      const auto& m = p.static_env.mapping(name);
      const bool writes_back = mem::copies_out(m.spec().dir);
      if (!p.statics_loaded || !writes_back) chunk.bytes_in += m.bytes_in();
    }
  }

  p.fetching = true;
  if (!p.setup_signalled) {
    p.setup_signalled = true;
    pass_serial_token(slot);
  }

  sched_after(alloc_delay + kChunkSchedOverheadS,
              [this, slot,
               c = std::make_shared<PendingChunk>(std::move(chunk))] {
    Proxy& pr = *proxies_[static_cast<std::size_t>(slot)];
    if (pr.lost) {
      // Quarantined inside the alloc/scheduling-delay window: hand the
      // chunk straight back for redistribution.
      if (release(c->token, c->integ)) {
        pr.stats.requeued_iterations += requeue(c->range);
      }
      kick_survivors();
      return;
    }
    pr.inflight = std::move(*c);
    issue_input(slot, 1);
  });
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
  const WireFault wire = draw_wire_fault(p);
  if (attempt == 1) sample_queue_depth(p);
  adjust_outstanding_bytes(p, bytes);
  p.down->transfer(bytes, guard([this, slot, start, jitter, bytes, attempt,
                                 wire] {
    adjust_outstanding_bytes(*proxies_[static_cast<std::size_t>(slot)],
                             -bytes);
    sched_after(jitter, [this, slot, start, attempt, wire] {
      Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
      if (q.lost || !q.inflight) return;  // quarantined mid-transfer
      if (wire.lost) {
        lose_attempt(slot, start, attempt, "copy-in", &q.inflight->range,
                     [this, slot, attempt] {
                       issue_input(slot, attempt + 1);
                     });
        return;
      }
      q.stats.phase_time[static_cast<int>(Phase::kCopyIn)] +=
          engine_.now() - start;
      span(q, Phase::kCopyIn, start, engine_.now(),
           [r = q.inflight->range] { return r.to_string(); });
      on_input_done(slot, attempt, wire.corrupt_seed);
    });
  }));
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
      for (const auto& name : p.static_env.names()) {
        auto& m = p.static_env.mapping(name);
        if (!p.statics_loaded || !mem::copies_out(m.spec().dir)) {
          m.copy_in();
        }
      }
    }
    p.statics_loaded = true;
  }
  if (opts_.execute_bodies) {
    for (auto* m : p.inflight->chunk_maps) m->copy_in();
  }

  const bool had_transfer = p.down != nullptr && p.inflight->bytes_in > 0.0;
  if (wire_seed != 0) {
    // The copy-in payload was silently flipped on the wire. Only the
    // chunk's own input slices are damaged (never writable statics — those
    // are staged once and a re-transfer could not repair them).
    ++p.stats.corruptions_injected;
    note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
               "copy-in " + p.inflight->range.to_string() +
                   " payload silently corrupted");
    if (opts_.execute_bodies) {
      apply_corruption(p.inflight->chunk_maps, /*input_side=*/true,
                       wire_seed);
    }
  }

  if (integrity_armed_ && opts_.integrity.verify_copy_in && had_transfer) {
    // Corrupted *input* would produce a wrong-but-self-consistent result
    // that output verification can never catch, so inputs get their own
    // check: host-side sum (computed before the DMA) against the
    // device-side sum of what arrived.
    ++p.stats.integrity_checks;
    bool bad;
    if (opts_.execute_bodies) {
      const std::uint64_t want =
          payload_checksum(p.inflight->chunk_maps, /*input_side=*/true,
                           /*host_side=*/true);
      const std::uint64_t got =
          payload_checksum(p.inflight->chunk_maps, /*input_side=*/true);
      bad = want != got;
    } else {
      bad = wire_seed != 0;  // pure-simulation mode models the comparison
    }
    const double vdelay = integrity_delay(p.inflight->bytes_in, p);
    p.stats.phase_time[static_cast<int>(Phase::kCopyIn)] += vdelay;
    if (bad) {
      ++p.stats.integrity_failures;
      note_recovery(slot, RecoveryAction::kCorruptionDetected,
                    "copy-in " + p.inflight->range.to_string() +
                        " checksum mismatch — re-transferring");
      // The verification scan still costs its time before the retry; the
      // re-transfer re-stages the slices, repairing the flipped bytes.
      sched_after(vdelay, [this, slot, attempt] {
        Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
        if (q.lost || !q.inflight) return;
        handle_transient(slot, attempt, sim::FaultKind::kCorruptTransfer,
                         [this, slot, attempt] {
                           issue_input(slot, attempt + 1);
                         });
      });
      return;
    }
    if (vdelay > 0.0) {
      sched_after(vdelay, [this, slot] { input_ready(slot); });
      return;
    }
  }
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

  if (fault_active_ && fault_plan_.launch_fails(p.device_id)) {
    // The failure surfaces after the launch overhead has been spent.
    sched_after(launch, [this, slot, attempt, launch] {
      Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
      if (q.lost || !q.computing) return;  // quarantined meanwhile
      q.stats.phase_time[static_cast<int>(Phase::kRecovery)] += launch;
      span(q, Phase::kRecovery, engine_.now() - launch, engine_.now(),
           [r = q.computing->range] {
             return r.to_string() + " launch fault";
           });
      note_fault(slot, sim::FaultKind::kLaunch, false,
                 "launch " + q.computing->range.to_string() + " attempt " +
                     std::to_string(attempt));
      handle_transient(slot, attempt, sim::FaultKind::kLaunch,
                       [this, slot, attempt] {
                         start_launch(slot, attempt + 1);
                       });
    });
    return;
  }

  double compute = compute_seconds(p, p.computing->range);
  bool hangs = false;
  if (fault_active_) {
    const double slow = fault_plan_.slowdown(p.device_id);
    if (slow > 1.0) {
      note_fault(slot, sim::FaultKind::kSlowdown, false,
                 "compute " + p.computing->range.to_string() + " slowed x" +
                     std::to_string(slow));
      compute *= slow;
    }
    hangs = fault_plan_.compute_hangs(p.device_id);
    if (hangs) {
      note_fault(slot, sim::FaultKind::kHang, false,
                 "compute " + p.computing->range.to_string() +
                     " hangs (silent stall)");
    }
    const double deg = fault_plan_.degrade(p.device_id);
    if (deg > 1.0) {
      p.degrade_factor = std::max(p.degrade_factor, deg);
      note_fault(slot, sim::FaultKind::kDegrade, false,
                 "sustained degradation x" + std::to_string(deg) +
                     " from " + p.computing->range.to_string());
    }
    compute *= p.degrade_factor;
    if (p.up != nullptr) {
      // Silent compute corruption: the kernel finishes on time but its
      // output region is bit-flipped. Shared-memory devices are exempt —
      // their writes land directly in host arrays with no commit
      // boundary to verify at, so modelling silent corruption there
      // would be undetectable by construction.
      const std::uint64_t cs = fault_plan_.compute_corrupts(p.device_id);
      if (cs != 0) {
        p.computing->corrupt_seed = cs;
        ++p.stats.corruptions_injected;
        note_fault(slot, sim::FaultKind::kCorruptCompute, false,
                   "compute " + p.computing->range.to_string() +
                       " result silently corrupted");
      }
    }
  }
  p.stats.phase_time[static_cast<int>(Phase::kLaunch)] += launch;

  // Prefetch the next chunk while this one computes (double buffering).
  try_fetch(slot);

  ++p.compute_serial;
  if (!hangs) {
    p.stats.phase_time[static_cast<int>(Phase::kCompute)] += compute;
    sched_after(launch + compute,
                           [this, slot] { on_compute_done(slot); });
  }
  // A hung chunk never completes; only the watchdog below can reclaim it
  // (with the watchdog disabled, the offload deadlocks and run() reports
  // the stuck device — the pre-watchdog behaviour).
  if (fault_active_ && opts_.watchdog.enabled) {
    const std::uint64_t serial = p.compute_serial;
    const double soft =
        std::max(opts_.watchdog.deadline_floor_s,
                 opts_.watchdog.deadline_multiplier *
                     predicted_chunk_seconds(p, p.computing->range));
    sched_after(launch + soft, [this, slot, serial] {
      watchdog_soft(slot, serial);
    });
    // The kill window after the soft fire must leave a speculative
    // duplicate room to complete end-to-end, and the duplicate pays the
    // per-transfer alpha cost the per-iteration prediction deliberately
    // excludes — so the hard deadline scales (soft + round-trip latency),
    // not soft alone. With no link the grace is zero and hard stays a
    // plain multiple of soft.
    const auto& din = loop_context_.devices[static_cast<std::size_t>(slot)];
    const double grace = din.has_link ? 2.0 * din.link_latency_s : 0.0;
    sched_after(
        launch + (soft + grace) * opts_.watchdog.hard_kill_multiplier,
        [this, slot, serial] { watchdog_hard(slot, serial); });
  }
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
  if (!chunk.from_requeue && !chunk.is_spec) {
    scheduler_->report(slot, chunk.range, engine_.now() - chunk.fetch_start);
  }
  if (!chunk.token && chunk.range.size() > 0) {
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
  if (!chunk.from_requeue && !chunk.is_spec && !chunk.token) {
    accumulate_prediction_error(p, chunk.range,
                                engine_.now() - p.compute_started,
                                chunk_elapsed);
  }

  if (chunk.token && chunk.token->committed) {
    // Another copy of this chunk already committed while we computed:
    // discard before any host effect, skip the (now pointless) output.
    --chunk.token->runners;
    note_recovery(slot, RecoveryAction::kTardyAbandoned,
                  chunk.range.to_string() + " (other copy committed)");
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
  out.token = chunk.token;
  out.is_spec = chunk.is_spec;
  out.is_probe = chunk.is_probe;
  out.integ = chunk.integ;
  bool integ_settled = false;

  if (p.up != nullptr && chunk.bytes_out > 0.0) {
    out.bytes_out = chunk.bytes_out;
    out.verify = integrity_armed_;
    if (out.verify || chunk.corrupt_seed != 0) {
      if (opts_.execute_bodies) {
        out.sum_result = payload_checksum(out.maps, /*input_side=*/false);
        if (chunk.corrupt_seed != 0) {
          apply_corruption(out.maps, /*input_side=*/false,
                           chunk.corrupt_seed);
          out.sum_payload = payload_checksum(out.maps, /*input_side=*/false);
        } else {
          out.sum_payload = out.sum_result;
        }
      } else {
        // Pure-simulation mode: model the sums symbolically. An injected
        // flip XORs in a nonzero token, so a corrupted hand-off always
        // compares unequal — same detection outcome, no real bytes.
        out.sum_payload = chunk.corrupt_seed != 0
                              ? (mix64(chunk.corrupt_seed) | 1)
                              : 0;
      }
      out.sum_wire = out.sum_payload;
    }
    auto rec = std::make_shared<OutRecord>(std::move(out));
    p.outputs.push_back(rec);
    issue_output(slot, std::move(rec), 1);
  } else {
    // Shared memory (or nothing to ship): effects become host-visible the
    // instant compute completes — an atomic commit on the DES engine, so
    // a later loss cannot leave them half-applied. No wire was crossed,
    // so a re-executed chunk landing here settles its integrity state
    // without further verification.
    if (chunk.integ && !chunk.integ->resolved) {
      chunk.integ->resolved = true;
      note_recovery(slot,
                    chunk.integ->voting ? RecoveryAction::kVoteCommitted
                                        : RecoveryAction::kReexecuteCommitted,
                    chunk.range.to_string() +
                        " settled by a shared-memory execution");
      integ_settled = true;
    }
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
  if (p.lost || rec->abandoned) return;
  const double start = engine_.now();
  const double bytes = rec->bytes_out;
  const WireFault wire = draw_wire_fault(p);
  adjust_outstanding_bytes(p, bytes);
  p.up->transfer(bytes, guard([this, slot, rec, start, bytes, attempt,
                               wire] {
    Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
    adjust_outstanding_bytes(q, -bytes);
    if (q.lost || rec->abandoned) return;  // requeued at quarantine
    if (wire.lost) {
      lose_attempt(slot, start, attempt, "copy-out", &rec->range,
                   [this, slot, rec, attempt]() mutable {
                     issue_output(slot, std::move(rec), attempt + 1);
                   });
      return;
    }
    q.stats.phase_time[static_cast<int>(Phase::kCopyOut)] +=
        engine_.now() - start;
    span(q, Phase::kCopyOut, start, engine_.now(),
         [r = rec->range] { return r.to_string(); });
    q.stats.bytes_out += bytes;  // physically transferred either way
    if (wire.corrupt_seed != 0) {
      // The copy-out payload was flipped on the wire. The flips land in
      // the device-side chunk slices (the staging the host commit reads
      // from), so an unverified commit materialises the damage.
      ++q.stats.corruptions_injected;
      note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
                 "copy-out " + rec->range.to_string() +
                     " payload silently corrupted");
      if (opts_.execute_bodies) {
        apply_corruption(rec->maps, /*input_side=*/false, wire.corrupt_seed);
        rec->sum_wire = payload_checksum(rec->maps, /*input_side=*/false);
      } else {
        rec->sum_wire = rec->sum_payload ^ (mix64(wire.corrupt_seed) | 1);
      }
    }
    if (rec->verify) {
      // Verified commit: spend the checksum scan (device-side sum was
      // computed at compute end; the host side re-scans the received
      // payload), then compare before any host effect lands.
      const double vdelay = integrity_delay(2.0 * bytes, q);
      q.stats.phase_time[static_cast<int>(Phase::kCopyOut)] += vdelay;
      if (vdelay > 0.0) {
        sched_after(vdelay,
                               [this, slot, rec] { finish_commit(slot, rec); });
      } else {
        finish_commit(slot, rec);
      }
      return;
    }
    // Unverified commit: only now do the chunk's results reach the host —
    // and only for the first copy of a speculated chunk
    // (first-commit-wins).
    commit(slot, *rec);
    std::erase(q.outputs, rec);
    sample_queue_depth(q);
    // Draining the last output may let this proxy enter (and possibly
    // release) the stage barrier, or finish the offload.
    try_fetch(slot);
    check_completion(slot);
  }));
}

std::uint64_t OffloadExecution::payload_checksum(
    const std::vector<mem::DeviceMapping*>& maps, bool input_side,
    bool host_side) const {
  const ChecksumKind kind = ChecksumKind::kMix64;
  std::uint64_t h = 0;
  for (auto* m : maps) {
    if (m->shared()) continue;  // no wire crossed, nothing to verify
    if (input_side ? !mem::copies_in(m->spec().dir)
                   : !mem::copies_out(m->spec().dir)) {
      continue;
    }
    const dist::Region& r = input_side ? m->footprint() : m->owned();
    const std::uint64_t s =
        host_side ? m->checksum_host(r, kind) : m->checksum_device(r, kind);
    h = mix64(h ^ s);
  }
  return h;
}

void OffloadExecution::apply_corruption(
    const std::vector<mem::DeviceMapping*>& maps, bool input_side,
    std::uint64_t seed) const {
  // The seed picks one of the chunk's transferable slices and drives the
  // byte flips inside it — always in *device* storage, so a re-transfer
  // (copy-in) or a discarded commit (copy-out) leaves the host intact.
  std::vector<mem::DeviceMapping*> candidates;
  for (auto* m : maps) {
    if (m->shared()) continue;
    if (input_side ? !mem::copies_in(m->spec().dir)
                   : !mem::copies_out(m->spec().dir)) {
      continue;
    }
    const dist::Region& r = input_side ? m->footprint() : m->owned();
    if (r.empty()) continue;
    candidates.push_back(m);
  }
  if (candidates.empty()) return;
  auto* m = candidates[static_cast<std::size_t>(
      seed % static_cast<std::uint64_t>(candidates.size()))];
  m->corrupt_device(input_side ? m->footprint() : m->owned(), seed);
}

double OffloadExecution::integrity_delay(double bytes, const Proxy& p) const {
  // One pass over the payload at the device's sustained memory bandwidth —
  // the checksum is memory-bound by construction.
  const double bw = p.desc->sustained_membw_Bps();
  return bw > 0.0 && bytes > 0.0 ? bytes / bw : 0.0;
}

bool OffloadExecution::integrity_slot_allowed(const IntegrityState& st,
                                              int slot) const {
  const Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) return false;
  auto excluded = [&st](int s) {
    if (std::find(st.suspects.begin(), st.suspects.end(), s) !=
        st.suspects.end()) {
      return true;
    }
    return st.voting && std::find(st.balloted.begin(), st.balloted.end(),
                                  s) != st.balloted.end();
  };
  // Graduated fallback: prefer an untainted full-service device; if none
  // is alive, accept an untainted probation device; if even that fails
  // (e.g. a two-device machine where both are implicated), let anyone
  // alive serve so the queue can always drain.
  bool strict = false;
  bool relaxed = false;
  for (const auto& q : proxies_) {
    if (q->lost) continue;
    if (!excluded(q->slot)) {
      relaxed = true;
      if (!q->probation) strict = true;
    }
  }
  if (strict) return !excluded(slot) && !p.probation;
  if (relaxed) return !excluded(slot);
  return true;
}

void OffloadExecution::finish_commit(int slot, std::shared_ptr<OutRecord> rec) {
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  if (q.lost || rec->abandoned) return;  // quarantined during the scan
  ++q.stats.integrity_checks;
  const bool bad_compute = rec->sum_payload != rec->sum_result;
  const bool bad_wire = rec->sum_wire != rec->sum_payload;
  if (bad_compute || bad_wire) {
    handle_corrupt_commit(slot, rec, bad_wire && !bad_compute);
    return;
  }

  auto st = rec->integ;
  if (st && st->resolved) {
    // Another execution already settled this chunk (vote quorum reached,
    // or a clean re-execution committed): discard this late clean copy
    // before it double-applies host effects.
    if (rec->token) --rec->token->runners;
    note_recovery(slot, RecoveryAction::kTardyAbandoned,
                  rec->range.to_string() + " (chunk already settled)");
    std::erase(q.outputs, rec);
    try_fetch(slot);
    sweep_completion();
    return;
  }
  if (st && rec->token && rec->token->committed) {
    // The racing copy committed while we verified; commit() below
    // discards this copy, and the race winner's commit settled the range.
    st->resolved = true;
    st = nullptr;
  }
  if (st && st->voting) {
    // Voting: this clean execution is a ballot keyed by its payload sum.
    // The chunk commits only when vote_quorum ballots agree — and since
    // equal checksums mean equal payloads, committing the quorum-reaching
    // copy commits the agreed bytes.
    int agree = 0;
    for (auto& b : st->ballots) {
      if (b.sum == rec->sum_wire) {
        agree = ++b.count;
        break;
      }
    }
    if (agree == 0) {
      st->ballots.push_back({rec->sum_wire, 1});
      agree = 1;
    }
    st->balloted.push_back(slot);
    if (agree < opts_.integrity.vote_quorum) {
      if (rec->token) --rec->token->runners;
      note_recovery(slot, RecoveryAction::kReexecuteQueued,
                    rec->range.to_string() + " ballot " +
                        std::to_string(agree) + "/" +
                        std::to_string(opts_.integrity.vote_quorum) +
                        " — needs another agreeing execution");
      if (st->executions >= opts_.integrity.max_attempts) {
        throw OffloadError(
            "chunk " + rec->range.to_string() + " failed to reach a " +
            std::to_string(opts_.integrity.vote_quorum) +
            "-vote integrity quorum within integrity.max_attempts (" +
            std::to_string(opts_.integrity.max_attempts) +
                ") executions — data integrity cannot be established",
            FailClass::kQuorumExhausted);
      }
      integrity_queue_.push_back(st);
      std::erase(q.outputs, rec);
      kick_survivors();
      try_fetch(slot);
      sweep_completion();
      return;
    }
    st->resolved = true;
    note_recovery(slot, RecoveryAction::kVoteCommitted,
                  rec->range.to_string() + " quorum " +
                      std::to_string(agree) + "/" +
                      std::to_string(opts_.integrity.vote_quorum) +
                      " — agreed payload committed");
  } else if (st) {
    st->resolved = true;
    note_recovery(slot, RecoveryAction::kReexecuteCommitted,
                  rec->range.to_string() +
                      " re-execution verified and committed");
  }

  commit(slot, *rec);
  std::erase(q.outputs, rec);
  sample_queue_depth(q);
  try_fetch(slot);
  sweep_completion();
}

void OffloadExecution::handle_corrupt_commit(
    int slot, const std::shared_ptr<OutRecord>& rec, bool wire_only) {
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  ++q.stats.integrity_failures;
  note_recovery(slot, RecoveryAction::kCorruptionDetected,
                rec->range.to_string() +
                    (wire_only ? " copy-out" : " kernel result") +
                    " checksum mismatch — chunk discarded before commit");

  auto st = rec->integ;
  if (!st) {
    st = std::make_shared<IntegrityState>();
    st->range = rec->range;
  }
  ++st->failures;
  if (std::find(st->suspects.begin(), st->suspects.end(), slot) ==
      st->suspects.end()) {
    st->suspects.push_back(slot);
  }
  if (!st->voting && st->failures >= opts_.integrity.vote_after_failures) {
    st->voting = true;
    note_recovery(slot, RecoveryAction::kVoteOpened,
                  rec->range.to_string() + " escalated to " +
                      std::to_string(opts_.integrity.vote_quorum) +
                      "-vote agreement after " +
                      std::to_string(st->failures) + " integrity failures");
  }

  // This copy is discarded. A racing copy still running inherits the
  // integrity state and may settle the chunk; otherwise the chunk is
  // queued for re-execution.
  if (rec->token) rec->token->integ = st;
  rec->abandoned = true;
  std::erase(q.outputs, rec);

  if (release(rec->token, st)) {
    if (st->executions >= opts_.integrity.max_attempts) {
      throw OffloadError(
          "chunk " + rec->range.to_string() +
          " still fails integrity verification after integrity."
          "max_attempts (" +
          std::to_string(opts_.integrity.max_attempts) +
              ") executions — data integrity cannot be established",
          FailClass::kMaxAttempts);
    }
    note_recovery(slot, RecoveryAction::kReexecuteQueued,
                  st->range.to_string() +
                      " queued for re-execution on another device");
    integrity_queue_.push_back(st);
  }

  // Integrity circuit breaker: a device that repeatedly ships corrupt
  // payloads is quarantined like a tardy straggler — and a probation
  // device gets no second chance at all.
  const sim::FaultKind kind = wire_only ? sim::FaultKind::kCorruptTransfer
                                        : sim::FaultKind::kCorruptCompute;
  const int threshold = opts_.integrity.quarantine_threshold;
  if (q.probation) {
    quarantine(slot, kind, "probation chunk failed integrity verification");
  } else if (threshold > 0 &&
             q.stats.integrity_failures >=
                 static_cast<std::size_t>(threshold)) {
    quarantine(slot, kind,
               "repeated integrity failures (" +
                   std::to_string(q.stats.integrity_failures) + ")");
  } else {
    kick_survivors();
    try_fetch(slot);
    sweep_completion();
  }
}

OffloadExecution::WireFault OffloadExecution::draw_wire_fault(
    const Proxy& p) {
  // Whether this transfer attempt fails is drawn when it is issued; the
  // failure surfaces when the transfer (virtually) completes, so a failed
  // attempt costs its full transfer time before the retry backoff.
  // Silent corruption of the payload is drawn alongside the loss fault so
  // the per-device fault stream stays deterministic; a *failed* attempt
  // delivers no payload, so it cannot also be corrupted.
  WireFault wire;
  if (!fault_active_) return wire;
  wire.lost = fault_plan_.transfer_fails(p.device_id);
  wire.corrupt_seed = fault_plan_.transfer_corrupts(p.device_id);
  if (wire.lost) wire.corrupt_seed = 0;
  return wire;
}

void OffloadExecution::lose_attempt(int slot, double start, int attempt,
                                    const char* what,
                                    const dist::Range* chunk,
                                    std::function<void()> retry) {
  Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
  const std::string range = chunk != nullptr ? chunk->to_string() : "";
  q.stats.phase_time[static_cast<int>(Phase::kRecovery)] +=
      engine_.now() - start;
  span(q, Phase::kRecovery, start, engine_.now(), [&range, what] {
    return (range.empty() ? "" : range + " ") + what + " fault";
  });
  // The write-back has no chunk: it is the device's final transfer.
  note_fault(slot, sim::FaultKind::kTransfer, false,
             (range.empty() ? std::string("final ") + what
                            : what + (" " + range)) +
                 " attempt " + std::to_string(attempt));
  handle_transient(slot, attempt, sim::FaultKind::kTransfer,
                   std::move(retry));
}

void OffloadExecution::handle_transient(int slot, int attempt,
                                        sim::FaultKind kind,
                                        std::function<void()> retry) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (attempt > opts_.fault.max_retries) {
    quarantine(slot, kind,
               std::string(sim::to_string(kind)) + " retry budget (" +
                   std::to_string(opts_.fault.max_retries) + ") exhausted");
    return;
  }
  ++p.stats.retries;
  const double backoff =
      std::min(opts_.fault.backoff_base_s *
                   std::pow(2.0, static_cast<double>(attempt - 1)),
               opts_.fault.backoff_cap_s);
  p.stats.phase_time[static_cast<int>(Phase::kRecovery)] += backoff;
  span(p, Phase::kRecovery, engine_.now(), engine_.now() + backoff,
       [attempt] { return "backoff #" + std::to_string(attempt); });
  sched_after(backoff, [this, slot, retry = std::move(retry)] {
    if (!proxies_[static_cast<std::size_t>(slot)]->lost) retry();
  });
}

void OffloadExecution::note_fault(int slot, sim::FaultKind kind, bool fatal,
                                  std::string detail) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  ++p.stats.faults;
  fault_events_.push_back(FaultEvent{engine_.now(), slot, p.device_id, kind,
                                     fatal, std::move(detail)});
}

void OffloadExecution::on_device_lost(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) return;
  if (p.done) {
    // The device finished its share before failing: its results are
    // committed and nothing needs requeuing — but it must never be
    // revived for redistribution work.
    p.lost = true;
    ++p.stats.faults;
    fault_events_.push_back(
        FaultEvent{engine_.now(), slot, p.device_id,
                   sim::FaultKind::kDeviceLoss, true,
                   "device lost after completing its share"});
    return;
  }
  ++p.stats.faults;
  quarantine(slot, sim::FaultKind::kDeviceLoss, "device permanently lost");
}

void OffloadExecution::quarantine(int slot, sim::FaultKind kind,
                                  const std::string& detail) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost) return;
  p.lost = true;
  p.probation = false;
  p.probes_passed = 0;
  p.stats.quarantined = true;
  p.stats.quarantined_at = engine_.now();
  ++p.stats.quarantine_count;
  ++p.compute_serial;  // disarm any pending watchdog events
  fault_events_.push_back(FaultEvent{engine_.now(), slot, p.device_id, kind,
                                     /*fatal=*/true,
                                     "quarantined: " + detail});
  HOMP_WARN << "device '" << p.desc->name << "' quarantined at t="
            << engine_.now() << ": " << detail;
  if (audit_on()) {
    note_decision(slot, DecisionKind::kQuarantined, dist::Range(),
                  std::string(sim::to_string(kind)) + ": " + detail);
  }
  if (opts_.collect_trace) {
    p.outstanding_bytes = 0.0;
    record_counter(p, CounterTrack::kOutstandingBytes, 0.0);
    sample_queue_depth(p);
  }

  // Requeue everything in flight. None of it has been committed to the
  // host (commits ride the copy-out completion), so re-executing the
  // chunks elsewhere cannot double-count or corrupt host arrays. Each
  // copy goes through release(), which keeps the first-commit-wins
  // invariant (committed ranges never requeue).
  long long taken = 0;
  for (std::optional<PendingChunk>* c : {&p.inflight, &p.ready, &p.computing}) {
    if (*c && release((*c)->token, (*c)->integ)) taken += requeue((*c)->range);
    c->reset();
  }
  p.fetching = false;
  for (const auto& rec : p.outputs) {
    rec->abandoned = true;
    if (release(rec->token, rec->integ)) taken += requeue(rec->range);
  }
  p.outputs.clear();
  leave_stage(p, nullptr);

  // No survivors means nobody is left to serve the requeue: surface a
  // clean error *before* asking the scheduler to deactivate its last
  // slot (which would throw its own, less informative, OffloadError).
  std::size_t survivors = 0;
  for (const auto& q : proxies_) {
    if (!q->lost) ++survivors;
  }
  if (survivors == 0) {
    throw OffloadError("all devices lost during offload of '" +
                           kernel_.name + "' (last: '" + p.desc->name +
                           "', " + detail + ")",
                       FailClass::kAllDevicesLost);
  }

  // Reserved-but-unissued iterations come back from the scheduler.
  // Single-shot (BLOCK / MODEL_*) plans thereby fall back to dynamic
  // redistribution of the orphaned partition.
  for (const auto& r : scheduler_->deactivate(slot)) taken += requeue(r);
  p.stats.requeued_iterations += taken;

  if (!requeue_.empty()) {
    long long total = 0;
    for (const auto& r : requeue_) total += r.size();
    requeue_grain_ = std::max(
        opts_.sched.min_chunk,
        total / static_cast<long long>(4 * survivors));
    if (requeue_grain_ < 1) requeue_grain_ = 1;
  }

  // Unless the device is *really* gone, give it a path back: after an
  // exponentially growing cooldown it re-enters in probation.
  const bool permanent =
      kind == sim::FaultKind::kDeviceLoss ||
      (p.loss_time >= 0.0 && engine_.now() >= p.loss_time);
  if (!permanent && opts_.watchdog.enabled && opts_.watchdog.probation) {
    schedule_readmission(slot);
  }

  pass_serial_token(slot);
  kick_survivors();
  // The dead slot no longer holds the stage barrier; removing it may
  // release the survivors.
  check_stage_barrier();
  // A spec-token'd chunk whose duplicate already committed requeues
  // nothing, so this quarantine may have been the offload's last word.
  maybe_finish();
}

bool OffloadExecution::release(
    const std::shared_ptr<SpecToken>& token,
    const std::shared_ptr<IntegrityState>& integ) {
  if (token) {
    --token->runners;
    if (token->queued) {
      // Still offered as optional work: withdraw the offer (nobody has to
      // take it, which would strand the chunk).
      token->queued = false;
      std::erase(spec_queue_, token);
    }
    if (token->committed) return false;  // results already on the host
    if (token->runners > 0) return false;  // another copy still races
  }
  // A settled chunk is owed nothing, and one whose integrity state is
  // back on the integrity queue is owed there: requeueing it as well
  // would commit it twice.
  return !integ ||
         (!integ->resolved &&
          std::find(integrity_queue_.begin(), integrity_queue_.end(),
                    integ) == integrity_queue_.end());
}

long long OffloadExecution::requeue(const dist::Range& range) {
  if (range.empty()) return 0;
  requeue_.push_back(range);
  return range.size();
}

double OffloadExecution::predicted_chunk_seconds(
    const Proxy& p, const dist::Range& chunk) const {
  // MODEL_2's per-iteration prediction (peak numbers: systematically
  // optimistic), loosened by what the device has actually demonstrated —
  // its cross-offload throughput history and this offload's per-iteration
  // EWMA — so a legitimately slow device is not hounded by false fires.
  double iter_s = model::model2_iter_time(
      loop_context_.kernel,
      loop_context_.devices[static_cast<std::size_t>(p.slot)]);
  if (opts_.sched.history != nullptr &&
      opts_.sched.history->has(opts_.sched.history_kernel, p.device_id)) {
    const double rate =
        opts_.sched.history->rate(opts_.sched.history_kernel, p.device_id);
    if (rate > 0.0) iter_s = std::max(iter_s, 1.0 / rate);
  }
  if (p.ewma_iter_s > 0.0) iter_s = std::max(iter_s, p.ewma_iter_s);
  double t = static_cast<double>(chunk.size()) * iter_s +
             p.desc->launch_overhead_s;
  if (kernel_.work_factor) t *= kernel_.work_factor(chunk);
  return t;
}

void OffloadExecution::watchdog_soft(int slot, std::uint64_t serial) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.computing || p.compute_serial != serial) return;
  ++p.stats.tardy_chunks;
  note_recovery(slot, RecoveryAction::kWatchdogFired,
                p.computing->range.to_string() + " missed its soft deadline");

  if (p.probation) {
    // A probe that cannot even meet a 4x-slack deadline fails probation.
    quarantine(slot, sim::FaultKind::kHang,
               "probation probe " + p.computing->range.to_string() +
                   " missed its deadline");
    return;
  }
  const int threshold = opts_.watchdog.tardy_quarantine_threshold;
  if (threshold > 0 &&
      p.stats.tardy_chunks >= static_cast<std::size_t>(threshold)) {
    quarantine(slot, sim::FaultKind::kHang,
               "repeatedly tardy (" + std::to_string(p.stats.tardy_chunks) +
                   " chunks missed their deadline)");
    return;
  }

  // Speculate the tardy chunk onto a survivor. Disabled inside data
  // regions (the chunk's data lives only in the tardy device's region
  // slice) and for chunks that already carry a token.
  if (!opts_.watchdog.speculation || region_envs_ != nullptr ||
      p.computing->token) {
    return;
  }
  std::vector<Proxy*> candidates;
  for (const auto& q : proxies_) {
    if (q->lost || q->slot == slot || q->probation) continue;
    candidates.push_back(q.get());
  }
  if (candidates.empty()) return;

  auto token = std::make_shared<SpecToken>();
  token->range = p.computing->range;
  token->origin_slot = slot;
  token->runners = 1;  // the tardy original
  token->queued = true;
  token->integ = p.computing->integ;  // racing copies share the vote state
  p.computing->token = token;
  spec_queue_.push_back(std::move(token));
  note_recovery(slot, RecoveryAction::kSpeculated,
                p.computing->range.to_string() +
                    " duplicated onto the survivors");
  if (audit_on()) {
    note_decision(slot, DecisionKind::kSpeculated, p.computing->range,
                  "tardy chunk offered to the survivors");
  }

  // Wake idle survivors, fastest first: FIFO at the same virtual instant
  // means the first proxy roused fetches the duplicate first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Proxy* a, const Proxy* b) {
              if (a->desc->sustained_gflops != b->desc->sustained_gflops) {
                return a->desc->sustained_gflops > b->desc->sustained_gflops;
              }
              return a->slot < b->slot;
            });
  for (Proxy* q : candidates) rouse(*q);
}

void OffloadExecution::watchdog_hard(int slot, std::uint64_t serial) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (p.lost || !p.computing || p.compute_serial != serial) return;
  // The chunk blew even the hard deadline: presumed hung. The time sunk
  // into it was recovery overhead, not useful compute.
  p.stats.phase_time[static_cast<int>(Phase::kRecovery)] +=
      engine_.now() - p.compute_started;
  span(p, Phase::kRecovery, p.compute_started, engine_.now(),
       [r = p.computing->range] { return r.to_string() + " hung"; });
  quarantine(slot, sim::FaultKind::kHang,
             "compute " + p.computing->range.to_string() +
                 " exceeded the hard watchdog deadline");
}

void OffloadExecution::commit(int slot, const OutRecord& rec) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  const auto& token = rec.token;
  const dist::Range& range = rec.range;
  if (token) {
    --token->runners;
    if (token->committed) {
      note_recovery(slot, RecoveryAction::kTardyAbandoned,
                    range.to_string() + " (lost the commit race)");
      return;
    }
    token->committed = true;
    if (rec.is_spec) {
      ++p.stats.spec_copies_won;
      note_recovery(slot, RecoveryAction::kSpecCommitted, range.to_string());
      // First-commit-wins cancels the loser *now*. The origin missed its
      // soft deadline and then lost to a from-scratch duplicate that paid
      // the full copy-in/copy-out cost — it is hung or degraded beyond
      // use, and every further second it grinds on an already-committed
      // chunk holds the final barrier hostage. Quarantine it immediately
      // (probation can re-admit it); the hard deadline stays as the
      // backstop for chunks that were never speculated.
      Proxy& origin = *proxies_[static_cast<std::size_t>(token->origin_slot)];
      if (!origin.lost && origin.computing &&
          origin.computing->token == token) {
        origin.stats.phase_time[static_cast<int>(Phase::kRecovery)] +=
            engine_.now() - origin.compute_started;
        span(origin, Phase::kRecovery, origin.compute_started, engine_.now(),
             [range] { return range.to_string() + " lost to its duplicate"; });
        quarantine(token->origin_slot, sim::FaultKind::kHang,
                   "compute " + range.to_string() +
                       " lost the commit race to its speculative duplicate");
      }
    }
  }
  if (rec.is_probe && p.probation) {
    ++p.probes_passed;
    note_recovery(slot, RecoveryAction::kProbePassed, range.to_string());
    if (p.probes_passed >= opts_.watchdog.probation_successes) {
      p.probation = false;
      note_recovery(slot, RecoveryAction::kPromoted,
                    "restored to full service after " +
                        std::to_string(p.probes_passed) + " probes");
    }
  }
  if (opts_.execute_bodies) {
    for (auto* m : rec.maps) m->copy_out();
  }
  p.partial_reduction += rec.reduction;
  p.stats.iterations += range.size();
  record_counter(p, CounterTrack::kIterations,
                 static_cast<double>(p.stats.iterations));
}

void OffloadExecution::schedule_readmission(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  const double cooldown = std::min(
      opts_.watchdog.cooldown_cap_s,
      opts_.watchdog.cooldown_base_s *
          std::pow(opts_.watchdog.cooldown_growth,
                   static_cast<double>(p.stats.quarantine_count - 1)));
  span(p, Phase::kRecovery, engine_.now(), engine_.now() + cooldown,
       "quarantine cooldown");
  sched_after(cooldown, [this, slot] { readmit(slot); });
}

void OffloadExecution::readmit(int slot) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  if (!p.lost) return;
  // Quarantined first, *then* its scheduled permanent loss passed: dead.
  if (p.loss_time >= 0.0 && engine_.now() >= p.loss_time) return;
  // Offload effectively over: nothing left to prove, stay quarantined.
  const bool running =
      std::any_of(proxies_.begin(), proxies_.end(),
                  [](const auto& q) { return !q->lost && !q->done; });
  if (!running && !owed_work()) return;

  p.lost = false;
  p.probation = true;
  p.probes_passed = 0;
  p.done = false;
  p.finalizing = false;
  p.stats.quarantined = false;
  ++p.stats.readmissions;
  note_recovery(slot, RecoveryAction::kReadmitted,
                "probation after cooldown (quarantine #" +
                    std::to_string(p.stats.quarantine_count) + ")");
  if (audit_on()) {
    note_decision(slot, DecisionKind::kReadmitted, dist::Range(),
                  "probation after cooldown (quarantine #" +
                      std::to_string(p.stats.quarantine_count) + ")");
  }
  HOMP_INFO << "device '" << p.desc->name << "' re-admitted in probation at "
            << "t=" << engine_.now();
  scheduler_->reactivate(slot);
  sched_after(0.0, [this, slot] { try_fetch(slot); });
}

bool OffloadExecution::has_work_for(int slot) const {
  if (!requeue_.empty()) return true;
  for (const auto& st : integrity_queue_) {
    if (!st->resolved && integrity_slot_allowed(*st, slot)) return true;
  }
  for (const auto& t : spec_queue_) {
    if (!t->committed && t->origin_slot != slot) return true;
  }
  return false;
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

void OffloadExecution::note_recovery(int slot, RecoveryAction action,
                                     std::string detail) {
  Proxy& p = *proxies_[static_cast<std::size_t>(slot)];
  recovery_events_.push_back(RecoveryEvent{engine_.now(), slot, p.device_id,
                                           action, std::move(detail)});
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
  *profile_s = -1.0;
  if (opts_.sched.history != nullptr &&
      opts_.sched.history->has(opts_.sched.history_kernel, p.device_id)) {
    const double rate =
        opts_.sched.history->rate(opts_.sched.history_kernel, p.device_id);
    if (rate > 0.0) *profile_s = iters / rate;
  }
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

void OffloadExecution::kick_survivors() {
  for (const auto& q : proxies_) {
    if (q->lost || !has_work_for(q->slot)) continue;
    rouse(*q);
  }
}

bool OffloadExecution::owed_work() const {
  return !requeue_.empty() ||
         std::any_of(integrity_queue_.begin(), integrity_queue_.end(),
                     [](const auto& st) { return !st->resolved; });
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
  if (!scheduler_->finished(slot) || owed_work() || p.busy()) return;
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
  const double start = engine_.now();
  // The final static write-back rides the same transfer fault stream, so
  // it can also be silently corrupted. With integrity armed it is caught
  // and re-sent; unarmed it is modelled only (no real bytes are flipped:
  // flipping host statics could poison a later revived device's copy-in,
  // and the retry path could not repair it — see docs/RESILIENCE.md).
  const WireFault wire = draw_wire_fault(p);
  adjust_outstanding_bytes(p, bytes);
  p.up->transfer(bytes, guard([this, slot, start, bytes, attempt, wire] {
    Proxy& q = *proxies_[static_cast<std::size_t>(slot)];
    adjust_outstanding_bytes(q, -bytes);
    if (q.lost) return;  // quarantined mid-write-back
    if (wire.lost) {
      lose_attempt(slot, start, attempt, "write-back", nullptr,
                   [this, slot, bytes, attempt] {
                     issue_finalize(slot, bytes, attempt + 1);
                   });
      return;
    }
    q.stats.phase_time[static_cast<int>(Phase::kCopyOut)] +=
        engine_.now() - start;
    q.stats.bytes_out += bytes;
    if (wire.corrupt_seed != 0) {
      ++q.stats.corruptions_injected;
      note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
                 "final write-back payload silently corrupted");
      if (integrity_armed_) {
        ++q.stats.integrity_checks;
        ++q.stats.integrity_failures;
        note_recovery(slot, RecoveryAction::kCorruptionDetected,
                      "final write-back checksum mismatch — re-sending");
        handle_transient(slot, attempt, sim::FaultKind::kCorruptTransfer,
                         [this, slot, bytes, attempt] {
                           issue_finalize(slot, bytes, attempt + 1);
                         });
        return;
      }
    }
    complete_finalize(slot);
  }));
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
  if (has_work_for(slot)) rouse(q);
  maybe_finish();
}

void OffloadExecution::launch() {
  HOMP_REQUIRE(!ran_, "OffloadExecution launched twice");
  ran_ = true;
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
  if (fault_active_) {
    for (const auto& p : proxies_) {
      const double lt = fault_plan_.loss_time(p->device_id);
      // loss_time() is relative to the offload's start; store and
      // schedule it absolute so quarantine's permanence check and the
      // event both live on the shared clock.
      p->loss_time = lt >= 0.0 ? start_time_ + lt : -1.0;
      if (lt >= 0.0) {
        const int s = p->slot;
        sched_after(lt, [this, s] { on_device_lost(s); });
      }
    }
  }
}

void OffloadExecution::start(std::function<void(OffloadResult&&)>
                                 on_complete) {
  HOMP_REQUIRE(ctx_ != nullptr,
               "OffloadExecution::start() needs a shared ExecContext; "
               "standalone executions use run()");
  HOMP_REQUIRE(on_complete != nullptr, "start() needs a completion callback");
  on_complete_ = std::move(on_complete);
  launch();
}

void OffloadExecution::maybe_finish() {
  if (!on_complete_ || finished_) return;
  for (const auto& p : proxies_) {
    if (!p->done && !p->lost) return;
  }
  // Owed work (requeue, unsettled integrity re-executions) holds the
  // result even when every surviving proxy believes it is done
  // (check_completion would have parked them, not finalized them — but a
  // quarantine can strand the queue momentarily). A cancelled job owes
  // nothing: its results are discarded anyway.
  if (!cancelled_ && owed_work()) return;
  finish_now();
}

void OffloadExecution::finish_now() {
  if (finished_) return;
  finished_ = true;
  // Revoke every timer this job ever armed — watchdog deadlines, loss
  // schedules, retry backoffs, probation cooldowns. After delivery the
  // owner may destroy the execution: nothing tagged can fire, and the
  // untagged link completions are made inert by the alive_ sentinel.
  engine_.cancel_generation(gen_);
  // Deliver from a fresh event: the caller's completion handler may
  // destroy queues, launch new executions — or destroy *this* — which
  // must not run inside whatever commit chain called us. Move the
  // callback to a local before invoking: its body may free the member.
  std::weak_ptr<bool> alive = std::weak_ptr<bool>(alive_);
  engine_.schedule_after(0.0, [this, alive] {
    if (alive.expired()) return;
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb(harvest());
  });
}

sim::Engine::Callback OffloadExecution::guard(sim::Engine::Callback fn) {
  if (ctx_ == nullptr) return fn;  // standalone: exceptions leave run()
  std::weak_ptr<bool> alive = std::weak_ptr<bool>(alive_);
  return [this, alive, fn = std::move(fn)] {
    if (alive.expired()) return;  // owner destroyed us; late completion
    if (failed_) return;          // the domain is sealed
    if (opts_.harness.step_budget > 0 &&
        ++events_used_ >
            static_cast<std::size_t>(opts_.harness.step_budget)) {
      fail(FailClass::kStepBudget,
           "job step budget (" + std::to_string(opts_.harness.step_budget) +
               " events) exhausted during offload of '" + kernel_.name +
               "' — livelock or deadlock suspected");
      return;
    }
    try {
      fn();
    } catch (const OffloadError& e) {
      fail(e.fail_class(), e.what());
    } catch (const ExecutionError& e) {
      fail(FailClass::kUnspecified, e.what());
    }
  };
}

std::uint64_t OffloadExecution::sched_after(double dt,
                                            sim::Engine::Callback fn) {
  return engine_.schedule_after(dt, guard(std::move(fn)), gen_);
}

void OffloadExecution::fail(FailClass cls, std::string what) {
  if (ctx_ == nullptr || finished_ || failed_) return;
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
  if (ctx_ == nullptr || finished_ || failed_ || cancelled_) return;
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
  HOMP_REQUIRE(ctx_ == nullptr,
               "OffloadExecution::run() drives a private engine; "
               "shared-context executions use start()");
  launch();
  if (opts_.harness.step_budget > 0) {
    // The fuzz harness's livelock watchdog: a wedged scheduler keeps the
    // queue busy forever in bounded virtual time, which run_until cannot
    // catch but an event budget can (docs/FUZZING.md).
    engine_.run_bounded(static_cast<std::size_t>(opts_.harness.step_budget));
    if (!engine_.idle()) {
      throw OffloadError(
          "engine step budget (" +
          std::to_string(opts_.harness.step_budget) +
          " events) exhausted with work still pending during offload of '" +
              kernel_.name + "' — livelock or deadlock suspected",
          FailClass::kStepBudget);
    }
  } else {
    engine_.run();
  }
  return harvest();
}

OffloadResult OffloadExecution::harvest() {
  OffloadResult res;
  const bool aborted = failed_ || cancelled_;
  res.failed = failed_ && !cancelled_;
  res.cancelled = cancelled_;
  res.fail_class = fail_class_;
  res.error = fail_error_;
  res.engine_events = engine_.events_processed() - events_at_launch_;
  res.algorithm_used = algorithm_used_;
  res.planned_weights = scheduler_->planned_weights();
  if (const auto* cut = scheduler_->cutoff()) {
    res.cutoff = *cut;
    res.has_cutoff = true;
  }
  res.chunks_issued = scheduler_->chunks_issued();
  res.fault_events = std::move(fault_events_);
  res.recovery_events = std::move(recovery_events_);
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

  for (auto& p : proxies_) {
    if (!p->stats.quarantined) {
      p->stats.phase_time[static_cast<int>(Phase::kBarrier)] +=
          end - p->stats.finish_time;
      span(*p, Phase::kBarrier, p->stats.finish_time, end, "final");
    }
    // Stats times are job-relative (launch = 0) so imbalance() and the
    // throughput feedback read the same whether the execution ran
    // standalone (start_time_ == 0: identity) or on a shared engine.
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
