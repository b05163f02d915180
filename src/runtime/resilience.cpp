#include "runtime/resilience.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/checksum.h"
#include "common/error.h"
#include "common/log.h"
#include "model/loop_model.h"
#include "sched/extended_sched.h"

namespace homp::rt {

/// Shared state of the copies of one tardy chunk racing to commit.
/// Exactly one copy wins (`committed` flips once, on the single-threaded
/// engine); every other copy discards its results before they reach the
/// host, so the race cannot double-apply effects or corrupt arrays.
struct Resilience::SpecToken {
  dist::Range range;
  int origin_slot = -1;   ///< the tardy device that triggered speculation
  int runners = 0;        ///< copies currently in some pipeline
  bool committed = false; ///< a copy's host effects have landed
  /// Non-null once a copy of this chunk failed payload verification; the
  /// surviving racers inherit the integrity state so a late clean copy
  /// settles the chunk instead of re-queueing it.
  std::shared_ptr<IntegrityState> integ;
};

/// Shared recovery state of one chunk whose commit failed payload
/// verification (docs/RESILIENCE.md "Integrity"). The chunk is queued
/// for re-execution on another device; after kVoteAfterFailures
/// mismatches it escalates to voting, where each execution becomes a
/// ballot keyed by its payload checksum and the chunk commits only once
/// kVoteQuorum ballots agree on the same sum.
struct Resilience::IntegrityState {
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

namespace {
/// The chunk's recovery state, created on first use.
ChunkRecovery& touch(std::shared_ptr<ChunkRecovery>& r) {
  if (!r) r = std::make_shared<ChunkRecovery>();
  return *r;
}

/// Flip seeded bytes in one of the chunk's mappings (device storage).
void apply_corruption(const std::vector<mem::DeviceMapping*>& maps,
                      bool input_side, std::uint64_t seed) {
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

/// Virtual time to checksum `bytes` on the device (device memory scan).
double integrity_delay(double bytes, const mach::DeviceDescriptor& d) {
  // One pass over the payload at the device's sustained memory bandwidth —
  // the checksum is memory-bound by construction.
  const double bw = d.sustained_membw_Bps();
  return bw > 0.0 && bytes > 0.0 ? bytes / bw : 0.0;
}
}  // namespace

std::uint64_t payload_checksum(const std::vector<mem::DeviceMapping*>& maps,
                               bool input_side, bool host_side) {
  std::uint64_t h = 0;
  for (auto* m : maps) {
    if (m->shared()) continue;  // no wire crossed, nothing to verify
    if (input_side ? !mem::copies_in(m->spec().dir)
                   : !mem::copies_out(m->spec().dir)) {
      continue;
    }
    const dist::Region& r = input_side ? m->footprint() : m->owned();
    const std::uint64_t s =
        host_side ? m->checksum_host(r) : m->checksum_device(r);
    h = mix64(h ^ s);
  }
  return h;
}

std::unique_ptr<Resilience> Resilience::build(OffloadExecution& x) {
  // Option values were already validated (OffloadOptions::validate_or_throw
  // in the constructor); this only derives the runtime plan from them.
  sim::FaultPlan plan;
  plan.set_seed(x.opts_.fault.seed);
  for (const auto& p : x.proxies_) {
    const sim::FaultProfile combined =
        p->desc->fault.combined(x.opts_.fault.extra);
    if (combined.any()) plan.set_profile(p->device_id, combined);
  }
  for (const auto& f : x.opts_.fault.scripted) plan.add_scripted(f);
  // Checksumming is armed whenever it could matter (fault injection on) or
  // when explicitly requested (`integrity.always`, to measure its cost).
  // Offloads inside a data region move no per-chunk bytes — integrity of
  // the region's bulk transfers is the DataRegion's own verified exit.
  const bool armed = x.opts_.integrity.enabled && x.region_envs_ == nullptr &&
                     (plan.active() || x.opts_.integrity.always);
  if (!plan.active() && !armed) return nullptr;
  return std::make_unique<Resilience>(x, std::move(plan), armed);
}

Resilience::Resilience(OffloadExecution& x, sim::FaultPlan plan, bool armed)
    : x_(x),
      plan_(std::move(plan)),
      armed_(armed),
      devices_(x.proxies_.size()) {}

void Resilience::arm_losses() {
  if (!faults()) return;
  for (const auto& p : x_.proxies_) {
    const double lt = plan_.loss_time(p->device_id);
    // loss_time() is relative to the offload's start; store and
    // schedule it absolute so quarantine's permanence check and the
    // event both live on the shared clock.
    dev(p->slot).loss_time = lt >= 0.0 ? x_.start_time_ + lt : -1.0;
    if (lt >= 0.0) {
      const int s = p->slot;
      x_.sched_after(lt, [this, s] { on_device_lost(s); });
    }
  }
}

dist::Range Resilience::take_requeue() {
  HOMP_ASSERT(!requeue_.empty());
  dist::Range& front = requeue_.front();
  const long long take = std::min(requeue_grain_, front.size());
  const dist::Range chunk(front.lo, front.lo + take);
  front.lo += take;
  if (front.empty()) requeue_.pop_front();
  return chunk;
}

std::optional<dist::Range> Resilience::next_chunk(
    int slot, std::shared_ptr<ChunkRecovery>* recovery) {
  Proxy& p = proxy(slot);
  const bool probation = dev(slot).probation;
  std::optional<dist::Range> chunk_opt;
  ChunkRecovery r;
  while (!integrity_queue_.empty() && integrity_queue_.front()->resolved) {
    integrity_queue_.pop_front();
  }
  // Chunks that failed payload verification outrank everything else: they
  // sit on the critical path (completion waits on them) and may need
  // several sequential vote rounds to settle.
  const auto st = std::find_if(
      integrity_queue_.begin(), integrity_queue_.end(), [&](const auto& s) {
        return !s->resolved && integrity_slot_allowed(*s, slot);
      });
  if (st != integrity_queue_.end()) {
    r.integ = *st;
    integrity_queue_.erase(st);
    chunk_opt = r.integ->range;
    r.from_requeue = true;  // recovery work, not the scheduler's own chunk
    ++r.integ->executions;
    ++p.stats.integrity_reexecutions;
    if (r.integ->voting) ++p.stats.vote_rounds;
  } else if (!requeue_.empty()) {
    // Orphaned iterations of a quarantined device are served first, in
    // dynamic grains, regardless of the algorithm in use — the
    // redistribution fallback that lets single-stage (BLOCK/MODEL) plans
    // survive a device loss.
    chunk_opt = take_requeue();
    r.from_requeue = true;
  } else {
    // Speculative duplicates of tardy chunks come next.
    while (!spec_queue_.empty() && spec_queue_.front()->committed) {
      spec_queue_.pop_front();
    }
    const auto t = std::find_if(
        spec_queue_.begin(), spec_queue_.end(),
        [this, slot](const auto& c) { return may_speculate(*c, slot); });
    if (t != spec_queue_.end()) {
      r.token = *t;
      spec_queue_.erase(t);
      ++r.token->runners;
      r.is_spec = true;
      // A copy of a chunk that already failed verification inherits its
      // integrity state (set when the mismatch came after speculation).
      r.integ = r.token->integ;
      chunk_opt = r.token->range;
      ++p.stats.spec_copies_run;
    } else {
      chunk_opt = x_.scheduler_->next_chunk(slot);
    }
  }
  if (chunk_opt && probation && !r.token && !r.integ) {
    // Probation: serve only a small probe; the rest goes back to the
    // requeue where any device (including this one, later) can take it.
    r.is_probe = true;
    ++p.stats.probe_chunks;
    const long long probe = std::max(
        x_.opts_.sched.min_chunk, x_.kernel_.iterations.size() / kProbeDivisor);
    if (chunk_opt->size() > probe) {
      requeue_.push_front(dist::Range(chunk_opt->lo + probe, chunk_opt->hi));
      chunk_opt = dist::Range(chunk_opt->lo, chunk_opt->lo + probe);
      kick_survivors();
    }
  }
  if (r.from_requeue || r.token || r.is_probe) {
    *recovery = std::make_shared<ChunkRecovery>(std::move(r));
  }
  return chunk_opt;
}

WireFault Resilience::draw_wire_fault(const Proxy& p) {
  // Whether this transfer attempt fails is drawn when it is issued; the
  // failure surfaces when the transfer (virtually) completes, so a failed
  // attempt costs its full transfer time before the retry backoff.
  // Silent corruption of the payload is drawn alongside the loss fault so
  // the per-device fault stream stays deterministic; a *failed* attempt
  // delivers no payload, so it cannot also be corrupted.
  WireFault wire;
  if (!faults()) return wire;
  wire.lost = plan_.transfer_fails(p.device_id);
  wire.corrupt_seed = plan_.transfer_corrupts(p.device_id);
  if (wire.lost) wire.corrupt_seed = 0;
  return wire;
}

void Resilience::lose_attempt(int slot, double start, int attempt,
                              const char* what, const dist::Range* chunk,
                              std::function<void()> retry) {
  Proxy& q = proxy(slot);
  const std::string range = chunk != nullptr ? chunk->to_string() : "";
  q.stats.phase_time[static_cast<int>(Phase::kRecovery)] += now() - start;
  x_.span(q, Phase::kRecovery, start, now(), [&range, what] {
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

bool Resilience::check_input(int slot, int attempt, std::uint64_t wire_seed) {
  Proxy& p = proxy(slot);
  const bool had_transfer = p.down != nullptr && p.inflight->bytes_in > 0.0;
  if (wire_seed != 0) {
    // The copy-in payload was silently flipped on the wire. Only the
    // chunk's own input slices are damaged (never writable statics — those
    // are staged once and a re-transfer could not repair them).
    ++p.stats.corruptions_injected;
    note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
               "copy-in " + p.inflight->range.to_string() +
                   " payload silently corrupted");
    if (x_.opts_.execute_bodies) {
      apply_corruption(p.inflight->chunk_maps, /*input_side=*/true,
                       wire_seed);
    }
  }
  if (!armed_ || !had_transfer) return false;

  // Corrupted *input* would produce a wrong-but-self-consistent result
  // that output verification can never catch, so inputs get their own
  // check: host-side sum (computed before the DMA) against the
  // device-side sum of what arrived.
  ++p.stats.integrity_checks;
  bool bad;
  if (x_.opts_.execute_bodies) {
    const std::uint64_t want =
        payload_checksum(p.inflight->chunk_maps, /*input_side=*/true,
                         /*host_side=*/true);
    const std::uint64_t got =
        payload_checksum(p.inflight->chunk_maps, /*input_side=*/true);
    bad = want != got;
  } else {
    bad = wire_seed != 0;  // pure-simulation mode models the comparison
  }
  const double vdelay = integrity_delay(p.inflight->bytes_in, *p.desc);
  p.stats.phase_time[static_cast<int>(Phase::kCopyIn)] += vdelay;
  if (bad) {
    ++p.stats.integrity_failures;
    note_recovery(slot, RecoveryAction::kCorruptionDetected,
                  "copy-in " + p.inflight->range.to_string() +
                      " checksum mismatch — re-transferring");
    // The verification scan still costs its time before the retry; the
    // re-transfer re-stages the slices, repairing the flipped bytes.
    x_.sched_after(vdelay, [this, slot, attempt] {
      Proxy& q = proxy(slot);
      if (q.lost || !q.inflight) return;
      handle_transient(slot, attempt, sim::FaultKind::kCorruptTransfer,
                       [this, slot, attempt] {
                         x_.issue_input(slot, attempt + 1);
                       });
    });
    return true;
  }
  if (vdelay <= 0.0) return false;
  x_.sched_after(vdelay, [this, slot] { x_.input_ready(slot); });
  return true;
}

bool Resilience::launch_fails(int slot, int attempt, double launch) {
  if (!faults() || !plan_.launch_fails(proxy(slot).device_id)) return false;
  // The failure surfaces after the launch overhead has been spent.
  x_.sched_after(launch, [this, slot, attempt, launch] {
    Proxy& q = proxy(slot);
    if (q.lost || !q.computing) return;  // quarantined meanwhile
    q.stats.phase_time[static_cast<int>(Phase::kRecovery)] += launch;
    x_.span(q, Phase::kRecovery, now() - launch, now(),
            [r = q.computing->range] {
              return r.to_string() + " launch fault";
            });
    note_fault(slot, sim::FaultKind::kLaunch, false,
               "launch " + q.computing->range.to_string() + " attempt " +
                   std::to_string(attempt));
    handle_transient(slot, attempt, sim::FaultKind::kLaunch,
                     [this, slot, attempt] {
                       x_.start_launch(slot, attempt + 1);
                     });
  });
  return true;
}

bool Resilience::perturb(int slot, double* compute) {
  if (!faults()) return false;
  Proxy& p = proxy(slot);
  Device& d = dev(slot);
  const dist::Range& range = p.computing->range;
  const double slow = plan_.slowdown(p.device_id);
  if (slow > 1.0) {
    note_fault(slot, sim::FaultKind::kSlowdown, false,
               "compute " + range.to_string() + " slowed x" +
                   std::to_string(slow));
    *compute *= slow;
  }
  const bool hangs = plan_.compute_hangs(p.device_id);
  if (hangs) {
    note_fault(slot, sim::FaultKind::kHang, false,
               "compute " + range.to_string() + " hangs (silent stall)");
  }
  const double deg = plan_.degrade(p.device_id);
  if (deg > 1.0) {
    d.degrade_factor = std::max(d.degrade_factor, deg);
    note_fault(slot, sim::FaultKind::kDegrade, false,
               "sustained degradation x" + std::to_string(deg) + " from " +
                   range.to_string());
  }
  *compute *= d.degrade_factor;
  if (p.up != nullptr) {
    // Silent compute corruption: the kernel finishes on time but its
    // output region is bit-flipped. Shared-memory devices are exempt —
    // their writes land directly in host arrays with no commit
    // boundary to verify at, so modelling silent corruption there
    // would be undetectable by construction.
    const std::uint64_t cs = plan_.compute_corrupts(p.device_id);
    if (cs != 0) {
      touch(p.computing->recovery).corrupt_seed = cs;
      ++p.stats.corruptions_injected;
      note_fault(slot, sim::FaultKind::kCorruptCompute, false,
                 "compute " + range.to_string() +
                     " result silently corrupted");
    }
  }
  return hangs;
}

void Resilience::arm_watchdog(int slot, double launch) {
  // A hung chunk never completes; only the watchdog below can reclaim it
  // (with the watchdog disabled, the offload deadlocks and run() reports
  // the stuck device — the pre-watchdog behaviour).
  if (!faults() || !x_.opts_.watchdog.enabled) return;
  Proxy& p = proxy(slot);
  const std::uint64_t serial = p.compute_serial;
  const double soft =
      std::max(kDeadlineFloorS,
               kDeadlineMultiplier *
                   predicted_chunk_seconds(p, p.computing->range));
  x_.sched_after(launch + soft,
                 [this, slot, serial] { watchdog_soft(slot, serial); });
  // The kill window after the soft fire must leave a speculative
  // duplicate room to complete end-to-end, and the duplicate pays the
  // per-transfer alpha cost the per-iteration prediction deliberately
  // excludes — so the hard deadline scales (soft + round-trip latency),
  // not soft alone. With no link the grace is zero and hard stays a
  // plain multiple of soft.
  const auto& din = x_.loop_context_.devices[static_cast<std::size_t>(slot)];
  const double grace = din.has_link ? 2.0 * din.link_latency_s : 0.0;
  x_.sched_after(launch + (soft + grace) * kHardKillMultiplier,
                 [this, slot, serial] { watchdog_hard(slot, serial); });
}

bool Resilience::superseded(int slot, const PendingChunk& c) {
  const ChunkRecovery* r = c.recovery.get();
  if (r == nullptr || !r->token || !r->token->committed) return false;
  // Another copy of this chunk already committed while we computed:
  // discard before any host effect, skip the (now pointless) output.
  --r->token->runners;
  note_recovery(slot, RecoveryAction::kTardyAbandoned,
                c.range.to_string() + " (other copy committed)");
  return true;
}

void Resilience::seal(OutRecord& out) {
  const std::uint64_t seed = out.recovery ? out.recovery->corrupt_seed : 0;
  if (!armed_ && seed == 0) return;
  std::uint64_t result = 0;
  std::uint64_t payload = 0;
  if (x_.opts_.execute_bodies) {
    result = payload_checksum(out.maps, /*input_side=*/false);
    if (seed != 0) {
      apply_corruption(out.maps, /*input_side=*/false, seed);
      payload = payload_checksum(out.maps, /*input_side=*/false);
    } else {
      payload = result;
    }
  } else {
    // Pure-simulation mode: model the sums symbolically. An injected
    // flip XORs in a nonzero token, so a corrupted hand-off always
    // compares unequal — same detection outcome, no real bytes.
    payload = seed != 0 ? (mix64(seed) | 1) : 0;
  }
  // With no fault source (`integrity.always`) nothing can touch the
  // payload after this scan: its sums could only match, so none is kept.
  if (!faults()) return;
  ChunkRecovery& r = touch(out.recovery);
  r.sum_result = result;
  r.sum_payload = payload;
  r.sum_wire = payload;
}

bool Resilience::settle_shared(int slot, const OutRecord& out) {
  // No wire was crossed, so a re-executed chunk landing here settles its
  // integrity state without further verification.
  IntegrityState* st = out.recovery ? out.recovery->integ.get() : nullptr;
  if (st == nullptr || st->resolved) return false;
  st->resolved = true;
  note_recovery(slot,
                st->voting ? RecoveryAction::kVoteCommitted
                           : RecoveryAction::kReexecuteCommitted,
                out.range.to_string() +
                    " settled by a shared-memory execution");
  return true;
}

bool Resilience::land_output(int slot, const std::shared_ptr<OutRecord>& rec,
                             std::uint64_t wire_seed, double bytes) {
  Proxy& q = proxy(slot);
  if (wire_seed != 0) {
    // The copy-out payload was flipped on the wire. The flips land in
    // the device-side chunk slices (the staging the host commit reads
    // from), so an unverified commit materialises the damage.
    ++q.stats.corruptions_injected;
    note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
               "copy-out " + rec->range.to_string() +
                   " payload silently corrupted");
    if (x_.opts_.execute_bodies) {
      apply_corruption(rec->maps, /*input_side=*/false, wire_seed);
    }
    if (armed_) {
      ChunkRecovery& r = *rec->recovery;  // sealed while faults are active
      r.sum_wire = x_.opts_.execute_bodies
                       ? payload_checksum(rec->maps, /*input_side=*/false)
                       : r.sum_payload ^ (mix64(wire_seed) | 1);
    }
  }
  if (!armed_) return false;
  // Verified commit: spend the checksum scan (device-side sum was
  // computed at compute end; the host side re-scans the received
  // payload), then compare before any host effect lands.
  const double vdelay = integrity_delay(2.0 * bytes, *q.desc);
  q.stats.phase_time[static_cast<int>(Phase::kCopyOut)] += vdelay;
  if (vdelay > 0.0) {
    x_.sched_after(vdelay, [this, slot, rec] { finish_commit(slot, rec); });
  } else {
    finish_commit(slot, rec);
  }
  return true;
}

bool Resilience::resend_write_back(int slot, int attempt, double bytes) {
  // The final static write-back rides the same transfer fault stream.
  // Armed, the corruption is caught and re-sent; unarmed it is modelled
  // only (no real bytes are flipped: flipping host statics could poison a
  // later revived device's copy-in, and the retry path could not repair
  // it — see docs/RESILIENCE.md).
  Proxy& q = proxy(slot);
  ++q.stats.corruptions_injected;
  note_fault(slot, sim::FaultKind::kCorruptTransfer, false,
             "final write-back payload silently corrupted");
  if (!armed_) return false;
  ++q.stats.integrity_checks;
  ++q.stats.integrity_failures;
  note_recovery(slot, RecoveryAction::kCorruptionDetected,
                "final write-back checksum mismatch — re-sending");
  handle_transient(slot, attempt, sim::FaultKind::kCorruptTransfer,
                   [this, slot, bytes, attempt] {
                     x_.issue_finalize(slot, bytes, attempt + 1);
                   });
  return true;
}

bool Resilience::integrity_slot_allowed(const IntegrityState& st,
                                        int slot) const {
  if (proxy(slot).lost) return false;
  auto excluded = [&st](int s) {
    return std::ranges::find(st.suspects, s) != st.suspects.end() ||
           (st.voting && std::ranges::find(st.balloted, s) != st.balloted.end());
  };
  // Graduated fallback: prefer an untainted full-service device; if none
  // is alive, accept an untainted probation device; if even that fails
  // (e.g. a two-device machine where both are implicated), let anyone
  // alive serve so the queue can always drain.
  bool strict = false;
  bool relaxed = false;
  for (const auto& q : x_.proxies_) {
    if (q->lost) continue;
    if (!excluded(q->slot)) {
      relaxed = true;
      if (!dev(q->slot).probation) strict = true;
    }
  }
  if (strict) return !excluded(slot) && !dev(slot).probation;
  if (relaxed) return !excluded(slot);
  return true;
}

void Resilience::finish_commit(int slot, std::shared_ptr<OutRecord> rec) {
  Proxy& q = proxy(slot);
  if (q.lost || !q.holds(rec)) return;  // quarantined during the scan
  ++q.stats.integrity_checks;
  const ChunkRecovery* r = rec->recovery.get();
  const bool bad_compute = r != nullptr && r->sum_payload != r->sum_result;
  const bool bad_wire = r != nullptr && r->sum_wire != r->sum_payload;
  if (bad_compute || bad_wire) {
    handle_corrupt_commit(slot, rec, bad_wire && !bad_compute);
    return;
  }

  auto st = r != nullptr ? r->integ : nullptr;
  const auto token = r != nullptr ? r->token : nullptr;
  if (st && st->resolved) {
    // Another execution already settled this chunk (vote quorum reached,
    // or a clean re-execution committed): discard this late clean copy
    // before it double-applies host effects.
    if (token) --token->runners;
    note_recovery(slot, RecoveryAction::kTardyAbandoned,
                  rec->range.to_string() + " (chunk already settled)");
    std::erase(q.outputs, rec);
    x_.try_fetch(slot);
    x_.sweep_completion();
    return;
  }
  if (st && token && token->committed) {
    // The racing copy committed while we verified; commit() below
    // discards this copy, and the race winner's commit settled the range.
    st->resolved = true;
    st = nullptr;
  }
  if (st && st->voting) {
    // Voting: this clean execution is a ballot keyed by its payload sum.
    // The chunk commits only when kVoteQuorum ballots agree — and since
    // equal checksums mean equal payloads, committing the quorum-reaching
    // copy commits the agreed bytes.
    auto b = std::ranges::find(st->ballots, r->sum_wire,
                               &IntegrityState::Ballot::sum);
    if (b == st->ballots.end()) b = st->ballots.insert(b, {r->sum_wire, 0});
    const int agree = ++b->count;
    st->balloted.push_back(slot);
    if (agree < kVoteQuorum) {
      if (token) --token->runners;
      note_recovery(slot, RecoveryAction::kReexecuteQueued,
                    rec->range.to_string() + " ballot " +
                        std::to_string(agree) + "/" +
                        std::to_string(kVoteQuorum) +
                        " — needs another agreeing execution");
      if (st->executions >= kMaxAttempts) {
        throw OffloadError(
            "chunk " + rec->range.to_string() + " failed to reach a " +
                std::to_string(kVoteQuorum) + "-vote integrity quorum " +
                "within " + std::to_string(kMaxAttempts) +
                " executions — data integrity cannot be established",
            FailClass::kQuorumExhausted);
      }
      integrity_queue_.push_back(st);
      std::erase(q.outputs, rec);
      kick_survivors();
      x_.try_fetch(slot);
      x_.sweep_completion();
      return;
    }
    st->resolved = true;
    note_recovery(slot, RecoveryAction::kVoteCommitted,
                  rec->range.to_string() + " quorum " +
                      std::to_string(agree) + "/" +
                      std::to_string(kVoteQuorum) +
                      " — agreed payload committed");
  } else if (st) {
    st->resolved = true;
    note_recovery(slot, RecoveryAction::kReexecuteCommitted,
                  rec->range.to_string() +
                      " re-execution verified and committed");
  }

  x_.commit(slot, *rec);
  std::erase(q.outputs, rec);
  x_.sample_queue_depth(q);
  x_.try_fetch(slot);
  x_.sweep_completion();
}

void Resilience::handle_corrupt_commit(int slot,
                                       const std::shared_ptr<OutRecord>& rec,
                                       bool wire_only) {
  Proxy& q = proxy(slot);
  ++q.stats.integrity_failures;
  note_recovery(slot, RecoveryAction::kCorruptionDetected,
                rec->range.to_string() +
                    (wire_only ? " copy-out" : " kernel result") +
                    " checksum mismatch — chunk discarded before commit");

  ChunkRecovery& r = *rec->recovery;  // mismatched sums were kept here
  auto st = r.integ;
  if (!st) {
    st = std::make_shared<IntegrityState>();
    st->range = rec->range;
  }
  ++st->failures;
  if (std::ranges::find(st->suspects, slot) == st->suspects.end()) {
    st->suspects.push_back(slot);
  }
  if (!st->voting && st->failures >= kVoteAfterFailures) {
    st->voting = true;
    note_recovery(slot, RecoveryAction::kVoteOpened,
                  rec->range.to_string() + " escalated to " +
                      std::to_string(kVoteQuorum) +
                      "-vote agreement after " +
                      std::to_string(st->failures) + " integrity failures");
  }

  // This copy is discarded. A racing copy still running inherits the
  // integrity state and may settle the chunk; otherwise the chunk is
  // queued for re-execution.
  r.integ = st;
  if (r.token) r.token->integ = st;
  std::erase(q.outputs, rec);
  if (release(&r)) {
    if (st->executions >= kMaxAttempts) {
      throw OffloadError(
          "chunk " + rec->range.to_string() +
              " still fails integrity verification after " +
              std::to_string(kMaxAttempts) +
              " executions — data integrity cannot be established",
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
  if (dev(slot).probation) {
    quarantine(slot, kind, "probation chunk failed integrity verification");
  } else if (q.stats.integrity_failures >=
             static_cast<std::size_t>(kIntegrityQuarantineThreshold)) {
    quarantine(slot, kind,
               "repeated integrity failures (" +
                   std::to_string(q.stats.integrity_failures) + ")");
  } else {
    kick_survivors();
    x_.try_fetch(slot);
    x_.sweep_completion();
  }
}

void Resilience::handle_transient(int slot, int attempt, sim::FaultKind kind,
                                  std::function<void()> retry) {
  Proxy& p = proxy(slot);
  if (attempt > kMaxRetries) {
    quarantine(slot, kind,
               std::string(sim::to_string(kind)) + " retry budget (" +
                   std::to_string(kMaxRetries) + ") exhausted");
    return;
  }
  ++p.stats.retries;
  const double backoff =
      std::min(kBackoffBaseS * std::pow(2.0, static_cast<double>(attempt - 1)),
               kBackoffCapS);
  p.stats.phase_time[static_cast<int>(Phase::kRecovery)] += backoff;
  x_.span(p, Phase::kRecovery, now(), now() + backoff,
          [attempt] { return "backoff #" + std::to_string(attempt); });
  x_.sched_after(backoff, [this, slot, retry = std::move(retry)] {
    if (!proxy(slot).lost) retry();
  });
}

void Resilience::note_fault(int slot, sim::FaultKind kind, bool fatal,
                            std::string detail) {
  Proxy& p = proxy(slot);
  ++p.stats.faults;
  fault_events.push_back(
      FaultEvent{now(), slot, p.device_id, kind, fatal, std::move(detail)});
}

void Resilience::note_recovery(int slot, RecoveryAction action,
                               std::string detail) {
  recovery_events.push_back(RecoveryEvent{now(), slot, proxy(slot).device_id,
                                          action, std::move(detail)});
}

void Resilience::on_device_lost(int slot) {
  Proxy& p = proxy(slot);
  if (p.lost) return;
  if (p.done) {
    // The device finished its share before failing: its results are
    // committed and nothing needs requeuing — but it must never be
    // revived for redistribution work.
    p.lost = true;
    note_fault(slot, sim::FaultKind::kDeviceLoss, true,
               "device lost after completing its share");
    return;
  }
  ++p.stats.faults;
  quarantine(slot, sim::FaultKind::kDeviceLoss, "device permanently lost");
}

void Resilience::quarantine(int slot, sim::FaultKind kind,
                            const std::string& detail) {
  Proxy& p = proxy(slot);
  Device& d = dev(slot);
  if (p.lost) return;
  p.lost = true;
  d.probation = false;
  d.probes_passed = 0;
  p.stats.quarantined = true;
  p.stats.quarantined_at = now();
  ++p.stats.quarantine_count;
  ++p.compute_serial;  // disarm any pending watchdog events
  fault_events.push_back(FaultEvent{now(), slot, p.device_id, kind,
                                    /*fatal=*/true, "quarantined: " + detail});
  HOMP_WARN << "device '" << p.desc->name << "' quarantined at t=" << now()
            << ": " << detail;
  if (x_.audit_on()) {
    x_.note_decision(slot, DecisionKind::kQuarantined, dist::Range(),
                     std::string(sim::to_string(kind)) + ": " + detail);
  }
  if (x_.opts_.collect_trace) {
    p.outstanding_bytes = 0.0;
    x_.record_counter(p, CounterTrack::kOutstandingBytes, 0.0);
    x_.sample_queue_depth(p);
  }

  // Requeue everything in flight. None of it has been committed to the
  // host (commits ride the copy-out completion), so re-executing the
  // chunks elsewhere cannot double-count or corrupt host arrays. Each
  // copy goes through release(), which keeps the first-commit-wins
  // invariant (committed ranges never requeue).
  long long taken = 0;
  for (std::optional<PendingChunk>* c : {&p.inflight, &p.ready, &p.computing}) {
    if (*c && release((*c)->recovery.get())) taken += requeue((*c)->range);
    c->reset();
  }
  p.fetching = false;
  for (const auto& rec : p.outputs) {
    if (release(rec->recovery.get())) taken += requeue(rec->range);
  }
  p.outputs.clear();
  x_.leave_stage(p, nullptr);

  // No survivors means nobody is left to serve the requeue: surface a
  // clean error *before* asking the scheduler to deactivate its last
  // slot (which would throw its own, less informative, OffloadError).
  const auto survivors = static_cast<std::size_t>(std::count_if(
      x_.proxies_.begin(), x_.proxies_.end(),
      [](const auto& q) { return !q->lost; }));
  if (survivors == 0) {
    throw OffloadError("all devices lost during offload of '" +
                           x_.kernel_.name + "' (last: '" + p.desc->name +
                           "', " + detail + ")",
                       FailClass::kAllDevicesLost);
  }

  // Reserved-but-unissued iterations come back from the scheduler.
  // Single-shot (BLOCK / MODEL_*) plans thereby fall back to dynamic
  // redistribution of the orphaned partition.
  for (const auto& r : x_.scheduler_->deactivate(slot)) taken += requeue(r);
  p.stats.requeued_iterations += taken;

  if (!requeue_.empty()) {
    long long total = 0;
    for (const auto& r : requeue_) total += r.size();
    requeue_grain_ = std::max(x_.opts_.sched.min_chunk,
                              total / static_cast<long long>(4 * survivors));
  }

  // Unless the device is *really* gone, give it a path back: after an
  // exponentially growing cooldown it re-enters in probation.
  const bool permanent = kind == sim::FaultKind::kDeviceLoss ||
                         (d.loss_time >= 0.0 && now() >= d.loss_time);
  if (!permanent && x_.opts_.watchdog.enabled) schedule_readmission(slot);

  x_.pass_serial_token(slot);
  kick_survivors();
  // The dead slot no longer holds the stage barrier; removing it may
  // release the survivors.
  x_.check_stage_barrier();
  // A spec-token'd chunk whose duplicate already committed requeues
  // nothing, so this quarantine may have been the offload's last word.
  x_.maybe_finish();
}

bool Resilience::release(const ChunkRecovery* r) {
  if (r == nullptr) return true;
  if (const auto& token = r->token) {
    --token->runners;
    // An offer still queued as optional work is withdrawn (nobody has to
    // take it, which would strand the chunk).
    std::erase(spec_queue_, token);
    if (token->committed) return false;  // results already on the host
    if (token->runners > 0) return false;  // another copy still races
  }
  // A settled chunk is owed nothing, and one whose integrity state is
  // back on the integrity queue is owed there: requeueing it as well
  // would commit it twice.
  const auto& integ = r->integ;
  return !integ ||
         (!integ->resolved &&
          std::find(integrity_queue_.begin(), integrity_queue_.end(),
                    integ) == integrity_queue_.end());
}

long long Resilience::requeue(const dist::Range& range) {
  if (range.empty()) return 0;
  requeue_.push_back(range);
  return range.size();
}

double Resilience::predicted_chunk_seconds(const Proxy& p,
                                           const dist::Range& chunk) const {
  // MODEL_2's per-iteration prediction (peak numbers: systematically
  // optimistic), loosened by what the device has actually demonstrated —
  // its cross-offload throughput history and this offload's per-iteration
  // EWMA — so a legitimately slow device is not hounded by false fires.
  double iter_s = model::model2_iter_time(
      x_.loop_context_.kernel,
      x_.loop_context_.devices[static_cast<std::size_t>(p.slot)]);
  if (p.history_rate > 0.0) iter_s = std::max(iter_s, 1.0 / p.history_rate);
  if (p.ewma_iter_s > 0.0) iter_s = std::max(iter_s, p.ewma_iter_s);
  double t = static_cast<double>(chunk.size()) * iter_s +
             p.desc->launch_overhead_s;
  if (x_.kernel_.work_factor) t *= x_.kernel_.work_factor(chunk);
  return t;
}

void Resilience::watchdog_soft(int slot, std::uint64_t serial) {
  Proxy& p = proxy(slot);
  if (p.lost || !p.computing || p.compute_serial != serial) return;
  ++p.stats.tardy_chunks;
  const dist::Range range = p.computing->range;
  note_recovery(slot, RecoveryAction::kWatchdogFired,
                range.to_string() + " missed its soft deadline");

  if (dev(slot).probation) {
    // A probe that cannot even meet a 4x-slack deadline fails probation.
    quarantine(slot, sim::FaultKind::kHang,
               "probation probe " + range.to_string() +
                   " missed its deadline");
    return;
  }
  if (p.stats.tardy_chunks >=
      static_cast<std::size_t>(kTardyQuarantineThreshold)) {
    quarantine(slot, sim::FaultKind::kHang,
               "repeatedly tardy (" + std::to_string(p.stats.tardy_chunks) +
                   " chunks missed their deadline)");
    return;
  }

  // Speculate the tardy chunk onto a survivor. Disabled inside data
  // regions (the chunk's data lives only in the tardy device's region
  // slice) and for chunks that already carry a token.
  std::shared_ptr<ChunkRecovery>& recovery = p.computing->recovery;
  if (!x_.opts_.watchdog.speculation || x_.region_envs_ != nullptr ||
      (recovery && recovery->token)) {
    return;
  }
  std::vector<Proxy*> candidates;
  for (const auto& q : x_.proxies_) {
    if (q->lost || q->slot == slot || dev(q->slot).probation) continue;
    candidates.push_back(q.get());
  }
  if (candidates.empty()) return;

  auto token = std::make_shared<SpecToken>();
  token->range = range;
  token->origin_slot = slot;
  token->runners = 1;  // the tardy original
  // Racing copies share the vote state.
  token->integ = recovery ? recovery->integ : nullptr;
  touch(recovery).token = token;
  spec_queue_.push_back(std::move(token));
  note_recovery(slot, RecoveryAction::kSpeculated,
                range.to_string() + " duplicated onto the survivors");
  if (x_.audit_on()) {
    x_.note_decision(slot, DecisionKind::kSpeculated, range,
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
  for (Proxy* q : candidates) x_.rouse(*q);
}

void Resilience::watchdog_hard(int slot, std::uint64_t serial) {
  Proxy& p = proxy(slot);
  if (p.lost || !p.computing || p.compute_serial != serial) return;
  // The chunk blew even the hard deadline: presumed hung. The time sunk
  // into it was recovery overhead, not useful compute.
  p.stats.phase_time[static_cast<int>(Phase::kRecovery)] +=
      now() - p.compute_started;
  x_.span(p, Phase::kRecovery, p.compute_started, now(),
          [r = p.computing->range] { return r.to_string() + " hung"; });
  quarantine(slot, sim::FaultKind::kHang,
             "compute " + p.computing->range.to_string() +
                 " exceeded the hard watchdog deadline");
}

bool Resilience::claim(int slot, const OutRecord& rec) {
  Proxy& p = proxy(slot);
  const ChunkRecovery* r = rec.recovery.get();
  if (r == nullptr) return true;
  const dist::Range& range = rec.range;
  if (const auto& token = r->token) {
    --token->runners;
    if (token->committed) {
      note_recovery(slot, RecoveryAction::kTardyAbandoned,
                    range.to_string() + " (lost the commit race)");
      return false;
    }
    token->committed = true;
    if (r->is_spec) {
      ++p.stats.spec_copies_won;
      note_recovery(slot, RecoveryAction::kSpecCommitted, range.to_string());
      // First-commit-wins cancels the loser *now*. The origin missed its
      // soft deadline and then lost to a from-scratch duplicate that paid
      // the full copy-in/copy-out cost — it is hung or degraded beyond
      // use, and every further second it grinds on an already-committed
      // chunk holds the final barrier hostage. Quarantine it immediately
      // (probation can re-admit it); the hard deadline stays as the
      // backstop for chunks that were never speculated.
      Proxy& origin = proxy(token->origin_slot);
      if (!origin.lost && origin.computing &&
          origin.computing->recovery &&
          origin.computing->recovery->token == token) {
        origin.stats.phase_time[static_cast<int>(Phase::kRecovery)] +=
            now() - origin.compute_started;
        x_.span(origin, Phase::kRecovery, origin.compute_started, now(),
                [range] { return range.to_string() + " lost to its duplicate"; });
        quarantine(token->origin_slot, sim::FaultKind::kHang,
                   "compute " + range.to_string() +
                       " lost the commit race to its speculative duplicate");
      }
    }
  }
  Device& d = dev(slot);
  if (r->is_probe && d.probation) {
    ++d.probes_passed;
    note_recovery(slot, RecoveryAction::kProbePassed, range.to_string());
    if (d.probes_passed >= kProbationSuccesses) {
      d.probation = false;
      note_recovery(slot, RecoveryAction::kPromoted,
                    "restored to full service after " +
                        std::to_string(d.probes_passed) + " probes");
    }
  }
  return true;
}

void Resilience::schedule_readmission(int slot) {
  Proxy& p = proxy(slot);
  const double cooldown = std::min(
      kCooldownCapS,
      kCooldownBaseS *
          std::pow(kCooldownGrowth,
                   static_cast<double>(p.stats.quarantine_count - 1)));
  x_.span(p, Phase::kRecovery, now(), now() + cooldown,
          "quarantine cooldown");
  x_.sched_after(cooldown, [this, slot] { readmit(slot); });
}

void Resilience::readmit(int slot) {
  Proxy& p = proxy(slot);
  Device& d = dev(slot);
  if (!p.lost) return;
  // Quarantined first, *then* its scheduled permanent loss passed: dead.
  if (d.loss_time >= 0.0 && now() >= d.loss_time) return;
  // Offload effectively over: nothing left to prove, stay quarantined.
  const bool running =
      std::any_of(x_.proxies_.begin(), x_.proxies_.end(),
                  [](const auto& q) { return !q->lost && !q->done; });
  if (!running && !owed_work()) return;

  p.lost = false;
  d.probation = true;
  d.probes_passed = 0;
  p.done = false;
  p.finalizing = false;
  p.stats.quarantined = false;
  ++p.stats.readmissions;
  const std::string why = "probation after cooldown (quarantine #" +
                          std::to_string(p.stats.quarantine_count) + ")";
  note_recovery(slot, RecoveryAction::kReadmitted, why);
  if (x_.audit_on()) {
    x_.note_decision(slot, DecisionKind::kReadmitted, dist::Range(), why);
  }
  HOMP_INFO << "device '" << p.desc->name << "' re-admitted in probation at "
            << "t=" << now();
  x_.scheduler_->reactivate(slot);
  x_.sched_after(0.0, [this, slot] { x_.try_fetch(slot); });
}

bool Resilience::may_speculate(const SpecToken& t, int slot) const {
  return !t.committed && t.origin_slot != slot && !dev(slot).probation;
}

bool Resilience::has_work_for(int slot) const {
  if (!requeue_.empty()) return true;
  for (const auto& st : integrity_queue_) {
    if (!st->resolved && integrity_slot_allowed(*st, slot)) return true;
  }
  for (const auto& t : spec_queue_) {
    if (may_speculate(*t, slot)) return true;
  }
  return false;
}

void Resilience::kick_survivors() {
  for (const auto& q : x_.proxies_) {
    if (q->lost || !has_work_for(q->slot)) continue;
    x_.rouse(*q);
  }
}

bool Resilience::owed_work() const {
  return !requeue_.empty() ||
         std::any_of(integrity_queue_.begin(), integrity_queue_.end(),
                     [](const auto& st) { return !st->resolved; });
}

}  // namespace homp::rt
