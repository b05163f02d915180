#ifndef HOMP_RUNTIME_RESILIENCE_H
#define HOMP_RUNTIME_RESILIENCE_H

/// \file resilience.h
/// The recovery policy of one offload (docs/RESILIENCE.md), apart from the
/// pipeline in offload_exec.h, which builds it only when fault injection
/// is active or integrity is armed: a fault-free offload carries none of
/// its state.
///
/// Transient transfer/launch faults are retried with capped exponential
/// backoff. A device that exhausts its retry budget, hangs past the
/// watchdog's hard deadline or is permanently lost is quarantined, and its
/// uncommitted iterations are requeued to the survivors. A tardy chunk is
/// duplicated onto a survivor (first commit wins), a quarantined device
/// returns through probation, and payload checksums catch silent
/// corruption before the host commit, re-executing and voting until a
/// result verifies.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/offload_exec.h"
#include "sim/fault.h"

namespace homp::rt {

// Recovery constants (docs/RESILIENCE.md "Recovery constants"). Retry k
// of a transfer or launch waits min(kBackoffBaseS * 2^(k-1), kBackoffCapS);
// a chunk's soft deadline is max(kDeadlineFloorS, kDeadlineMultiplier x
// predicted), its hard one kHardKillMultiplier x (soft + round-trip
// latency); quarantine q re-admits after min(kCooldownCapS, kCooldownBaseS
// x kCooldownGrowth^(q-1)); probes are max(sched.min_chunk, loop /
// kProbeDivisor) iterations; kTardyQuarantineThreshold tardy chunks or
// kIntegrityQuarantineThreshold integrity failures quarantine a device.
inline constexpr int kMaxRetries = 3;  ///< retries before quarantine
inline constexpr double kBackoffBaseS = 100e-6;
inline constexpr double kBackoffCapS = 10e-3;
inline constexpr double kDeadlineMultiplier = 4.0;
inline constexpr double kDeadlineFloorS = 50e-6;
inline constexpr double kHardKillMultiplier = 3.0;
inline constexpr int kTardyQuarantineThreshold = 3;
inline constexpr double kCooldownBaseS = 1e-3;
inline constexpr double kCooldownGrowth = 2.0;
inline constexpr double kCooldownCapS = 1.0;
inline constexpr long long kProbeDivisor = 64;
inline constexpr int kProbationSuccesses = 2;  ///< probes that promote
inline constexpr int kVoteAfterFailures = 2;  ///< integrity failures to vote
inline constexpr int kVoteQuorum = 2;         ///< agreeing ballots commit
inline constexpr int kMaxAttempts = 8;  ///< executions of one chunk, at most
inline constexpr int kIntegrityQuarantineThreshold = 3;

/// Combined checksum over the payload of `maps` in one direction: the
/// footprint of each mapping that copies in (`input_side`), else the owned
/// region of each mapping that copies out, read from device storage or,
/// with `host_side`, from the host copy. Shared mappings cross no wire and
/// are skipped. 0 in pure-simulation mode.
std::uint64_t payload_checksum(const std::vector<mem::DeviceMapping*>& maps,
                               bool input_side, bool host_side = false);

/// Whether the wire loses a transfer attempt and, if it lands, the seed
/// of its silent payload corruption (0 = clean).
struct WireFault {
  bool lost = false;
  std::uint64_t corrupt_seed = 0;
};

class Resilience {
  using Proxy = OffloadExecution::Proxy;
  using PendingChunk = OffloadExecution::PendingChunk;
  using OutRecord = OffloadExecution::OutRecord;

 public:
  struct SpecToken;       // resilience.cpp
  struct IntegrityState;  // resilience.cpp

  /// The module for `x`, or null when no fault can strike and integrity
  /// is not armed.
  static std::unique_ptr<Resilience> build(OffloadExecution& x);
  Resilience(OffloadExecution& x, sim::FaultPlan plan, bool armed);

  // Where a fault can land, in pipeline order.
  /// Schedule the plan's permanent device losses (at launch).
  void arm_losses();
  /// The next chunk for `slot`: integrity re-executions, requeued and
  /// speculated work ahead of the scheduler's own, trimmed to a probe in
  /// probation. `*recovery` is set for anything but a plain chunk.
  std::optional<dist::Range> next_chunk(
      int slot, std::shared_ptr<ChunkRecovery>* recovery);
  /// The one wire-fault draw of a transfer attempt (copy-in, copy-out or
  /// final write-back), made when the attempt is issued.
  WireFault draw_wire_fault(const Proxy& p);
  /// The one lost-attempt path of a transfer the wire lost: its time is
  /// recovery time, the fault is noted, and the attempt is retried.
  /// `what` names the transfer; `chunk` is null for the write-back.
  void lose_attempt(int slot, double start, int attempt, const char* what,
                    const dist::Range* chunk, std::function<void()> retry);
  /// A landed copy-in: apply its wire corruption, verify it when armed.
  /// True when this took over (a re-transfer or a delayed input_ready).
  bool check_input(int slot, int attempt, std::uint64_t wire_seed);
  /// Does this launch attempt fail? Then the retry is under way.
  bool launch_fails(int slot, int attempt, double launch);
  /// Slowdown, degradation, hang and result corruption of the compute
  /// just launched; true when it hangs.
  bool perturb(int slot, double* compute);
  void arm_watchdog(int slot, double launch);
  /// Did another copy of this computed chunk commit first? Then drop it.
  bool superseded(int slot, const PendingChunk& c);
  /// Payload sums and injected corruption of a computed chunk to ship.
  void seal(OutRecord& out);
  /// A shared-memory execution settles its chunk's integrity state; true
  /// when that lifted a global completion block.
  bool settle_shared(int slot, const OutRecord& out);
  /// A landed copy-out: apply its wire corruption, then verify before the
  /// commit when armed. True when this took over the commit.
  bool land_output(int slot, const std::shared_ptr<OutRecord>& rec,
                   std::uint64_t wire_seed, double bytes);
  /// A corrupted final write-back: true when it is re-sent.
  bool resend_write_back(int slot, int attempt, double bytes);
  /// The first-commit-wins claim plus probation bookkeeping of a commit;
  /// false when another copy already committed.
  bool claim(int slot, const OutRecord& rec);
  /// Mandatory work no proxy holds: requeued iterations or unsettled
  /// integrity re-executions.
  bool owed_work() const;
  /// Anything next_chunk() would hand this slot right now: requeued
  /// iterations, an integrity re-execution it may serve, or a speculative
  /// copy may_speculate() allows?
  bool has_work_for(int slot) const;

  std::vector<FaultEvent> fault_events;
  std::vector<RecoveryEvent> recovery_events;

 private:
  /// Per-device recovery state.
  struct Device {
    double loss_time = -1.0;  ///< scheduled permanent loss; < 0 = never
    double degrade_factor = 1.0;  ///< latched sustained-slowdown multiplier
    bool probation = false;       ///< re-admitted, serving probe chunks
    int probes_passed = 0;
  };

  Proxy& proxy(int slot) const {
    return *x_.proxies_[static_cast<std::size_t>(slot)];
  }
  Device& dev(int slot) { return devices_[static_cast<std::size_t>(slot)]; }
  const Device& dev(int slot) const {
    return devices_[static_cast<std::size_t>(slot)];
  }
  double now() const { return x_.engine_.now(); }
  bool faults() const noexcept { return plan_.active(); }

  void on_device_lost(int slot);
  void handle_transient(int slot, int attempt, sim::FaultKind kind,
                        std::function<void()> retry);
  void quarantine(int slot, sim::FaultKind kind, const std::string& detail);
  void note_fault(int slot, sim::FaultKind kind, bool fatal,
                  std::string detail);
  void note_recovery(int slot, RecoveryAction action, std::string detail);
  dist::Range take_requeue();
  /// Append `range` to the requeue; returns the iterations it added.
  long long requeue(const dist::Range& range);
  /// The one release rule for a copy that will not commit: it leaves its
  /// speculation race (drops its runner count; a queued offer is
  /// withdrawn). True when its range is owed again: not when it
  /// committed, another copy still races, or its integrity state is
  /// settled or already back on the integrity queue.
  bool release(const ChunkRecovery* r);
  void kick_survivors();

  // Watchdog, speculation, probation.
  /// May `slot` run a copy of this tardy chunk? Not once a copy
  /// committed, not on the tardy device itself (it still runs the
  /// original) and not in probation (probes must be cheap scheduler
  /// work). The one rule behind both next_chunk() and has_work_for().
  bool may_speculate(const SpecToken& t, int slot) const;
  double predicted_chunk_seconds(const Proxy& p,
                                 const dist::Range& chunk) const;
  void watchdog_soft(int slot, std::uint64_t serial);
  void watchdog_hard(int slot, std::uint64_t serial);
  void schedule_readmission(int slot);
  void readmit(int slot);

  // Data integrity.
  /// May `slot` serve this troubled chunk? Suspect and already-balloted
  /// devices are excluded, with graduated fallback so the queue can
  /// always drain (docs/RESILIENCE.md).
  bool integrity_slot_allowed(const IntegrityState& st, int slot) const;
  /// Deferred half of a verified commit: compare the payload sums,
  /// ballot when voting, then commit().
  void finish_commit(int slot, std::shared_ptr<OutRecord> rec);
  /// A commit-side checksum mismatch: discard, queue a re-execution,
  /// maybe open a vote, maybe trip the integrity circuit breaker.
  void handle_corrupt_commit(int slot, const std::shared_ptr<OutRecord>& rec,
                             bool wire_only);

  OffloadExecution& x_;
  sim::FaultPlan plan_;
  /// Payloads are checksummed and verified (docs/RESILIENCE.md).
  bool armed_ = false;
  std::vector<Device> devices_;  // per slot
  /// Orphaned iterations of quarantined devices, redistributed to the
  /// survivors in dynamic grains ahead of the scheduler's own chunks.
  std::deque<dist::Range> requeue_;
  long long requeue_grain_ = 1;
  /// Tardy chunks offered for speculative duplication (optional work:
  /// completion never waits on it; a hung original converts its entry
  /// into mandatory requeue work at quarantine).
  std::deque<std::shared_ptr<SpecToken>> spec_queue_;
  /// Chunks discarded after a checksum mismatch, awaiting re-execution
  /// (served ahead of everything else; completion waits on it).
  std::deque<std::shared_ptr<IntegrityState>> integrity_queue_;
};

/// One chunk's recovery state, shared by its pipeline and output records.
/// Null until recovery touches the chunk, so always null on a fault-free
/// offload.
struct ChunkRecovery {
  bool from_requeue = false;  ///< recovery work, not a scheduler chunk
  bool is_spec = false;       ///< this copy is the speculative duplicate
  bool is_probe = false;      ///< probation probe chunk
  /// Non-zero: the FaultPlan silently corrupts this chunk's kernel
  /// output; the seed drives the injected bit flips.
  std::uint64_t corrupt_seed = 0;
  /// Payload sums at each hand-off: after the kernel body (`sum_result`),
  /// after any injected compute corruption (`sum_payload`, the
  /// device-side checksum shipped with the chunk), and as received after
  /// the output transfer (`sum_wire`). The commit compares them to tell a
  /// corrupted kernel result from a corrupted transfer.
  std::uint64_t sum_result = 0;
  std::uint64_t sum_payload = 0;
  std::uint64_t sum_wire = 0;
  std::shared_ptr<Resilience::SpecToken> token;  ///< non-null once speculated
  std::shared_ptr<Resilience::IntegrityState> integ;  ///< set on re-executions
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_RESILIENCE_H
