#ifndef HOMP_SIM_FAULT_H
#define HOMP_SIM_FAULT_H

/// \file fault.h
/// Deterministic fault injection for the discrete-event simulation.
///
/// Production heterogeneous nodes lose accelerators mid-offload (ECC
/// errors, PCIe resets, thermal throttling); the paper's runtime assumes
/// every device in the device(...) list survives. This module supplies the
/// fault *model* — which operations fail, when, on which device — while
/// the recovery *policy* (retry, backoff, quarantine, redistribution)
/// lives in the runtime (see runtime/resilience.h and
/// docs/RESILIENCE.md).
///
/// Two injection modes compose:
///  * seeded-random: per-device failure rates (FaultProfile), drawn from
///    independent xoshiro streams keyed by (seed, device id). Each device
///    consults its own stream in its own pipeline order, so outcomes are
///    reproducible regardless of how proxies interleave on the engine.
///  * scripted: "the Nth transfer on device 3 fails", "device 2 dies at
///    t = 1.5ms" — exact placement for tests.
///
/// All queries are in virtual time; identical seed + script => identical
/// fault sequence => identical recovery trajectory.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/prng.h"

namespace homp::sim {

/// What kind of failure strikes.
enum class FaultKind : int {
  kTransfer = 0,  ///< a host<->device transfer fails (transient)
  kLaunch,        ///< a kernel launch fails (transient)
  kSlowdown,      ///< one kernel execution is slowed (transient)
  kDeviceLoss,    ///< the device is permanently gone
  kHang,          ///< a kernel execution never completes (silent stall)
  kDegrade,       ///< sustained slowdown from this execution onwards
  kCorruptTransfer,  ///< a transfer payload is silently bit-flipped
  kCorruptCompute,   ///< a kernel result is silently bit-flipped
};

/// Size of the per-device operation-counter array, indexed by the raw
/// FaultKind value. kDeviceLoss (time-based, never counted) keeps its
/// slot so later kinds index past it safely.
inline constexpr int kNumCountedKinds =
    static_cast<int>(FaultKind::kCorruptCompute) + 1;

const char* to_string(FaultKind k) noexcept;

/// The value rules of FaultProfile's fields, the one definition behind
/// FaultProfile::violations() and the machine file's `fault_*` keys.
/// A rate is a finite probability in [0, 1).
bool fault_rate_ok(double v) noexcept;
/// A factor is a finite multiplier >= 1.
bool fault_factor_ok(double v) noexcept;
/// A loss time is -1 (never) or a finite time >= 0; other negatives are
/// almost certainly typos.
bool fail_time_ok(double v) noexcept;

/// Per-device fault characteristics. Lives on DeviceDescriptor (parsed
/// from machines/*.ini `fault_*` keys) and/or on OffloadOptions as
/// offload-wide extra rates.
struct FaultProfile {
  /// Probability that one transfer (copy-in, copy-out or finalize
  /// write-back) fails transiently. In [0, 1).
  double transfer_fault_rate = 0.0;

  /// Probability that one kernel launch fails transiently. In [0, 1).
  double launch_fault_rate = 0.0;

  /// Probability that one kernel execution runs slowed (thermal
  /// throttling, clock capping). In [0, 1).
  double slowdown_rate = 0.0;

  /// Multiplier applied to the compute time when a slowdown strikes.
  double slowdown_factor = 4.0;

  /// Probability that one kernel execution hangs: it never completes and
  /// only the runtime's watchdog can detect it. In [0, 1).
  double hang_rate = 0.0;

  /// Probability that a *sustained* degradation begins at one kernel
  /// execution: unlike kSlowdown, the slowdown persists for the rest of
  /// the offload (failing fan, stuck power state). In [0, 1).
  double degrade_rate = 0.0;

  /// Multiplier applied to all compute from a degrade onwards.
  double degrade_factor = 8.0;

  /// Probability that one transfer delivers *silently corrupted* bytes —
  /// the operation reports success but the payload has flipped bits.
  /// Only the integrity layer's checksums can observe it. In [0, 1).
  double corrupt_transfer_rate = 0.0;

  /// Probability that one kernel execution *completes* but its output
  /// region holds flipped bits. In [0, 1).
  double corrupt_compute_rate = 0.0;

  /// Virtual time at which the device is permanently lost; -1 = never.
  double fail_at_s = -1.0;

  bool any() const noexcept {
    return transfer_fault_rate > 0.0 || launch_fault_rate > 0.0 ||
           slowdown_rate > 0.0 || hang_rate > 0.0 || degrade_rate > 0.0 ||
           corrupt_transfer_rate > 0.0 || corrupt_compute_rate > 0.0 ||
           fail_at_s >= 0.0;
  }

  /// All out-of-range fields as messages (empty = valid); `who` names the
  /// device in each message.
  std::vector<std::string> violations(const std::string& who) const;

  /// Throws ConfigError listing every out-of-range field; `who` names the
  /// device in the message.
  void validate(const std::string& who) const;

  /// Element-wise combination of two profiles (rates clamped to [0, 1),
  /// earliest loss wins) — machine-file faults plus offload-level faults.
  FaultProfile combined(const FaultProfile& other) const noexcept;
};

/// One exactly-placed fault for tests and reproducible experiments.
struct ScriptedFault {
  int device_id = -1;
  FaultKind kind = FaultKind::kTransfer;

  /// For transient kinds: which per-device operation ordinal fails
  /// (0-based; the runtime consults the plan once per transfer / launch /
  /// compute, each kind counted separately).
  long long op = 0;

  /// For kDeviceLoss: virtual time of the loss.
  double at_s = -1.0;

  /// For kSlowdown / kDegrade: factor override; <= 1 uses the device
  /// profile's.
  double factor = 0.0;

  /// Every malformed field as a message (empty = valid); `who` names the
  /// script in each message.
  std::vector<std::string> violations(const std::string& who) const;
};

/// The resolved fault schedule for one offload: per-device profiles,
/// scripted faults, and the seeded random streams behind the rates.
/// Queries for transient kinds are *consuming* — each advances the
/// device's per-kind operation counter — so the plan must be consulted
/// exactly once per pipeline operation.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Seed for the per-device random streams (split per device id).
  void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }

  /// Install (replacing) the profile for one device.
  void set_profile(int device_id, const FaultProfile& profile);

  /// Add one scripted fault. Validated: throws ConfigError listing its
  /// violations().
  void add_scripted(const ScriptedFault& fault);

  /// True when any device can fault at all; when false the runtime
  /// bypasses fault bookkeeping entirely.
  bool active() const noexcept { return active_; }

  /// Does the next transfer operation on `device_id` fail? (consuming)
  bool transfer_fails(int device_id);

  /// Does the next kernel launch on `device_id` fail? (consuming)
  bool launch_fails(int device_id);

  /// Slowdown factor for the next kernel execution on `device_id`;
  /// 1.0 = runs at full speed. (consuming)
  double slowdown(int device_id);

  /// Does the next kernel execution on `device_id` hang — start but never
  /// complete? Only the runtime's watchdog can observe it. (consuming)
  bool compute_hangs(int device_id);

  /// Factor of a *sustained* degradation that begins at the next kernel
  /// execution on `device_id`; 1.0 = none. The caller is expected to latch
  /// the factor for the remainder of the offload. (consuming)
  double degrade(int device_id);

  /// Corruption seed for the next transfer payload on `device_id`;
  /// 0 = the payload arrives intact. A nonzero seed deterministically
  /// selects which bytes flip (see mem::DeviceMapping corruption hooks).
  /// (consuming)
  std::uint64_t transfer_corrupts(int device_id);

  /// Corruption seed striking the next kernel execution's output region
  /// on `device_id`; 0 = the result is intact. (consuming)
  std::uint64_t compute_corrupts(int device_id);

  /// Virtual time at which `device_id` is permanently lost, or a negative
  /// value if it never is. Combines profile and scripted losses (earliest
  /// wins). Non-consuming.
  double loss_time(int device_id) const;

 private:
  struct Stream {
    Prng prng{0};
    long long ops[kNumCountedKinds] = {};  // per transient FaultKind
  };

  Stream& stream(int device_id);
  const FaultProfile* profile(int device_id) const;
  /// Scripted hit for (device, kind) at the current ordinal? (consuming
  /// helper used by the public queries; returns the matching script or
  /// nullptr.)
  const ScriptedFault* scripted_hit(int device_id, FaultKind kind,
                                    long long op) const;

  std::map<int, FaultProfile> profiles_;
  std::map<int, Stream> streams_;
  std::vector<ScriptedFault> scripted_;
  std::uint64_t seed_ = 0x5eedfau;
  bool active_ = false;
};

}  // namespace homp::sim

#endif  // HOMP_SIM_FAULT_H
