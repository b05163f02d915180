#include "sim/fault.h"

#include <cmath>

#include "common/checksum.h"
#include "common/error.h"
#include "common/strings.h"

namespace homp::sim {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kTransfer:
      return "transfer-fault";
    case FaultKind::kLaunch:
      return "launch-fault";
    case FaultKind::kSlowdown:
      return "slowdown";
    case FaultKind::kDeviceLoss:
      return "device-loss";
    case FaultKind::kHang:
      return "hang";
    case FaultKind::kDegrade:
      return "degrade";
    case FaultKind::kCorruptTransfer:
      return "corrupt-transfer";
    case FaultKind::kCorruptCompute:
      return "corrupt-compute";
  }
  return "?";
}

bool fault_rate_ok(double v) noexcept {
  return std::isfinite(v) && v >= 0.0 && v < 1.0;
}

bool fault_factor_ok(double v) noexcept {
  return std::isfinite(v) && v >= 1.0;
}

bool fail_time_ok(double v) noexcept {
  return v == -1.0 || (std::isfinite(v) && v >= 0.0);
}

std::vector<std::string> FaultProfile::violations(
    const std::string& who) const {
  std::vector<std::string> out;
  auto rate = [&](double v, const char* key) {
    if (!fault_rate_ok(v)) {
      out.push_back(who + ": " + key + " must be in [0, 1)");
    }
  };
  auto factor = [&](double v, const char* key) {
    if (!fault_factor_ok(v)) {
      out.push_back(who + ": " + key + " must be a finite number >= 1");
    }
  };
  rate(transfer_fault_rate, "fault_transfer_rate");
  rate(launch_fault_rate, "fault_launch_rate");
  rate(slowdown_rate, "fault_slowdown_rate");
  factor(slowdown_factor, "fault_slowdown_factor");
  rate(hang_rate, "fault_hang_rate");
  rate(degrade_rate, "fault_degrade_rate");
  factor(degrade_factor, "fault_degrade_factor");
  rate(corrupt_transfer_rate, "fault_corrupt_transfer_rate");
  rate(corrupt_compute_rate, "fault_corrupt_compute_rate");
  if (!fail_time_ok(fail_at_s)) {
    out.push_back(who + ": fault_fail_at_s must be -1 (never) or a finite "
                        "time >= 0");
  }
  return out;
}

void FaultProfile::validate(const std::string& who) const {
  const auto v = violations(who);
  if (!v.empty()) throw ConfigError(join(v, "; "));
}

FaultProfile FaultProfile::combined(const FaultProfile& other) const noexcept {
  auto clamp_rate = [](double r) {
    return r < 0.0 ? 0.0 : (r > 0.999999 ? 0.999999 : r);
  };
  FaultProfile out;
  // Independent fault sources: P(either) = 1 - (1-a)(1-b).
  out.transfer_fault_rate = clamp_rate(
      1.0 - (1.0 - transfer_fault_rate) * (1.0 - other.transfer_fault_rate));
  out.launch_fault_rate = clamp_rate(
      1.0 - (1.0 - launch_fault_rate) * (1.0 - other.launch_fault_rate));
  out.slowdown_rate = clamp_rate(
      1.0 - (1.0 - slowdown_rate) * (1.0 - other.slowdown_rate));
  out.slowdown_factor = slowdown_factor > other.slowdown_factor
                            ? slowdown_factor
                            : other.slowdown_factor;
  out.hang_rate =
      clamp_rate(1.0 - (1.0 - hang_rate) * (1.0 - other.hang_rate));
  out.degrade_rate =
      clamp_rate(1.0 - (1.0 - degrade_rate) * (1.0 - other.degrade_rate));
  out.degrade_factor = degrade_factor > other.degrade_factor
                           ? degrade_factor
                           : other.degrade_factor;
  out.corrupt_transfer_rate =
      clamp_rate(1.0 - (1.0 - corrupt_transfer_rate) *
                           (1.0 - other.corrupt_transfer_rate));
  out.corrupt_compute_rate =
      clamp_rate(1.0 - (1.0 - corrupt_compute_rate) *
                           (1.0 - other.corrupt_compute_rate));
  if (fail_at_s >= 0.0 && other.fail_at_s >= 0.0) {
    out.fail_at_s = fail_at_s < other.fail_at_s ? fail_at_s : other.fail_at_s;
  } else {
    out.fail_at_s = fail_at_s >= 0.0 ? fail_at_s : other.fail_at_s;
  }
  return out;
}

void FaultPlan::set_profile(int device_id, const FaultProfile& profile) {
  profile.validate("device " + std::to_string(device_id));
  profiles_[device_id] = profile;
  if (profile.any()) active_ = true;
}

std::vector<std::string> ScriptedFault::violations(
    const std::string& who) const {
  std::vector<std::string> out;
  if (device_id < 0) out.push_back(who + " needs a non-negative device id");
  if (kind == FaultKind::kDeviceLoss) {
    if (!(at_s >= 0.0)) {
      out.push_back(who + " (device loss) needs a non-negative time");
    }
    return out;
  }
  if (op < 0) out.push_back(who + " needs a non-negative op ordinal");
  if ((kind == FaultKind::kSlowdown || kind == FaultKind::kDegrade) &&
      (std::isnan(factor) || (factor > 0.0 && factor < 1.0))) {
    out.push_back(who + " factor must be a number >= 1 (or <= 0 to use "
                        "the device profile's)");
  }
  return out;
}

void FaultPlan::add_scripted(const ScriptedFault& fault) {
  const auto v = fault.violations("scripted fault");
  if (!v.empty()) throw ConfigError(join(v, "; "));
  scripted_.push_back(fault);
  active_ = true;
}

FaultPlan::Stream& FaultPlan::stream(int device_id) {
  auto it = streams_.find(device_id);
  if (it == streams_.end()) {
    Stream s;
    // Split per device the same way proxies split noise streams, so
    // nearby ids still get unrelated sequences (splitmix in Prng's ctor).
    s.prng = Prng(seed_ ^ (0x9e3779b9u * static_cast<std::uint64_t>(
                                             device_id + 1)));
    it = streams_.emplace(device_id, std::move(s)).first;
  }
  return it->second;
}

const FaultProfile* FaultPlan::profile(int device_id) const {
  auto it = profiles_.find(device_id);
  return it == profiles_.end() ? nullptr : &it->second;
}

const ScriptedFault* FaultPlan::scripted_hit(int device_id, FaultKind kind,
                                             long long op) const {
  for (const auto& f : scripted_) {
    if (f.device_id == device_id && f.kind == kind && f.op == op) return &f;
  }
  return nullptr;
}

bool FaultPlan::transfer_fails(int device_id) {
  Stream& s = stream(device_id);
  const long long op = s.ops[static_cast<int>(FaultKind::kTransfer)]++;
  const FaultProfile* p = profile(device_id);
  // The random draw happens even when the rate is zero, so adding a
  // scripted fault does not shift the random sequence of later ops.
  const double draw = s.prng.next_double();
  if (scripted_hit(device_id, FaultKind::kTransfer, op) != nullptr) {
    return true;
  }
  return p != nullptr && draw < p->transfer_fault_rate;
}

bool FaultPlan::launch_fails(int device_id) {
  Stream& s = stream(device_id);
  const long long op = s.ops[static_cast<int>(FaultKind::kLaunch)]++;
  const FaultProfile* p = profile(device_id);
  const double draw = s.prng.next_double();
  if (scripted_hit(device_id, FaultKind::kLaunch, op) != nullptr) return true;
  return p != nullptr && draw < p->launch_fault_rate;
}

double FaultPlan::slowdown(int device_id) {
  Stream& s = stream(device_id);
  const long long op = s.ops[static_cast<int>(FaultKind::kSlowdown)]++;
  const FaultProfile* p = profile(device_id);
  const double draw = s.prng.next_double();
  if (const auto* f = scripted_hit(device_id, FaultKind::kSlowdown, op)) {
    if (f->factor > 1.0) return f->factor;
    return p != nullptr ? p->slowdown_factor : 4.0;
  }
  if (p != nullptr && draw < p->slowdown_rate) return p->slowdown_factor;
  return 1.0;
}

bool FaultPlan::compute_hangs(int device_id) {
  Stream& s = stream(device_id);
  const long long op = s.ops[static_cast<int>(FaultKind::kHang)]++;
  const FaultProfile* p = profile(device_id);
  const double draw = s.prng.next_double();
  if (scripted_hit(device_id, FaultKind::kHang, op) != nullptr) return true;
  return p != nullptr && draw < p->hang_rate;
}

double FaultPlan::degrade(int device_id) {
  Stream& s = stream(device_id);
  const long long op = s.ops[static_cast<int>(FaultKind::kDegrade)]++;
  const FaultProfile* p = profile(device_id);
  const double draw = s.prng.next_double();
  if (const auto* f = scripted_hit(device_id, FaultKind::kDegrade, op)) {
    if (f->factor > 1.0) return f->factor;
    return p != nullptr ? p->degrade_factor : 8.0;
  }
  if (p != nullptr && draw < p->degrade_rate) return p->degrade_factor;
  return 1.0;
}

namespace {

/// Deterministic nonzero corruption seed for (plan seed, device, kind,
/// op) — a pure function of the hit's coordinates, so scripted and
/// rate-based hits at the same ordinal corrupt the same bytes.
std::uint64_t corruption_seed(std::uint64_t base, int device_id,
                              FaultKind kind, long long op) noexcept {
  std::uint64_t s = mix64(base ^ mix64(static_cast<std::uint64_t>(
                              device_id + 1)));
  s = mix64(s ^ (static_cast<std::uint64_t>(kind) + 1));
  s = mix64(s ^ static_cast<std::uint64_t>(op + 1));
  return s | 1;  // nonzero: 0 means "intact"
}

/// Uniform in [0, 1) derived from the corruption seed — the corruption
/// queries draw from this pure side-channel instead of the per-device
/// Prng so that enabling them never shifts the random sequence of the
/// pre-existing fault kinds (runs with corruption off stay bit-identical
/// to runs built before corruption existed).
double corruption_draw(std::uint64_t seed) noexcept {
  return static_cast<double>(seed >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t FaultPlan::transfer_corrupts(int device_id) {
  Stream& s = stream(device_id);
  const long long op = s.ops[static_cast<int>(FaultKind::kCorruptTransfer)]++;
  const FaultProfile* p = profile(device_id);
  const std::uint64_t seed =
      corruption_seed(seed_, device_id, FaultKind::kCorruptTransfer, op);
  const bool hit =
      scripted_hit(device_id, FaultKind::kCorruptTransfer, op) != nullptr ||
      (p != nullptr && corruption_draw(seed) < p->corrupt_transfer_rate);
  return hit ? seed : 0;
}

std::uint64_t FaultPlan::compute_corrupts(int device_id) {
  Stream& s = stream(device_id);
  const long long op = s.ops[static_cast<int>(FaultKind::kCorruptCompute)]++;
  const FaultProfile* p = profile(device_id);
  const std::uint64_t seed =
      corruption_seed(seed_, device_id, FaultKind::kCorruptCompute, op);
  const bool hit =
      scripted_hit(device_id, FaultKind::kCorruptCompute, op) != nullptr ||
      (p != nullptr && corruption_draw(seed) < p->corrupt_compute_rate);
  return hit ? seed : 0;
}

double FaultPlan::loss_time(int device_id) const {
  double t = -1.0;
  if (const auto* p = profile(device_id); p != nullptr && p->fail_at_s >= 0.0) {
    t = p->fail_at_s;
  }
  for (const auto& f : scripted_) {
    if (f.device_id != device_id || f.kind != FaultKind::kDeviceLoss) continue;
    if (t < 0.0 || f.at_s < t) t = f.at_s;
  }
  return t;
}

}  // namespace homp::sim
