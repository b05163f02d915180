#include "runtime/options.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace homp::rt {

const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kScheduling:
      return "scheduling";
    case Phase::kAlloc:
      return "alloc";
    case Phase::kCopyIn:
      return "copy-in";
    case Phase::kLaunch:
      return "launch";
    case Phase::kCompute:
      return "compute";
    case Phase::kCopyOut:
      return "copy-out";
    case Phase::kBarrier:
      return "barrier";
    case Phase::kRecovery:
      return "recovery";
  }
  return "?";
}

const char* to_string(RecoveryAction a) noexcept {
  switch (a) {
    case RecoveryAction::kWatchdogFired:
      return "watchdog-fired";
    case RecoveryAction::kSpeculated:
      return "speculated";
    case RecoveryAction::kSpecCommitted:
      return "spec-committed";
    case RecoveryAction::kTardyAbandoned:
      return "tardy-abandoned";
    case RecoveryAction::kReadmitted:
      return "readmitted";
    case RecoveryAction::kProbePassed:
      return "probe-passed";
    case RecoveryAction::kPromoted:
      return "promoted";
    case RecoveryAction::kCorruptionDetected:
      return "corruption-detected";
    case RecoveryAction::kReexecuteQueued:
      return "reexecute-queued";
    case RecoveryAction::kReexecuteCommitted:
      return "reexecute-committed";
    case RecoveryAction::kVoteOpened:
      return "vote-opened";
    case RecoveryAction::kVoteCommitted:
      return "vote-committed";
  }
  return "?";
}

const char* to_string(DecisionKind k) noexcept {
  switch (k) {
    case DecisionKind::kChunkAssigned:
      return "chunk-assigned";
    case DecisionKind::kCutoffKept:
      return "cutoff-kept";
    case DecisionKind::kCutoffDropped:
      return "cutoff-dropped";
    case DecisionKind::kSpeculated:
      return "speculated";
    case DecisionKind::kQuarantined:
      return "quarantined";
    case DecisionKind::kReadmitted:
      return "readmitted";
  }
  return "?";
}

const char* to_string(CounterTrack t) noexcept {
  switch (t) {
    case CounterTrack::kQueueDepth:
      return "queue depth";
    case CounterTrack::kOutstandingBytes:
      return "outstanding transfer bytes";
    case CounterTrack::kIterations:
      return "committed iterations";
    case CounterTrack::kEwmaThroughput:
      return "EWMA throughput (iter/s)";
  }
  return "?";
}

std::vector<std::string> OffloadOptions::validate() const {
  std::vector<std::string> v;

  auto fraction = [&](double x, const char* key) {
    if (!(x > 0.0 && x <= 1.0)) {
      v.push_back(std::string("sched.") + key + " must be in (0, 1]");
    }
  };
  fraction(sched.dynamic_chunk_fraction, "dynamic_chunk_fraction");
  fraction(sched.guided_chunk_fraction, "guided_chunk_fraction");
  fraction(sched.sample_fraction, "sample_fraction");
  fraction(sched.cyclic_block_fraction, "cyclic_block_fraction");
  fraction(sched.steal_grain_fraction, "steal_grain_fraction");
  if (!(sched.cutoff_ratio >= 0.0 && sched.cutoff_ratio < 1.0)) {
    v.push_back("sched.cutoff_ratio must be in [0, 1)");
  }
  if (sched.min_chunk < 1) v.push_back("sched.min_chunk must be >= 1");
  if (sched.cyclic_absolute_block < 0) {
    v.push_back("sched.cyclic_absolute_block must be >= 0 (0 derives from "
                "cyclic_block_fraction)");
  }

  auto fv = fault.extra.violations("offload fault options");
  v.insert(v.end(), fv.begin(), fv.end());
  for (std::size_t i = 0; i < fault.scripted.size(); ++i) {
    fv = fault.scripted[i].violations("fault.scripted[" + std::to_string(i) +
                                      "]");
    v.insert(v.end(), fv.begin(), fv.end());
  }

  const HarnessOptions& h = harness;
  if (h.step_budget < 0) {
    v.push_back("harness.step_budget must be >= 0 (0 disables the "
                "step-budget watchdog)");
  } else if (h.step_budget > 0 &&
             static_cast<std::size_t>(h.step_budget) <
                 std::max<std::size_t>(device_ids.size(), 1)) {
    v.push_back("harness.step_budget is below one engine event per "
                "participating device — even fetching the first chunks "
                "would exhaust it");
  }

  return v;
}

void OffloadOptions::validate_or_throw() const {
  const auto v = validate();
  if (!v.empty()) {
    throw ConfigError("invalid offload options: " + join(v, "; "));
  }
}

Imbalance OffloadResult::imbalance() const {
  std::vector<double> finish;
  finish.reserve(devices.size());
  for (const auto& d : devices) {
    // Devices that did no work (CUTOFF-dropped) do not skew the balance
    // figure; the paper reports imbalance over participating devices.
    if (d.iterations > 0) finish.push_back(d.finish_time);
  }
  return imbalance_of(finish);
}

double OffloadResult::phase_fraction(Phase p) const {
  double phase = 0.0;
  double total = 0.0;
  for (const auto& d : devices) {
    phase += d.phase_time[static_cast<int>(p)];
    for (int i = 0; i < kNumPhases; ++i) total += d.phase_time[i];
  }
  return total > 0.0 ? phase / total : 0.0;
}

long long OffloadResult::total_iterations() const {
  long long n = 0;
  for (const auto& d : devices) n += d.iterations;
  return n;
}

}  // namespace homp::rt
