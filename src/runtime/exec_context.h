#ifndef HOMP_RUNTIME_EXEC_CONTEXT_H
#define HOMP_RUNTIME_EXEC_CONTEXT_H

/// \file exec_context.h
/// The engine and link lanes every offload runs on.
///
/// An ExecContext holds one sim::Engine and one pair of full-duplex link
/// lanes per machine link. Each owner keeps one context for its life:
/// Runtime and DataRegion reset() theirs before every offload, so its
/// clock starts at 0, the whole machine belongs to that offload and the
/// offload runs exactly as it would on a fresh context. A multi-tenant
/// server (src/serve) never resets its context and launches every
/// execution on it, so N offloads advance on one virtual clock and their
/// transfers contend on the same processor-shared lanes (sim/link.h),
/// exactly as N tenants' DMA streams would contend on one PCIe switch.
///
/// Lifetime: the context must outlive every OffloadExecution launched
/// against it; the execution's destructor retires its timer generation
/// on the context's engine. An execution cancels its timer generation
/// when it delivers its result, so after its completion callback has run
/// nothing it scheduled can fire, and the owner may destroy it at once.
/// Untagged work it leaves behind (link events and transfers, or events
/// of an offload whose body threw through the drain) is dropped by the
/// next reset().

#include <memory>
#include <vector>

#include "machine/device.h"
#include "sim/engine.h"
#include "sim/link.h"

namespace homp::rt {

struct ExecContext {
  explicit ExecContext(const mach::MachineDescriptor& machine) {
    down_links.reserve(machine.links.size());
    up_links.reserve(machine.links.size());
    for (const auto& l : machine.links) {
      down_links.push_back(std::make_unique<sim::SharedLink>(
          engine, l.name + ".down", l.latency_s, l.bandwidth_Bps));
      up_links.push_back(std::make_unique<sim::SharedLink>(
          engine, l.name + ".up", l.latency_s, l.bandwidth_Bps));
    }
  }

  // The lanes hold a reference to `engine`.
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Drop whatever earlier offloads left pending and restart the clock at
  /// 0 on idle lanes, keeping every table's capacity. No execution may be
  /// alive on the context.
  void reset() {
    engine.reset();
    for (auto& l : down_links) l->reset();
    for (auto& l : up_links) l->reset();
  }

  /// The clock. Executions schedule onto it relative to "now" (launch
  /// time), never at absolute t=0.
  sim::Engine engine;

  /// Full-duplex lanes per machine link, indexed like
  /// MachineDescriptor::links.
  std::vector<std::unique_ptr<sim::SharedLink>> down_links;
  std::vector<std::unique_ptr<sim::SharedLink>> up_links;
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_EXEC_CONTEXT_H
