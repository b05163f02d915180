#ifndef HOMP_RUNTIME_EXEC_CONTEXT_H
#define HOMP_RUNTIME_EXEC_CONTEXT_H

/// \file exec_context.h
/// The engine and link lanes every offload runs on.
///
/// An ExecContext holds one sim::Engine and one pair of full-duplex link
/// lanes per machine link. Runtime::offload and DataRegion::offload build
/// a fresh context per offload, so its clock starts at 0 and the whole
/// machine belongs to that offload. A multi-tenant server (src/serve)
/// keeps one context for every execution it launches, so N offloads
/// advance on one virtual clock and their transfers contend on the same
/// processor-shared lanes (sim/link.h), exactly as N tenants' DMA
/// streams would contend on one PCIe switch.
///
/// Lifetime: the context must outlive every OffloadExecution launched
/// against it; the execution's destructor still revokes its timers on the
/// context's engine. An execution cancels its timer generation when it
/// delivers its result, so after its completion callback has run nothing
/// it scheduled can fire, and the owner may destroy it at once.

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
