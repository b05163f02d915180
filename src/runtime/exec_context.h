#ifndef HOMP_RUNTIME_EXEC_CONTEXT_H
#define HOMP_RUNTIME_EXEC_CONTEXT_H

/// \file exec_context.h
/// Shared execution substrate for concurrent offloads.
///
/// Standalone, an OffloadExecution owns a private sim::Engine and one
/// pair of full-duplex link lanes per machine link — the whole machine
/// belongs to one offload. A multi-tenant server (src/serve) instead
/// owns the engine and the lanes itself and lends them to every
/// execution it launches via this context, so N offloads advance on one
/// virtual clock and their transfers contend on the same
/// processor-shared lanes (sim/link.h), exactly as N tenants' DMA
/// streams would contend on one PCIe switch.
///
/// Lifetime: the context (and everything it points to) must outlive
/// every OffloadExecution launched against it; the execution's
/// destructor still revokes its timers on the context's engine. An
/// execution cancels its timer generation when it delivers its result,
/// so after its completion callback has run nothing it scheduled can
/// fire, and the owner may destroy it at once.

#include <vector>

namespace homp::sim {
class Engine;
class SharedLink;
}  // namespace homp::sim

namespace homp::rt {

struct ExecContext {
  /// The shared clock. Executions schedule onto it relative to "now"
  /// (launch time), never at absolute t=0.
  sim::Engine* engine = nullptr;

  /// Full-duplex lanes per machine link, indexed like
  /// MachineDescriptor::links (same layout OffloadExecution builds for
  /// itself standalone). Borrowed, never owned.
  std::vector<sim::SharedLink*> down_links;
  std::vector<sim::SharedLink*> up_links;
};

}  // namespace homp::rt

#endif  // HOMP_RUNTIME_EXEC_CONTEXT_H
