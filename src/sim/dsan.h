#ifndef HOMP_SIM_DSAN_H
#define HOMP_SIM_DSAN_H

/// \file dsan.h
/// Compatibility stub. The virtual-time determinism sanitizer is gone;
/// the engine's (time, seq) tie-break contract (sim/engine.h) is what
/// keeps runs reproducible. Nothing under src/ includes this header.
/// perfbench/main.cpp still does, for its run manifest's `homp_dsan` row,
/// and perfbench compiles src/ standalone, so the header stays until
/// perfbench drops that row.

namespace homp::sim::dsan {

/// Always false: the sanitizer no longer exists.
constexpr bool compiled_in() noexcept { return false; }

}  // namespace homp::sim::dsan

#endif  // HOMP_SIM_DSAN_H
