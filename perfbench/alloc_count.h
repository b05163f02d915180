#ifndef HOMP_PERFBENCH_ALLOC_COUNT_H
#define HOMP_PERFBENCH_ALLOC_COUNT_H

/// \file alloc_count.h
/// Process-wide heap-allocation counter, fed by the benchmark binary's
/// replacement operator new/delete (alloc_count.cpp). Differences taken
/// around a single-threaded call are exact and repeat bit for bit for the
/// same build and inputs.

#include <cstdint>

namespace perfbench {

/// Calls to any global operator new so far.
std::uint64_t allocations() noexcept;

}  // namespace perfbench

#endif  // HOMP_PERFBENCH_ALLOC_COUNT_H
