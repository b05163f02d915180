#ifndef HOMP_MODEL_KERNEL_PROFILE_H
#define HOMP_MODEL_KERNEL_PROFILE_H

/// \file kernel_profile.h
/// Static cost characteristics of an offloadable loop, the inputs the
/// paper's analytical models need (Table III / Table IV).
///
/// In the paper these come from "compiler analysis or direct user input";
/// here each kernel in src/kernels declares them. All quantities are *per
/// loop iteration* of the distributed (outermost) loop, so chunk costs are
/// iterations x per-iteration cost. That matches the models' assumption
/// that "each loop iteration has approximately the same amount of work".

#include <string>

namespace homp::model {

struct KernelCostProfile {
  /// Floating-point operations per iteration of the distributed loop.
  double flops_per_iter = 0.0;

  /// Device-memory traffic per iteration (loads + stores), in bytes.
  double mem_bytes_per_iter = 0.0;

  /// Interconnect traffic per iteration under an aligned BLOCK
  /// distribution (copy-in + copy-out of the iteration's data slice), in
  /// bytes. Used by MODEL_2 and by the Table IV DataComp column; the
  /// runtime recomputes exact transfer sizes from the actual footprints,
  /// so this is a per-iteration *characteristic*, not an accounting value.
  double transfer_bytes_per_iter = 0.0;

  /// Size of one element of the kernel's REAL type, for converting the
  /// paper's element-count ratios to byte ratios. 8 for double.
  double elem_bytes = 8.0;

  /// Whether the work of a single distributed-loop iteration can itself
  /// be split across a device's parallel units (true for every Table IV
  /// kernel: their inner loops provide ample parallelism). When false, a
  /// chunk smaller than the unit count leaves units idle and the
  /// within-device (teams) distribution quantizes — see
  /// OffloadOptions::teams_policy.
  bool divisible_iterations = true;

  /// MemComp (Table IV): memory load/stores per unit computation,
  /// in REAL elements per FLOP — AXPY is (2 loads + 1 store)/2 flops = 1.5.
  double mem_comp() const {
    return flops_per_iter > 0.0
               ? mem_bytes_per_iter / elem_bytes / flops_per_iter
               : 0.0;
  }

  /// DataComp (Table IV): data transferred per unit computation, in REAL
  /// elements per FLOP.
  double data_comp() const {
    return flops_per_iter > 0.0
               ? transfer_bytes_per_iter / elem_bytes / flops_per_iter
               : 0.0;
  }

  /// Computational intensity in FLOPs per transferred byte — the roofline
  /// abscissa the algorithm-selection heuristic keys on (§IV-D).
  double flops_per_transfer_byte() const {
    return transfer_bytes_per_iter > 0.0
               ? flops_per_iter / transfer_bytes_per_iter
               : 1e30;
  }
};

}  // namespace homp::model

#endif  // HOMP_MODEL_KERNEL_PROFILE_H
