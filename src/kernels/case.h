#ifndef HOMP_KERNELS_CASE_H
#define HOMP_KERNELS_CASE_H

/// \file case.h
/// Common interface of the six evaluation kernels (Table IV): AXPY,
/// Matrix-Vector, Matrix Multiplication, 13-point 2-D Stencil, Sum
/// (reduction) and 2-D Block Matching.
///
/// A KernelCase owns the host arrays, provides the offloadable LoopKernel
/// and its map clauses, and can verify the offloaded result against a
/// sequential reference. Cases can be built without materializing storage
/// (`materialize = false`) for paper-scale pure-simulation benchmarks
/// where only the cost accounting matters (DESIGN.md §2).
///
/// The reference is split from the check: expected() computes the table
/// of outputs a correct offload leaves, and matches() compares the case's
/// outputs against such a table. A caller that checks many offloads of one
/// kernel and size (the fuzz oracle runs ten algorithm families per
/// scenario) computes expected() once, re-init()s one case between runs
/// and calls matches() after each; verify() does both steps for a single
/// check.

#include <memory>
#include <string>
#include <vector>

#include "memory/map_spec.h"
#include "model/kernel_profile.h"
#include "runtime/kernel.h"

namespace homp::kern {

class KernelCase {
 public:
  virtual ~KernelCase() = default;

  virtual const std::string& name() const = 0;

  /// The offloadable loop. The body captures the case's device views; the
  /// case must outlive any offload using it. Null body when the case was
  /// built without materialization.
  virtual rt::LoopKernel kernel() const = 0;

  /// Map clauses (v2 style: data aligned with the loop, so every
  /// scheduling algorithm applies). Returned specs reference the case's
  /// storage; the case must outlive offloads using them.
  virtual std::vector<mem::MapSpec> maps() const = 0;

  /// (Re-)initialize input arrays and clear outputs. No-op when not
  /// materialized. Afterwards every bound array holds, byte for byte, what
  /// a freshly built case of the same kernel and size holds, so one case
  /// can serve any number of offloads.
  virtual void init() = 0;

  /// The outputs a correct offload leaves, computed sequentially from the
  /// initial inputs (never from the case's own arrays, which an offload
  /// may have damaged), in the order matches() walks them. Depends only on
  /// the kernel and its size, so a table from one case checks every case
  /// of the same kernel and size. Empty when not materialized.
  virtual std::vector<double> expected() const = 0;

  /// Compare the case's outputs against `expect`, a table from expected(),
  /// within the kernel's tolerance; on failure returns false and describes
  /// the first mismatch in *why. True when not materialized.
  virtual bool matches(const std::vector<double>& expect,
                       std::string* why) const = 0;

  /// Check outputs against the sequential reference: matches(expected()).
  bool verify(std::string* why) const { return matches(expected(), why); }

  /// The per-iteration cost characteristics as the paper states them
  /// (Table IV), for comparison against the measured profile.
  virtual model::KernelCostProfile paper_profile() const = 0;

  /// Problem-size designator (N), as used in names like "matmul-6144".
  virtual long long problem_size() const = 0;

  virtual bool materialized() const = 0;
};

/// Factory. `name` is one of: "axpy", "matvec", "matmul", "stencil2d",
/// "sum", "bm2d". Throws ConfigError for unknown names.
std::unique_ptr<KernelCase> make_case(const std::string& name, long long n,
                                      bool materialize);

/// The six kernel names in Table IV order.
const std::vector<std::string>& all_kernel_names();

/// The paper's evaluation problem size for each kernel (axpy-100M,
/// matvec-48k, matmul-6144, stencil2d-256, sum-300M, bm2d-256; Table V /
/// figure captions).
long long paper_size(const std::string& name);

}  // namespace homp::kern

#endif  // HOMP_KERNELS_CASE_H
