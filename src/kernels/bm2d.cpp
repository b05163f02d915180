#include "kernels/bm2d.h"

#include <cmath>

#include "common/error.h"

namespace homp::kern {

namespace {
double cur_init(long long i, long long j) {
  return static_cast<double>((i * 13 + j * 7) % 251);
}
double ref_init(long long i, long long j) {
  // A shifted-and-perturbed copy of the current frame so the best match
  // is non-trivial but well defined.
  return static_cast<double>(((i + 3) * 13 + (j + 2) * 7 + i * j % 5) % 251);
}
}  // namespace

Bm2dCase::Bm2dCase(long long n, bool materialize)
    : n_(n), blocks_(n / kBlock), materialize_(materialize) {
  HOMP_REQUIRE(n % kBlock == 0 && n >= 2 * kBlock,
               "bm2d frame edge must be a multiple of 16 and >= 32");
  if (materialize_) {
    cur_ = mem::HostArray<double>::matrix(n, n);
    ref_ = mem::HostArray<double>::matrix(n, n);
    best_ = mem::HostArray<double>::matrix(blocks_, 2 * blocks_);
    init();
  }
}

void Bm2dCase::init() {
  if (!materialize_) return;
  cur_.fill_with_indices(cur_init);
  ref_.fill_with_indices(ref_init);
  best_.fill(0.0);
}

rt::LoopKernel Bm2dCase::kernel() const {
  rt::LoopKernel k;
  k.name = "bm2d";
  k.iterations = dist::Range::of_size(blocks_);  // one iteration per block row
  const double bpr = static_cast<double>(blocks_);  // blocks per row
  const double cands = (2.0 * kSearch + 1) * (2.0 * kSearch + 1);
  const double block_px = static_cast<double>(kBlock * kBlock);
  // Per block: `cands` SAD evaluations of `block_px` pixels, 2 flops each
  // (abs-diff + accumulate); per iteration = blocks-per-row blocks.
  k.cost.flops_per_iter = bpr * cands * block_px * 2.0;
  // Reads: ref window pixels per candidate + current block once.
  k.cost.mem_bytes_per_iter = bpr * (cands * block_px + block_px) * 8.0;
  // Transfers: one band of cur rows + ref band with halo + outputs.
  k.cost.transfer_bytes_per_iter =
      (static_cast<double>(kBlock * n_) +                      // cur band
       static_cast<double>((kBlock + 2 * kSearch) * n_) +      // ref band
       2.0 * bpr) *                                            // best + mv
      8.0;
  if (materialize_) {
    const long long n = n_;
    const long long blocks = blocks_;
    k.body = [n, blocks](const dist::Range& chunk, mem::DeviceDataEnv& env) {
      auto cur = env.view<double>("cur");
      auto ref = env.view<double>("ref");
      auto best = env.view<double>("best");
      for (long long bi = chunk.lo; bi < chunk.hi; ++bi) {
        for (long long bj = 0; bj < blocks; ++bj) {
          const long long i0 = bi * kBlock;
          const long long j0 = bj * kBlock;
          double best_sad = 1e300;
          double best_mv = 0.0;
          for (long long dy = -kSearch; dy <= kSearch; ++dy) {
            for (long long dx = -kSearch; dx <= kSearch; ++dx) {
              const long long ri = i0 + dy;
              const long long rj = j0 + dx;
              if (ri < 0 || rj < 0 || ri + kBlock > n || rj + kBlock > n) {
                continue;  // candidate escapes the frame
              }
              double sad = 0.0;
              for (long long y = 0; y < kBlock; ++y) {
                for (long long x = 0; x < kBlock; ++x) {
                  sad += std::abs(cur(i0 + y, j0 + x) - ref(ri + y, rj + x));
                }
              }
              if (sad < best_sad) {
                best_sad = sad;
                best_mv = static_cast<double>((dy + kSearch) *
                                                  (2 * kSearch + 1) +
                                              (dx + kSearch));
              }
            }
          }
          best(bi, 2 * bj) = best_sad;
          best(bi, 2 * bj + 1) = best_mv;
        }
      }
      return 0.0;
    };
  }
  return k;
}

std::vector<mem::MapSpec> Bm2dCase::maps() const {
  const double ratio = static_cast<double>(kBlock);
  mem::MapSpec cur;
  cur.name = "cur";
  cur.dir = mem::MapDirection::kTo;
  cur.binding =
      materialize_
          ? mem::bind_array(const_cast<mem::HostArray<double>&>(cur_))
          : mem::phantom_binding(sizeof(double), {n_, n_});
  cur.region = dist::Region::of_shape({n_, n_});
  cur.partition = {dist::DimPolicy::align("loop", ratio),
                   dist::DimPolicy::full()};

  mem::MapSpec ref = cur;
  ref.name = "ref";
  if (materialize_) {
    ref.binding = mem::bind_array(const_cast<mem::HostArray<double>&>(ref_));
  }
  ref.halo_before = kSearch;
  ref.halo_after = kSearch;

  mem::MapSpec best;
  best.name = "best";
  best.dir = mem::MapDirection::kFrom;
  best.binding =
      materialize_
          ? mem::bind_array(const_cast<mem::HostArray<double>&>(best_))
          : mem::phantom_binding(sizeof(double), {blocks_, 2 * blocks_});
  best.region = dist::Region::of_shape({blocks_, 2 * blocks_});
  best.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};

  return {cur, ref, best};
}

std::pair<double, double> Bm2dCase::reference(
    const mem::HostArray<double>& cur, const mem::HostArray<double>& ref,
    long long bi, long long bj) const {
  const long long i0 = bi * kBlock;
  const long long j0 = bj * kBlock;
  double best_sad = 1e300;
  double best_mv = 0.0;
  for (long long dy = -kSearch; dy <= kSearch; ++dy) {
    for (long long dx = -kSearch; dx <= kSearch; ++dx) {
      const long long ri = i0 + dy;
      const long long rj = j0 + dx;
      if (ri < 0 || rj < 0 || ri + kBlock > n_ || rj + kBlock > n_) continue;
      double sad = 0.0;
      for (long long y = 0; y < kBlock; ++y) {
        for (long long x = 0; x < kBlock; ++x) {
          sad += std::abs(cur(i0 + y, j0 + x) - ref(ri + y, rj + x));
        }
      }
      if (sad < best_sad) {
        best_sad = sad;
        best_mv = static_cast<double>((dy + kSearch) * (2 * kSearch + 1) +
                                      (dx + kSearch));
      }
    }
  }
  return {best_sad, best_mv};
}

std::vector<double> Bm2dCase::expected() const {
  std::vector<double> expect;
  if (!materialize_) return expect;
  // The search reads every pixel hundreds of times: tabulate the frames'
  // initial values once instead of recomputing them per read.
  auto cur = mem::HostArray<double>::matrix(n_, n_);
  auto ref = mem::HostArray<double>::matrix(n_, n_);
  cur.fill_with_indices(cur_init);
  ref.fill_with_indices(ref_init);
  expect.reserve(static_cast<std::size_t>(blocks_ * 2 * blocks_));
  for (long long bi = 0; bi < blocks_; ++bi) {
    for (long long bj = 0; bj < blocks_; ++bj) {
      const auto [sad, mv] = reference(cur, ref, bi, bj);
      expect.push_back(sad);
      expect.push_back(mv);
    }
  }
  return expect;
}

bool Bm2dCase::matches(const std::vector<double>& expect,
                       std::string* why) const {
  if (!materialize_) return true;
  HOMP_REQUIRE(static_cast<long long>(expect.size()) == blocks_ * 2 * blocks_,
               "bm2d: expected table of another size");
  for (long long bi = 0; bi < blocks_; ++bi) {
    for (long long bj = 0; bj < blocks_; ++bj) {
      const auto at = static_cast<std::size_t>((bi * blocks_ + bj) * 2);
      for (long long k = 0; k < 2; ++k) {  // the SAD, then the motion vector
        if (best_(bi, 2 * bj + k) == expect[at + k]) continue;
        if (why) {
          *why = std::string(k == 0 ? "bm2d: best[" : "bm2d: motion vector "
                                                      "of block[") +
                 std::to_string(bi) + "][" + std::to_string(bj) + "] = " +
                 std::to_string(best_(bi, 2 * bj + k)) + ", expected " +
                 std::to_string(expect[at + k]);
        }
        return false;
      }
    }
  }
  return true;
}

model::KernelCostProfile Bm2dCase::paper_profile() const {
  model::KernelCostProfile p;
  p.flops_per_iter = kernel().cost.flops_per_iter;
  p.mem_bytes_per_iter = 0.5 * p.flops_per_iter * 8.0;    // MemComp 0.5
  p.transfer_bytes_per_iter = 0.06 * p.flops_per_iter * 8.0;  // DataComp 0.06
  return p;
}

}  // namespace homp::kern
