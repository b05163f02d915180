#ifndef HOMP_SCHED_EXTENDED_SCHED_H
#define HOMP_SCHED_EXTENDED_SCHED_H

/// \file extended_sched.h
/// Schedulers beyond the paper's Table II:
///
///  * CyclicScheduler — block-cyclic static chunking. Table I names the
///    policy family; the paper evaluates only BLOCK. Device i receives
///    chunks i, i+M, i+2M, ... of a fixed block size. Single "stage"
///    (the assignment is static) but multiple chunks per device.
///
///  * WorkStealingScheduler — the related-work baseline (StarPU, Harmony,
///    XKaapi-style, refs [2], [7], [20]): each device owns a contiguous
///    deque seeded by BLOCK and serves itself small grains from its front;
///    an idle device steals the *back half* of the largest remaining
///    victim deque. Deterministic on the DES engine.
///
///  * ThroughputHistory — the per-(kernel, device) observed-throughput
///    store behind HISTORY_AUTO (PartitionScheduler::from_history). The
///    runtime records observed rates (EWMA) into it after every offload
///    that ran with history enabled.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dist/distribution.h"
#include "sched/chunk_sched.h"  // SlotLiveness
#include "sched/scheduler.h"

namespace homp::sched {

class CyclicScheduler : public LoopScheduler {
 public:
  /// \param block_fraction each cyclic block is this fraction of the loop
  ///        (mirrors SCHED_DYNAMIC's chunk sizing; a CYCLIC(b) policy can
  ///        instead pass an absolute block via `absolute_block`)
  CyclicScheduler(const LoopContext& ctx, double block_fraction,
                  long long min_chunk, long long absolute_block = 0);

  std::optional<dist::Range> next_chunk(int slot) override;
  bool finished(int slot) const override;
  std::size_t chunks_issued() const override { return issued_; }
  std::vector<dist::Range> deactivate(int slot) override;

  long long block_size() const noexcept { return block_; }

 private:
  dist::Range domain_;
  long long block_;
  std::size_t parties_;
  std::vector<long long> next_block_;  // per slot: index of its next block
  std::size_t issued_ = 0;
};

class WorkStealingScheduler : public LoopScheduler {
 public:
  /// \param grain_fraction self-service grain as a fraction of the loop
  WorkStealingScheduler(const LoopContext& ctx, double grain_fraction,
                        long long min_chunk);

  std::optional<dist::Range> next_chunk(int slot) override;
  bool finished(int slot) const override;
  int num_stages() const override { return 0; }
  std::size_t chunks_issued() const override { return issued_; }
  std::vector<dist::Range> deactivate(int slot) override;
  void reactivate(int slot) override;

  std::size_t steals() const noexcept { return steals_; }

 private:
  std::vector<dist::Range> deque_;  // per slot: remaining contiguous work
  long long grain_;
  std::size_t issued_ = 0;
  std::size_t steals_ = 0;
  SlotLiveness live_;
};

/// Persistent per-(kernel, device) observed throughput store, owned by
/// whoever wants history to span offloads (the Runtime facade exposes
/// one). The store is bounded: at most capacity() EWMA entries are kept,
/// and inserting a fresh (kernel, device) pair beyond that evicts the
/// oldest-inserted entry, so a long-lived Runtime cycling through many
/// kernels cannot grow it without bound.
class ThroughputHistory {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// Record an observed rate (iterations/second) for kernel x device;
  /// blended into an EWMA with weight `alpha` on the new sample.
  void record(const std::string& kernel, int device_id, double rate,
              double alpha = 0.5);

  /// Observed rate, or 0 when unseen.
  double rate(const std::string& kernel, int device_id) const;

  bool has(const std::string& kernel, int device_id) const;
  std::size_t size() const noexcept { return rates_.size(); }
  void clear() {
    rates_.clear();
    order_.clear();
  }

  /// Change the entry cap (>= 1); evicts oldest entries immediately if
  /// the store is already over the new cap.
  void set_capacity(std::size_t n);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Serialize as "kernel<TAB>device_id<TAB>rate" lines (Qilin keeps its
  /// per-program model across runs; so can we).
  std::string to_text() const;

  /// Parse the to_text() format, merging into this store (existing
  /// entries are overwritten). Throws ConfigError on malformed input.
  void merge_text(const std::string& text);

  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  /// Insert-or-update one entry, maintaining insertion order and the cap.
  void upsert(const std::string& kernel, int device_id, double rate,
              double alpha);

  std::map<std::pair<std::string, int>, double> rates_;
  std::vector<std::pair<std::string, int>> order_;  // insertion order
  std::size_t capacity_ = kDefaultCapacity;
};

}  // namespace homp::sched

#endif  // HOMP_SCHED_EXTENDED_SCHED_H
