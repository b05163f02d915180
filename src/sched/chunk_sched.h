#ifndef HOMP_SCHED_CHUNK_SCHED_H
#define HOMP_SCHED_CHUNK_SCHED_H

/// \file chunk_sched.h
/// Multi-stage chunk schedulers (§IV-A2, §IV-A3): devices repeatedly
/// acquire chunks from the shared remaining range until it is exhausted.
/// In the real runtime this is a compare-and-swap on a shared cursor; on
/// the single-threaded DES engine a plain cursor gives identical
/// semantics, with FIFO event order standing in for CAS arbitration.

#include <algorithm>

#include "sched/scheduler.h"

namespace homp::sched {

/// Slot-liveness bookkeeping shared by the shared-cursor schedulers: a
/// deactivated slot draws no more chunks, and withdrawing the last active
/// slot while iterations remain undistributed is a hard error (nobody
/// left to serve them).
class SlotLiveness {
 public:
  explicit SlotLiveness(std::size_t parties)
      : active_(parties, true), alive_(parties) {}

  bool active(int slot) const {
    return active_[static_cast<std::size_t>(slot)];
  }

  /// Returns true when this call actually deactivated the slot (false on
  /// double-deactivate). Throws OffloadError when the last active slot is
  /// withdrawn and `remaining` iterations are still undistributed.
  bool deactivate(int slot, long long remaining);

  /// Returns true when this call re-admitted a deactivated slot.
  bool reactivate(int slot);

 private:
  std::vector<bool> active_;
  std::size_t alive_;
};

/// The shared cursor of SCHED_DYNAMIC and SCHED_GUIDED, which differ only
/// in the size of the next chunk. Nothing is reserved per slot, so a
/// deactivated slot orphans nothing: the survivors keep draining the
/// cursor.
class CursorScheduler : public LoopScheduler {
 public:
  std::optional<dist::Range> next_chunk(int slot) override;
  bool finished(int slot) const override;
  int num_stages() const override { return 0; }  // "Multiple" in Table II
  std::size_t chunks_issued() const override { return issued_; }
  std::vector<dist::Range> deactivate(int slot) override;
  void reactivate(int slot) override;

 protected:
  CursorScheduler(const LoopContext& ctx, double chunk_fraction,
                  long long min_chunk);

  /// Size of the next chunk when `remaining` (> 0) iterations are left.
  virtual long long chunk_for(long long remaining) const = 0;

 private:
  dist::Range domain_;
  long long cursor_;
  std::size_t issued_ = 0;
  SlotLiveness live_;
};

/// SCHED_DYNAMIC: every chunk has the same size (a fraction of the loop).
class DynamicScheduler : public CursorScheduler {
 public:
  DynamicScheduler(const LoopContext& ctx, double chunk_fraction,
                   long long min_chunk);

  long long chunk_size() const noexcept { return chunk_; }

 private:
  long long chunk_for(long long remaining) const override {
    return std::min(chunk_, remaining);
  }

  long long chunk_;
};

/// SCHED_GUIDED: each chunk is a fraction of the *remaining* iterations,
/// so sizes shrink as the loop drains (large chunks first, small chunks
/// near the end to polish the balance).
class GuidedScheduler : public CursorScheduler {
 public:
  GuidedScheduler(const LoopContext& ctx, double chunk_fraction,
                  long long min_chunk);

 private:
  long long chunk_for(long long remaining) const override;

  double fraction_;
  long long min_chunk_;
};

}  // namespace homp::sched

#endif  // HOMP_SCHED_CHUNK_SCHED_H
