#ifndef HOMP_SIM_ENGINE_H
#define HOMP_SIM_ENGINE_H

/// \file engine.h
/// Single-threaded discrete-event simulation engine.
///
/// The HOMP runtime's per-device proxy threads are modelled as actors that
/// schedule continuation callbacks on this engine. Running on virtual time
/// makes multi-device scheduling experiments deterministic and independent
/// of the host's actual core count (see DESIGN.md §2).
///
/// The engine is deliberately minimal: an ordered queue of (time, seq,
/// callback).
///
/// Tie-break contract: events pop in strict (time, seq) lexicographic
/// order. Earlier virtual time runs first; at equal time, lower seq runs
/// first, where seq is the global counter schedule_at/schedule_after
/// assigns. Same-timestamp events therefore run in exactly the order they
/// were scheduled (FIFO), regardless of generation tag, scheduling
/// nesting or cancellation history, which gives dynamic-chunk acquisition
/// a well-defined, reproducible winner on ties. Every byte-identical
/// output in the repository (fuzz summaries, bench goldens,
/// BENCH_traffic.json, the serve oracle's determinism double run) rests
/// on this order. tests/sim/engine_order_test.cpp pins it, and a change
/// to it is a breaking change to the determinism model, not a tuning
/// knob.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace homp::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Cancellation generation tag. Events scheduled with a tag belong to
  /// that generation and can all be cancelled in one cancel_generation()
  /// call — the timer-lifecycle primitive behind job-level failure
  /// domains (docs/SERVING.md): a finishing job revokes every watchdog /
  /// probation / deadline timer it ever armed, so nothing it scheduled
  /// can fire after its owner is destroyed. Tag 0 means "untagged".
  using GenTag = std::uint64_t;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Valid inside and outside callbacks.
  Time now() const noexcept { return now_; }

  /// Mint a fresh, never-before-issued generation tag (never 0).
  GenTag new_generation() noexcept { return ++next_gen_; }

  /// Schedule `fn` at absolute virtual time `t`. `t` must be >= now().
  /// Returns an id usable with cancel(). A non-zero `tag` enrols the
  /// event in that cancellation generation.
  std::uint64_t schedule_at(Time t, Callback fn, GenTag tag = 0);

  /// Schedule `fn` after a non-negative delay.
  std::uint64_t schedule_after(Time dt, Callback fn, GenTag tag = 0) {
    return schedule_at(now_ + dt, std::move(fn), tag);
  }

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled. Cancellation is O(1): the event leaves the pending map,
  /// and its queue entry, now a tombstone, is dropped when it surfaces,
  /// so repeated cancellation cannot grow the engine without bound.
  bool cancel(std::uint64_t id);

  /// Cancel every still-pending event in `tag`'s generation and retire
  /// the generation's bookkeeping. Returns how many events were
  /// cancelled. Safe to call for a generation with no pending events
  /// (returns 0); the tag may be re-armed afterwards.
  std::size_t cancel_generation(GenTag tag);

  /// Pending (scheduled, not yet run or cancelled) events in `tag`'s
  /// generation.
  std::size_t pending_in(GenTag tag) const;

  /// Number of generations that currently have at least one pending
  /// event — the memory-flatness gauge: a drained server must read 0.
  std::size_t live_generations() const { return gens_.size(); }

  /// Run until the queue is empty (or stop() is called from a callback).
  /// stop() only interrupts the current drain: a later run()/run_until()
  /// resumes with the remaining events.
  void run();

  /// Run until virtual time would exceed `deadline`; events at exactly
  /// `deadline` are processed. Returns the number of events processed.
  std::size_t run_until(Time deadline);

  /// Run until the queue is empty, stop() is called, or `max_events` more
  /// events have been processed — the step-budget watchdog behind
  /// OffloadOptions::harness.step_budget (docs/FUZZING.md): a scheduler
  /// livelock spins in bounded virtual time, so a deadline cannot catch
  /// it, but an event budget can. Returns the number of events this call
  /// processed; afterwards idle() distinguishes "drained" from "budget
  /// exhausted with work pending".
  std::size_t run_bounded(std::size_t max_events);

  /// Request run()/run_until() to return after the current callback.
  void stop() noexcept { stopped_ = true; }

  /// True when no pending (non-cancelled) events remain.
  bool idle() const noexcept { return pending_.empty(); }

  /// Pending (non-cancelled) events across all generations.
  std::size_t live_events() const noexcept { return pending_.size(); }

  std::size_t events_processed() const noexcept { return processed_; }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;  // FIFO tie-break and cancellation id
    Callback fn;
    bool operator>(const Entry& o) const noexcept {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };

  bool pop_one();  // runs the next event; false if queue exhausted
  void purge_cancelled_top();  // drop tombstones sitting at the queue top

  /// Drop `id` from its generation's pending set (no-op when untagged).
  void retire_from_generation(std::uint64_t id, GenTag tag);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  /// Scheduled, not yet run or cancelled: id -> generation tag (0 =
  /// untagged). A queue entry whose id is absent here is a tombstone.
  std::unordered_map<std::uint64_t, GenTag> pending_;
  /// Generation membership, kept only for tagged *pending* events; a
  /// generation's map entry disappears when its last pending event runs
  /// or is cancelled, so long-lived engines stay flat.
  std::unordered_map<GenTag, std::unordered_set<std::uint64_t>> gens_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  GenTag next_gen_ = 0;
  std::size_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace homp::sim

#endif  // HOMP_SIM_ENGINE_H
