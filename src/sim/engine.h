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
///
/// Event table. Each pending event owns a slot of a reused table: its
/// Callback, its seq and its generation links. The queue is a binary heap
/// of trivially copyable (time, seq, slot) keys. A slot freed by a run or
/// a cancel goes on a free list and is reused by the next schedule, so a
/// steady-state engine allocates nothing per event.
///
/// Handles. schedule_at returns a handle that names the slot and a stamp
/// the slot bumps each time it is freed; no handle is 0, so callers may
/// use 0 as "no event". A handle stops being live when its event runs or
/// is cancelled, and a stale handle, even one whose slot now holds a
/// newer event, cancels nothing. A cancel destroys the event's callback
/// at once; only its 24-byte key stays in the heap until it surfaces.
/// A running callback has already been moved out of its slot, so it may
/// cancel its own generation or schedule into the slot it left.
///
/// Generations. new_generation() hands out an index of a dense table and
/// the stamp that index holds; an owner retires its tag when it ends, and
/// the index comes back to a later owner under a new stamp, which no old
/// tag carries. The table is therefore bounded by the peak number of live
/// owners, and a steady-state engine allocates nothing per generation.
///
/// Lifetime. One engine may serve many runs: reset() drops pending work
/// and restarts the clock, seq counter and processed count at 0, keeping
/// the tables' capacity, so the next run pops in a fresh engine's order.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace homp::sim {

class Engine {
 public:
  using Callback = sim::Callback;

  /// Cancellation generation tag. Events scheduled with a tag belong to
  /// that generation and can all be cancelled in one cancel_generation()
  /// call — the timer-lifecycle primitive behind job-level failure
  /// domains (docs/SERVING.md): a finishing job revokes every watchdog /
  /// probation / deadline timer it ever armed, so nothing it scheduled
  /// can fire after its owner is destroyed. Tag 0 means "untagged".
  /// A tag carries its table index and that index's stamp.
  using GenTag = std::uint64_t;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Valid inside and outside callbacks.
  Time now() const noexcept { return now_; }

  /// Issue a generation tag (never 0) that no earlier owner holds: a
  /// retired index returns under a new stamp.
  GenTag new_generation() noexcept;

  /// Drop every pending event, destroying its callback, and restart the
  /// clock, the seq counter and the processed count at 0. Capacity, slot
  /// stamps and issued generation tags are kept, so events scheduled
  /// after a reset pop in the order a fresh engine gives them and no
  /// earlier handle reaches them. Not from inside a callback.
  void reset();

  /// Schedule `fn` at absolute virtual time `t`. `t` must be >= now().
  /// Returns a non-zero handle usable with cancel(). A non-zero `tag`
  /// enrols the event in that cancellation generation.
  std::uint64_t schedule_at(Time t, Callback fn, GenTag tag = 0);

  /// Schedule `fn` after a non-negative delay.
  std::uint64_t schedule_after(Time dt, Callback fn, GenTag tag = 0) {
    return schedule_at(now_ + dt, std::move(fn), tag);
  }

  /// Cancel a pending event and destroy its callback. Returns false if
  /// the handle is stale: its event already ran or was cancelled.
  bool cancel(std::uint64_t handle);

  /// Cancel every still-pending event in `tag`'s generation, destroying
  /// their callbacks. Returns how many events were cancelled. Safe to
  /// call for a generation with no pending events (returns 0); the tag
  /// may be re-armed afterwards.
  std::size_t cancel_generation(GenTag tag);

  /// cancel_generation(), then hand `tag`'s index back to the table for a
  /// later new_generation(). The owner calls it when it ends: a retired
  /// tag cancels and counts nothing, and scheduling with it is an error.
  std::size_t retire_generation(GenTag tag);

  /// Pending (scheduled, not yet run or cancelled) events in `tag`'s
  /// generation.
  std::size_t pending_in(GenTag tag) const;

  /// Number of generations that currently have at least one pending
  /// event — the memory-flatness gauge: a drained server must read 0.
  std::size_t live_generations() const noexcept { return live_gens_; }

  /// Generation table entries, issued or retired: the peak number of
  /// tags held at once.
  std::size_t generation_slots() const noexcept { return gens_.size(); }

  /// Run until the queue is empty (or stop() is called from a callback).
  /// stop() only interrupts the current drain: a later run()/run_until()
  /// resumes with the remaining events.
  void run();

  /// Run until virtual time would exceed `deadline`; events at exactly
  /// `deadline` are processed. Returns the number of events processed.
  std::size_t run_until(Time deadline);

  /// Request run()/run_until() to return after the current callback.
  void stop() noexcept { stopped_ = true; }

  /// True when no pending (non-cancelled) events remain.
  bool idle() const noexcept { return live_ == 0; }

  /// Pending (non-cancelled) events across all generations.
  std::size_t live_events() const noexcept { return live_; }

  std::size_t events_processed() const noexcept { return processed_; }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Key {
    Time t;
    std::uint64_t seq;  // FIFO tie-break; a key whose slot moved on is stale
    std::uint32_t slot;
  };

  struct Slot {
    Callback fn;  // empty while the slot is free
    std::uint64_t seq = 0;
    std::uint32_t gen = kNone;  // generation table index; kNone: untagged
    std::uint32_t stamp = 1;    // bumped on every free; never 0
    /// Neighbours in the generation's list; `next` links the free list
    /// while the slot is free.
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };

  /// A generation's pending events, linked through their slots. While
  /// the entry is retired, `head` links the table's free list.
  struct GenList {
    std::uint32_t head = kNone;
    std::uint32_t stamp = 1;  // bumped on every retire; never 0
    std::size_t size = 0;
  };

  static bool later(const Key& a, const Key& b) noexcept {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }

  /// `tag`'s table entry, or null for 0 and for a retired tag.
  const GenList* find_gen(GenTag tag) const noexcept {
    const auto g = static_cast<std::uint32_t>(tag);
    if (tag == 0 || g >= gens_.size() || gens_[g].stamp != tag >> 32) {
      return nullptr;
    }
    return &gens_[g];
  }

  bool pop_one();  // runs the next event; false if queue exhausted
  void purge_cancelled_top();  // drop stale keys sitting at the heap top
  bool stale(const Key& k) const noexcept {
    const Slot& s = slots_[k.slot];
    return !s.fn || s.seq != k.seq;
  }

  /// Unlink slot `s` from its generation and put it on the free list,
  /// returning its callback for the caller to run or drop.
  Callback release(std::uint32_t s);

  std::vector<Key> heap_;  // min-heap on (t, seq) via later()
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  /// One entry per issued tag, reused once its owner retires it.
  std::vector<GenList> gens_;
  std::uint32_t free_gen_ = kNone;
  std::size_t live_gens_ = 0;  // entries with a pending event
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace homp::sim

#endif  // HOMP_SIM_ENGINE_H
