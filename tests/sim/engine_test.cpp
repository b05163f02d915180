#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace homp::sim {
namespace {

/// A callable that counts its own destruction; moved-from copies do not
/// count, so each scheduled callable adds exactly one when it dies.
struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept : count(std::exchange(o.count, nullptr)) {}
  DtorCounter(const DtorCounter&) = delete;
  DtorCounter& operator=(const DtorCounter&) = delete;
  DtorCounter& operator=(DtorCounter&&) = delete;
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
  void operator()() const {}
};

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CallbacksCanScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] {
    ++fired;
    e.schedule_after(1.0, [&] {
      ++fired;
      e.schedule_after(1.0, [&] { ++fired; });
    });
  });
  e.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  auto id = e.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(5.0, [&] { ++fired; });
  const std::size_t n = e.run_until(3.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] {
    ++fired;
    e.stop();
  });
  e.schedule_at(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, IdleReflectsPendingEvents) {
  Engine e;
  EXPECT_TRUE(e.idle());
  auto id = e.schedule_at(1.0, [] {});
  EXPECT_FALSE(e.idle());
  e.cancel(id);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, CancelOfCompletedEventIsRejected) {
  // Cancelling an id that already ran must fail — and must not corrupt
  // the live-event accounting (a historical bug tombstoned such ids
  // forever, leaking memory and decrementing live_events_ twice).
  Engine e;
  auto id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
  EXPECT_TRUE(e.idle());
  e.schedule_at(2.0, [] {});
  EXPECT_FALSE(e.idle());  // accounting intact after the bogus cancel
  e.run();
  EXPECT_TRUE(e.idle());
}

TEST(Engine, CancelOfUnknownIdIsRejected) {
  Engine e;
  EXPECT_FALSE(e.cancel(12345));
  EXPECT_TRUE(e.idle());
}

TEST(Engine, RunUsableAfterStop) {
  // stop() only interrupts the current drain; the engine must keep
  // working across repeated stop/run cycles.
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    e.schedule_at(static_cast<double>(i + 1), [&order, &e, i] {
      order.push_back(i);
      e.stop();
    });
  }
  for (int i = 0; i < 4; ++i) e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(e.idle());

  // run_until after stop behaves the same way.
  bool ran = false;
  e.schedule_at(10.0, [&] { ran = true; });
  e.stop();  // stale request must not poison the next drain
  EXPECT_EQ(e.run_until(20.0), 1u);
  EXPECT_TRUE(ran);
}

TEST(Engine, RunUntilSeesDeadlinePastTombstones) {
  // A cancelled event sitting at the queue top must not hide the next
  // live event from the deadline check.
  Engine e;
  int fired = 0;
  auto id = e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(5.0, [&] { ++fired; });
  e.cancel(id);
  EXPECT_EQ(e.run_until(3.0), 0u);  // live event at 5.0 is past deadline
  EXPECT_EQ(fired, 0);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, GenerationCancelRevokesOnlyItsOwnEvents) {
  Engine e;
  const auto gen = e.new_generation();
  const auto other = e.new_generation();
  EXPECT_NE(gen, other);
  EXPECT_NE(gen, 0u);

  int mine = 0, theirs = 0, untagged = 0;
  e.schedule_after(1.0, [&] { ++mine; }, gen);
  e.schedule_after(2.0, [&] { ++mine; }, gen);
  e.schedule_after(1.5, [&] { ++theirs; }, other);
  e.schedule_after(1.5, [&] { ++untagged; });
  EXPECT_EQ(e.pending_in(gen), 2u);
  EXPECT_EQ(e.pending_in(other), 1u);
  EXPECT_EQ(e.live_generations(), 2u);

  EXPECT_EQ(e.cancel_generation(gen), 2u);
  EXPECT_EQ(e.pending_in(gen), 0u);
  EXPECT_EQ(e.live_generations(), 1u);

  e.run();
  EXPECT_EQ(mine, 0);
  EXPECT_EQ(theirs, 1);
  EXPECT_EQ(untagged, 1);
  EXPECT_EQ(e.live_generations(), 0u);  // ran events retire their gen
  EXPECT_EQ(e.live_events(), 0u);
}

TEST(Engine, GenerationBookkeepingSurvivesIndividualCancel) {
  // cancel() on a tagged event must retire it from its generation too,
  // and cancelling an already-drained generation is a harmless no-op.
  Engine e;
  const auto gen = e.new_generation();
  const auto id = e.schedule_after(1.0, [] {}, gen);
  e.schedule_after(2.0, [] {}, gen);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending_in(gen), 1u);
  e.run();
  EXPECT_EQ(e.pending_in(gen), 0u);
  EXPECT_EQ(e.live_generations(), 0u);
  EXPECT_EQ(e.cancel_generation(gen), 0u);

  // The tag may be re-armed after a full drain.
  int fired = 0;
  e.schedule_after(1.0, [&] { ++fired; }, gen);
  EXPECT_EQ(e.pending_in(gen), 1u);
  EXPECT_EQ(e.cancel_generation(gen), 1u);
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, GenerationCancelFromInsideACallback) {
  // A callback revoking its own generation mid-run (how a finishing job
  // kills its pending watchdog/deadline timers) must stop every later
  // event of that generation, including ones at the same timestamp.
  Engine e;
  const auto gen = e.new_generation();
  int fired = 0;
  e.schedule_at(1.0, [&] { e.cancel_generation(gen); });
  e.schedule_at(1.0, [&] { ++fired; }, gen);
  e.schedule_at(2.0, [&] { ++fired; }, gen);
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.live_generations(), 0u);
}

TEST(Engine, RepeatedCancelCyclesReclaimTombstones) {
  // Schedule/cancel churn must not grow the engine without bound: every
  // tombstone is reclaimed when its queue entry surfaces.
  Engine e;
  for (int round = 0; round < 1000; ++round) {
    auto id = e.schedule_after(1.0, [] {});
    e.cancel(id);
    e.run();  // drains the tombstone
    EXPECT_TRUE(e.idle());
  }
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(Engine, NoHandleIsZero) {
  // Callers keep 0 as "no event" (the server's deadline_event), so the
  // very first event of a fresh engine must not get handle 0 either, nor
  // an event scheduled into a reused slot.
  Engine e;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) EXPECT_NE(e.schedule_at(1.0 + round, [] {}), 0u);
    e.run();
  }
}

TEST(Engine, StaleHandleOfAReusedSlotCancelsNothing) {
  Engine e;
  int fired = 0;
  const auto first = e.schedule_at(1.0, [] {});
  e.run();
  // The freed slot takes the next event; the old handle must not reach it.
  const auto second = e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(e.cancel(first));
  EXPECT_EQ(e.live_events(), 1u);
  e.run();
  EXPECT_EQ(fired, 1);

  const auto third = e.schedule_at(3.0, [] {});
  EXPECT_TRUE(e.cancel(third));
  const auto fourth = e.schedule_at(4.0, [&] { ++fired; });
  EXPECT_FALSE(e.cancel(third));
  EXPECT_NE(third, fourth);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, CancelDestroysTheCallbackAtOnce) {
  Engine e;
  int destroyed = 0;
  const auto id = e.schedule_at(5.0, DtorCounter(&destroyed));
  EXPECT_EQ(destroyed, 0);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(destroyed, 1);  // not when its stale key surfaces at t = 5

  const auto gen = e.new_generation();
  e.schedule_at(6.0, DtorCounter(&destroyed), gen);
  e.schedule_at(7.0, DtorCounter(&destroyed), gen);
  EXPECT_EQ(e.cancel_generation(gen), 2u);
  EXPECT_EQ(destroyed, 3);

  e.schedule_at(8.0, DtorCounter(&destroyed));
  e.run();
  EXPECT_EQ(destroyed, 4);  // a callable that ran dies once too
  EXPECT_EQ(e.events_processed(), 1u);
}

TEST(Engine, RunningCallbackHasLeftItsSlot) {
  // The running callback was moved out of its slot before it was
  // called: it can revoke its own generation, its own handle is already
  // stale, and what it schedules may take the slot it left.
  Engine e;
  const auto gen = e.new_generation();
  int fired = 0;
  std::uint64_t self = 0;
  std::uint64_t child = 0;
  self = e.schedule_at(
      1.0,
      [&] {
        EXPECT_EQ(e.pending_in(gen), 1u);  // only its sibling
        EXPECT_FALSE(e.cancel(self));
        EXPECT_EQ(e.cancel_generation(gen), 1u);
        child = e.schedule_after(1.0, [&] { ++fired; }, gen);
      },
      gen);
  e.schedule_at(2.0, [&] { fired += 100; }, gen);
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_NE(child, 0u);
  EXPECT_NE(child, self);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.live_generations(), 0u);
}

TEST(Engine, RetiredTagCancelsNothingAfterItsIndexIsReused) {
  Engine e;
  const auto old_tag = e.new_generation();
  e.schedule_after(1.0, [] {}, old_tag);
  EXPECT_EQ(e.retire_generation(old_tag), 1u);  // its pending event dies
  const auto reused = e.new_generation();       // same index, new stamp
  EXPECT_NE(reused, old_tag);
  EXPECT_NE(reused, 0u);
  EXPECT_EQ(e.generation_slots(), 1u);

  int fired = 0;
  e.schedule_after(1.0, [&] { ++fired; }, reused);
  EXPECT_EQ(e.pending_in(old_tag), 0u);
  EXPECT_EQ(e.cancel_generation(old_tag), 0u);
  EXPECT_EQ(e.retire_generation(old_tag), 0u);
  EXPECT_EQ(e.pending_in(reused), 1u);
  EXPECT_EQ(e.live_generations(), 1u);
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.live_generations(), 0u);
  e.retire_generation(reused);

  // Owners that come and go keep the table at their peak count.
  for (int round = 0; round < 100; ++round) {
    const auto a = e.new_generation();
    const auto b = e.new_generation();
    e.schedule_after(1.0, [] {}, a);
    e.schedule_after(1.0, [] {}, b);
    e.run();
    e.retire_generation(a);
    e.retire_generation(b);
  }
  EXPECT_EQ(e.generation_slots(), 2u);
}

/// A fixed schedule with same-time ties, a tagged half and a callback
/// that schedules; returns the order its events ran in.
std::vector<int> scripted_pops(Engine& e) {
  std::vector<int> order;
  const auto gen = e.new_generation();
  for (int i = 0; i < 6; ++i) {
    const auto handle = e.schedule_at(
        static_cast<double>(i % 3),
        [&order, &e, i] {
          order.push_back(i);
          if (i == 1) e.schedule_after(0.0, [&order] { order.push_back(10); });
        },
        i % 2 == 0 ? gen : 0);
    EXPECT_NE(handle, 0u);
  }
  e.run();
  EXPECT_EQ(e.now(), 2.0);
  EXPECT_EQ(e.events_processed(), 7u);
  e.retire_generation(gen);
  return order;
}

TEST(Engine, ResetRunsLikeAFreshEngine) {
  Engine fresh;
  const std::vector<int> want = scripted_pops(fresh);

  Engine used;
  const auto gen = used.new_generation();
  int dropped = 0;
  used.schedule_at(1.0, [&] { ++dropped; });
  const auto pending = used.schedule_at(3.0, [&] { ++dropped; }, gen);
  used.schedule_at(5.0, [&] { ++dropped; });
  used.run_until(2.0);
  EXPECT_EQ(dropped, 1);

  used.reset();
  EXPECT_EQ(used.now(), 0.0);
  EXPECT_EQ(used.events_processed(), 0u);
  EXPECT_TRUE(used.idle());
  EXPECT_EQ(used.live_generations(), 0u);
  EXPECT_EQ(used.pending_in(gen), 0u);
  EXPECT_EQ(scripted_pops(used), want);
  EXPECT_EQ(dropped, 1);  // what reset() dropped never runs
  EXPECT_FALSE(used.cancel(pending));

  // The kept tag may still be armed; the table did not grow.
  used.schedule_after(1.0, [] {}, gen);
  EXPECT_EQ(used.pending_in(gen), 1u);
  EXPECT_EQ(used.generation_slots(), 2u);
}

}  // namespace
}  // namespace homp::sim
