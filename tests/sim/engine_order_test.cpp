#include "sim/engine.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace homp::sim {
namespace {

/// The tie-break contract (engine.h file comment): events pop in strict
/// (time, seq) lexicographic order — FIFO within a timestamp, regardless
/// of generation tag, scheduling nesting, or cancellation history. Every
/// byte-identical output rests on exactly this; a change here is a
/// breaking change to the determinism model, not a tweak.

/// One mixed scenario: N events at one timestamp across several
/// generations, interleaved with cancellations and zero-delay
/// reschedules. Returns the serialized pop order.
std::string run_tiebreak_scenario() {
  Engine e;
  std::ostringstream log;
  const Engine::GenTag g1 = e.new_generation();
  const Engine::GenTag g2 = e.new_generation();
  const Engine::GenTag tags[] = {0, g1, g2, g1, 0, g2, g1, 0};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const int label = i;
    ids.push_back(e.schedule_at(
        1.0, [&log, label] { log << "a" << label << " "; }, tags[i % 8]));
  }
  // Cancellation must not disturb the survivors' relative order.
  e.cancel(ids[2]);
  e.cancel(ids[5]);
  // A pre-timestamp event that schedules into t=1.0: its child carries a
  // larger seq than every pre-scheduled event, so it pops last.
  e.schedule_at(0.5, [&] {
    log << "pre ";
    e.schedule_at(1.0, [&log] { log << "child "; });
  });
  // Same-timestamp zero-delay chains append in scheduling order too.
  e.schedule_at(1.0, [&] {
    log << "tail ";
    e.schedule_after(0.0, [&log] { log << "tail-child "; });
  });
  e.run();
  return log.str();
}

TEST(EngineOrder, TieBreakIsTimeThenSeq) {
  EXPECT_EQ(run_tiebreak_scenario(),
            "pre a0 a1 a3 a4 a6 a7 tail child tail-child ");
}

/// Byte-stability: the contract holds identically across 100 fresh
/// engines in one process (allocator state, uid counters, and prior
/// cancellations must not leak into pop order).
TEST(EngineOrder, ByteStableAcrossHundredRuns) {
  const std::string first = run_tiebreak_scenario();
  for (int i = 0; i < 99; ++i) {
    ASSERT_EQ(run_tiebreak_scenario(), first) << "run " << (i + 1);
  }
}

/// Many events, one timestamp, many generations: strict FIFO by seq.
TEST(EngineOrder, FifoWithinTimestampAcrossGenerations) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::GenTag> gens;
  for (int g = 0; g < 5; ++g) gens.push_back(e.new_generation());
  for (int i = 0; i < 50; ++i) {
    e.schedule_at(
        2.0, [&order, i] { order.push_back(i); },
        gens[static_cast<std::size_t>(i) % gens.size()]);
  }
  e.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace homp::sim
