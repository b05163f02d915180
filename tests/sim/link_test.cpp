#include "sim/link.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace homp::sim {
namespace {

TEST(SharedLink, UncontendedTransferFollowsHockney) {
  Engine e;
  SharedLink link(e, "l", /*latency=*/1e-6, /*bw=*/1e9);
  double done_at = -1.0;
  link.transfer(1e6, [&] { done_at = e.now(); });
  e.run();
  // alpha + bytes/beta = 1us + 1ms.
  EXPECT_NEAR(done_at, 1e-6 + 1e-3, 1e-12);
  EXPECT_EQ(link.transfers_completed(), 1u);
  EXPECT_NEAR(link.bytes_delivered(), 1e6, 1.0);
}

TEST(SharedLink, TwoEqualTransfersShareBandwidth) {
  Engine e;
  SharedLink link(e, "l", 0.0, 1e9);
  double t1 = -1, t2 = -1;
  link.transfer(1e6, [&] { t1 = e.now(); });
  link.transfer(1e6, [&] { t2 = e.now(); });
  e.run();
  // Both get beta/2: each takes 2 ms, finishing together.
  EXPECT_NEAR(t1, 2e-3, 1e-9);
  EXPECT_NEAR(t2, 2e-3, 1e-9);
}

TEST(SharedLink, SmallTransferFinishesFirstThenBigSpeedsUp) {
  Engine e;
  SharedLink link(e, "l", 0.0, 1e9);
  double t_small = -1, t_big = -1;
  link.transfer(1e6, [&] { t_small = e.now(); });
  link.transfer(3e6, [&] { t_big = e.now(); });
  e.run();
  // Shared until small is done: small moves at 0.5 GB/s -> 2 ms.
  // Big then has 2e6 left at full rate -> 2 ms + 2 ms = 4 ms
  // (= total bytes / beta, a property of processor sharing).
  EXPECT_NEAR(t_small, 2e-3, 1e-9);
  EXPECT_NEAR(t_big, 4e-3, 1e-9);
}

TEST(SharedLink, LateArrivalSharesRemainingBandwidth) {
  Engine e;
  SharedLink link(e, "l", 0.0, 1e9);
  double t1 = -1, t2 = -1;
  link.transfer(2e6, [&] { t1 = e.now(); });
  e.schedule_at(1e-3, [&] { link.transfer(1e6, [&] { t2 = e.now(); }); });
  e.run();
  // First: 1 ms alone (1e6 done), then shares; both have 1e6 left at
  // 0.5 GB/s -> 2 more ms. Both finish at 3 ms.
  EXPECT_NEAR(t1, 3e-3, 1e-9);
  EXPECT_NEAR(t2, 3e-3, 1e-9);
}

TEST(SharedLink, TransfersInOneLatencyWindowAdmitInCallOrder) {
  // Three transfers started 0.2 ms apart, all inside the first 1 ms
  // latency window, are admitted at 1.0, 1.2 and 1.4 ms in call order.
  // Processor sharing from there, by hand, at 1 GB/s:
  //   1.0-1.2 ms  a alone moves 0.2 MB            a 2.8 MB left
  //   1.2-1.4 ms  a, b at 0.5 GB/s, 0.1 MB each   a 2.7, b 0.9
  //   1.4-4.1 ms  a, b, c at 1/3 GB/s, 0.9 MB     b done; a 1.8, c 1.1
  //   4.1-6.3 ms  a, c at 0.5 GB/s, 1.1 MB        c done; a 0.7
  //   6.3-7.0 ms  a alone                         a done
  Engine e;
  SharedLink link(e, "l", /*latency=*/1e-3, /*bw=*/1e9);
  std::vector<char> order;
  double ta = -1, tb = -1, tc = -1;
  link.transfer(3e6, [&] { ta = e.now(); order.push_back('a'); });
  e.schedule_at(0.2e-3, [&] {
    link.transfer(1e6, [&] { tb = e.now(); order.push_back('b'); });
  });
  e.schedule_at(0.4e-3, [&] {
    link.transfer(2e6, [&] { tc = e.now(); order.push_back('c'); });
  });
  e.run();
  EXPECT_NEAR(tb, 4.1e-3, 1e-12);
  EXPECT_NEAR(tc, 6.3e-3, 1e-12);
  EXPECT_NEAR(ta, 7.0e-3, 1e-12);
  EXPECT_EQ(order, (std::vector<char>{'b', 'c', 'a'}));
  EXPECT_EQ(link.transfers_completed(), 3u);
  EXPECT_NEAR(link.busy_time(), 6e-3, 1e-12);
}

TEST(SharedLink, ZeroByteTransferPaysOnlyLatency) {
  Engine e;
  SharedLink link(e, "l", 5e-6, 1e9);
  double t = -1;
  link.transfer(0.0, [&] { t = e.now(); });
  e.run();
  EXPECT_NEAR(t, 5e-6, 1e-12);
}

TEST(SharedLink, CompletionCallbackCanStartNextTransfer) {
  Engine e;
  SharedLink link(e, "l", 0.0, 1e9);
  double t = -1;
  link.transfer(1e6, [&] {
    link.transfer(1e6, [&] { t = e.now(); });
  });
  e.run();
  EXPECT_NEAR(t, 2e-3, 1e-9);
  EXPECT_EQ(link.transfers_completed(), 2u);
}

TEST(SharedLink, BusyTimeExcludesIdleGaps) {
  Engine e;
  SharedLink link(e, "l", 0.0, 1e9);
  link.transfer(1e6, [] {});
  e.schedule_at(10e-3, [&] { link.transfer(1e6, [] {}); });
  e.run();
  EXPECT_NEAR(link.busy_time(), 2e-3, 1e-8);
}

TEST(SharedLink, RejectsBadParameters) {
  Engine e;
  EXPECT_THROW({ SharedLink bad(e, "l", -1.0, 1e9); }, homp::ConfigError);
  EXPECT_THROW({ SharedLink bad(e, "l", 0.0, 0.0); }, homp::ConfigError);
  SharedLink ok(e, "l", 0.0, 1.0);
  EXPECT_THROW(ok.transfer(-5.0, [] {}), homp::ConfigError);
}

}  // namespace
}  // namespace homp::sim
