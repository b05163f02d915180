#include "sim/callback.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <utility>

namespace homp::sim {
namespace {

/// Counts its calls and its destruction; moved-from copies count neither.
struct Probe {
  int* calls;
  int* destroyed;
  Probe(int* c, int* d) : calls(c), destroyed(d) {}
  Probe(Probe&& o) noexcept
      : calls(std::exchange(o.calls, nullptr)),
        destroyed(std::exchange(o.destroyed, nullptr)) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() const { ++*calls; }
};

/// A Probe with a payload too large for the inline buffer.
struct BigProbe {
  Probe probe;
  std::array<char, Callback::kInlineBytes + 8> payload{};
  void operator()() const { probe(); }
};
static_assert(sizeof(BigProbe) > Callback::kInlineBytes);

TEST(Callback, InlineCaptureRunsOnceAndDiesOnce) {
  int calls = 0, destroyed = 0;
  {
    Callback cb = Probe(&calls, &destroyed);
    Callback moved = std::move(cb);
    EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move)
    moved();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, HeapCaptureRunsOnceAndDiesOnce) {
  int calls = 0, destroyed = 0;
  {
    Callback cb = BigProbe{Probe(&calls, &destroyed)};
    Callback moved = std::move(cb);
    EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move)
    moved();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(destroyed, 0);
    moved = Callback();  // assignment destroys the old callable at once
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(moved);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, AcceptsMoveOnlyCaptures) {
  int seen = 0;
  auto owned = std::make_unique<int>(42);
  Callback cb = [p = std::move(owned), &seen] { seen = *p; };
  Callback other;
  other = std::move(cb);
  other();
  EXPECT_EQ(seen, 42);
}

TEST(Callback, CopiesAStdFunctionLvalue) {
  int calls = 0;
  std::function<void()> fn = [&calls] { ++calls; };
  Callback a = fn;
  Callback b = fn;
  a();
  b();
  fn();  // the original is still whole
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace homp::sim
