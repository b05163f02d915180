// homp-lint fixture: no HL001 finding — captures are by value, moved-in,
// or `this` held by an object that owns the engine, and a by-reference
// predicate that runs before its call returns is not deferred.

#include <condition_variable>
#include <functional>
#include <mutex>
#include <utility>

struct Engine {
  template <class F> unsigned long schedule_at(double, F) { return 0; }
  template <class F> unsigned long schedule_after(double, F) { return 0; }
};

struct Actor {
  Engine& engine_;
  int state_ = 0;
  explicit Actor(Engine& e) : engine_(e) {}
  void kick() {
    int snapshot = state_;
    engine_.schedule_after(1.0, [this, snapshot] { state_ = snapshot + 1; });
  }
};

void move_ownership(Engine& e, std::function<void()> cont) {
  int copied = 7;
  e.schedule_at(2.0, [copied, cont = std::move(cont)]() mutable {
    if (copied > 0) cont();
  });
}

void wait_until_ready(std::condition_variable& cv, std::mutex& m,
                      const bool& ready) {
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return ready; });
}
