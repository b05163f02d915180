// homp-lint fixture: HL006 fires on untagged timers in src/runtime too.
// An offload's timers must carry its generation, which it revokes at
// completion, or they outlive it on a server's engine as on its own.
// Minimal stand-ins; this file is never compiled, only linted.

using GenTag = unsigned long long;

struct Engine {
  template <class F>
  unsigned long schedule_at(double, F, GenTag = 0) { return 0; }
  template <class F>
  unsigned long schedule_after(double, F, GenTag = 0) { return 0; }
};

struct Execution {
  Engine& engine_;
  GenTag gen_ = 0;

  void arm_watchdog(int slot) {
    engine_.schedule_after(1e-3, [slot] { (void)slot; });  // tag omitted
    engine_.schedule_at(2e-3, [slot] { (void)slot; });     // tag omitted
    engine_.schedule_after(3e-3, [slot] { (void)slot; }, gen_);  // tagged
  }
};
