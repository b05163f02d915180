// homp-lint fixture: HL001 must fire on every deferred-execution site below.
// Minimal stand-ins; this file is never compiled, only linted.

struct Engine {
  template <class F> unsigned long schedule_at(double, F) { return 0; }
  template <class F> unsigned long schedule_after(double, F) { return 0; }
};
struct Link {
  template <class F> void transfer(double, F) {}
};
struct Execution {
  template <class F> unsigned long sched_after(double, F) { return 0; }
  template <class F> void transfer(Link*, double, F) {}
};

void all_bad(Engine& e, Link& lk, Execution& x) {
  int local = 0;
  double when = 1.0;
  e.schedule_at(when, [&] { local += 1; });        // default ref capture
  e.schedule_after(0.5, [&local] { local += 1; }); // named ref capture
  lk.transfer(1e6, [&local] { local += 3; });
  x.sched_after(0.5, [&local] { local += 1; });  // the offload's timer
  x.transfer(&lk, 1e6, [&] { local += 3; });      // and its transfer
  // multi-line capture lists must be seen too
  e.schedule_after(0.25, [&local,
                          when] { local += static_cast<int>(when); });
}
