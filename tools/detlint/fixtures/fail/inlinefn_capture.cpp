// Fixture: default-by-reference lambda captures handed to the event queue.
// All four forms — same-line [&], [&, extra] with explicit extras, a
// multi-line call head, and an install_rule continuation (it runs as the
// install's completion event) — must be flagged; the deferred body outlives
// the scope whose locals the blanket capture references.
namespace fixture {

struct Sim {
  template <typename F>
  void schedule_at(long at, F&& f);
  template <typename F>
  void schedule_in(long delay, F&& f);
};

struct Switch {
  template <typename F>
  void install_rule(unsigned long flow, int port, F&& on_active);
};

void deferred_blanket_capture(Sim& sim) {
  int local = 7;
  sim.schedule_at(10, [&]() { local += 1; });
}

void deferred_mixed_capture(Sim& sim) {
  int seq = 0;
  sim.schedule_in(5, [&, seq]() { (void)seq; });
}

void deferred_multiline_call(Sim& sim) {
  double acc = 0.0;
  sim.schedule_at(
      20,
      [&] { acc += 1.0; });
}

void deferred_install_continuation(Switch& sw) {
  int acks = 0;
  sw.install_rule(7, 2, [&] { ++acks; });
}

}  // namespace fixture
