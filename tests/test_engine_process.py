"""Tests for the pieces a simulated process is built from: the Signal
completion handle and the kernel's run-now-or-defer start guard."""

from repro.engine import Signal


class TestSignal:
    def test_fire_resumes_all_waiters(self, sim):
        signal = Signal(sim, "s")
        seen = []
        signal.subscribe(lambda v: seen.append(("a", v)))
        signal.subscribe(lambda v: seen.append(("b", v)))
        signal.fire(42)
        assert seen == [("a", 42), ("b", 42)]

    def test_fire_clears_waiters(self, sim):
        signal = Signal(sim)
        signal.subscribe(lambda v: None)
        signal.fire()
        assert signal.waiter_count == 0
        signal.fire()  # no waiters: no error
        assert signal.fire_count == 2

    def test_subscribers_added_during_fire_wait_for_next(self, sim):
        signal = Signal(sim)
        seen = []

        def resubscribe(value):
            seen.append(value)
            signal.subscribe(lambda v: seen.append(v))

        signal.subscribe(resubscribe)
        signal.fire(1)
        assert seen == [1]
        signal.fire(2)
        assert seen == [1, 2]


class TestCallNow:
    def test_runs_synchronously_when_the_cycle_is_idle(self, sim):
        seen = []
        sim.call_now(seen.append, "now")
        assert seen == ["now"]
        assert sim.pending_events == 0

    def test_defers_behind_events_pending_this_cycle(self, sim):
        seen = []
        sim.call_after(0, lambda: seen.append("queued"))
        sim.call_now(seen.append, "started")
        assert seen == []
        sim.run()
        assert seen == ["queued", "started"]

    def test_defers_behind_the_rest_of_the_current_sweep(self, sim):
        """Events of the running cycle are out of the heap while they are
        dispatched; a start from the first must still wait for the rest."""
        seen = []
        sim.call_at(5, lambda: sim.call_now(seen.append, "started"))
        sim.call_at(5, lambda: seen.append("second"))
        sim.run()
        assert seen == ["second", "started"]

    def test_last_event_of_a_sweep_starts_synchronously(self, sim):
        seen = []

        def last():
            sim.call_now(seen.append, "started")
            seen.append("after")

        sim.call_at(5, lambda: seen.append("first"))
        sim.call_at(5, last)
        sim.run()
        assert seen == ["first", "started", "after"]
