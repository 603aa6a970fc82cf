"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestOrdering:
    def test_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_same_time(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_clock_advances_monotonically(self, sim):
        times = []
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 1.0, 5.0]

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.5, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.schedule(2.0, lambda: order.append("later"))
        sim.run()
        assert order == ["outer", "inner", "later"]


class TestControl:
    def test_run_until(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_run_until_advances_clock_past_empty_queue(self, sim):
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_stop(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [(1, None)] or fired[0] is not None
        assert len(fired) == 1

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is False

    def test_cancel(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.cancel(event)
        sim.run()
        assert fired == [2]

    def test_pending_excludes_cancelled(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        assert sim.pending == 1


class TestErrors:
    def test_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()


class TestDeterminism:
    def test_same_seed_same_rng(self):
        a, b = Simulator(seed=3), Simulator(seed=3)
        assert [a.rng.random() for _ in range(5)] == \
               [b.rng.random() for _ in range(5)]

    def test_trace_hook(self, sim):
        seen = []
        sim.trace_hook = lambda event: seen.append(event.time)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert seen == [1.0]


class TestCompaction:
    def test_heavy_cancellation_compacts_and_preserves_survivors(self, sim):
        fired = []
        survivors = []
        doomed = []
        for i in range(500):
            if i % 5 == 0:
                survivors.append((i, sim.schedule(float(i), fired.append, i)))
            else:
                doomed.append(sim.schedule(float(i), fired.append, i))
        for event in doomed:
            event.cancel()
        # the compaction sweep must have culled the dead entries already
        assert len(sim._queue) < 500
        assert sim.pending == len(survivors)
        sim.run()
        assert fired == [i for i, _e in survivors]

    def test_cancel_is_idempotent_for_count(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=1.5)
        event.cancel()  # already popped from the heap
        sim.run()
        assert fired == [1, 2]
        assert sim.pending == 0

    def test_interleaved_cancel_and_schedule_stays_exact(self, sim):
        live = []
        for round_no in range(20):
            events = [sim.schedule(float(round_no) + 1.0, lambda: None)
                      for _ in range(50)]
            for event in events[:40]:
                event.cancel()
            live.extend(events[40:])
        assert sim.pending == len(live)
        count = 0
        while sim.step():
            count += 1
        assert count == len(live)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
def test_events_fire_in_nondecreasing_time_property(delays):
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)
