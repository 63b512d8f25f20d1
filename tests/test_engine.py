"""Unit tests for the discrete-event engine."""

import pytest

from repro.netsim import PeriodicTimer, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, seen.append, "nested"))
        sim.run()
        assert seen == ["nested"]
        assert sim.now == 2.0


class TestRunControl:
    def test_run_until_is_inclusive(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(2.0, seen.append, 2)
        sim.run(until=2.0)
        assert seen == [1, 2]

    def test_run_until_excludes_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, seen.append, 3)
        sim.run(until=2.0)
        assert seen == []
        assert sim.now == 2.0
        sim.run()
        assert seen == [3]

    def test_now_advances_to_until_when_heap_drains(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_stop_halts_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, seen.append, 2)
        sim.run()
        assert seen == [(1, None)] or seen[0] is not None
        assert len(seen) == 1

    def test_max_events_limits_execution(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(i + 1.0, seen.append, i)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_executes_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "x")
        assert sim.step() is True
        assert seen == ["x"]
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i + 1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.active

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending() == 1

    def test_drop_pending_discards_and_cancels(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "handle")
        sim.call_later(2.0, seen.append, "fast")
        dead = sim.schedule(3.0, seen.append, "corpse")
        dead.cancel()
        sim.drop_pending()
        assert sim.pending() == 0
        assert not event.active
        event.cancel()            # a late cancel leaves the count alone
        assert sim.pending() == 0
        sim.run()
        assert seen == []


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=2.0)
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_fire_now_starts_immediately(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start(fire_now=True)
        sim.run(until=1.5)
        assert ticks == [0.0, 1.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(1.2, timer.stop)
        sim.run(until=3.0)
        assert ticks == [0.5, 1.0]

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: (ticks.append(sim.now),
                                                 timer.stop()))
        timer.start()
        sim.run(until=5.0)
        assert len(ticks) == 1

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)


class TestFastPathScheduling:
    """call_later/call_at: tuple-only scheduling for never-cancelled work."""

    def test_call_later_fires_like_schedule(self):
        sim = Simulator()
        order = []
        sim.call_later(2.0, order.append, "b")
        sim.call_later(1.0, order.append, "a")
        assert sim.call_later(0.5, order.append, "z") is None
        sim.run()
        assert order == ["z", "a", "b"]

    def test_fifo_tie_break_is_shared_with_schedule(self):
        # Both APIs draw from the same sequence counter, so interleaving
        # them at the same timestamp preserves submission order exactly.
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "s1")
        sim.call_later(1.0, order.append, "f1")
        sim.schedule(1.0, order.append, "s2")
        sim.call_at(1.0, order.append, "f2")
        sim.run()
        assert order == ["s1", "f1", "s2", "f2"]

    def test_call_later_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-0.1, lambda: None)

    def test_call_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_counts_in_events_processed_and_pending(self):
        sim = Simulator()
        for i in range(10):
            sim.call_later(i * 0.1, lambda: None)
        assert sim.pending() == 10
        sim.run()
        assert sim.events_processed == 10
        assert sim.pending() == 0


class TestCorpseCompaction:
    """Cancelled events must not accumulate in the heap unboundedly."""

    def test_cancel_heavy_workload_keeps_heap_bounded(self):
        # RTO-timer churn: every tick arms a timer and cancels the
        # previous one, so all but one scheduled event becomes a corpse.
        sim = Simulator()
        state = {"rto": None, "ticks": 0}

        def tick():
            if state["rto"] is not None:
                state["rto"].cancel()
            state["rto"] = sim.schedule(60.0, lambda: None)
            state["ticks"] += 1
            if state["ticks"] < 5000:
                sim.call_later(0.001, tick)

        sim.call_later(0.0, tick)
        sim.run(until=30.0)
        assert state["ticks"] == 5000
        # Without compaction the heap would hold ~5000 corpses; with it,
        # corpses can never exceed live entries plus the sweep threshold.
        assert len(sim._heap) <= 2 * sim.pending() + 64
        assert sim.pending() == 1  # the last armed RTO timer

    def test_pending_is_exact_under_cancellation(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(200)]
        for event in events[::2]:
            event.cancel()
        assert sim.pending() == 100
        for event in events:  # double-cancel must not double-count
            event.cancel()
        assert sim.pending() == 0

    def test_cancel_after_fire_does_not_corrupt_accounting(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        fired.cancel()  # already popped: must not touch the corpse count
        assert sim.pending() == 1
        sim.run()
        assert sim.events_processed == 2

    def test_peek_time_evicts_head_corpses(self):
        sim = Simulator()
        doomed = [sim.schedule(1.0 + i * 0.01, lambda: None) for i in range(10)]
        sim.schedule(5.0, lambda: None)
        for event in doomed:
            event.cancel()
        assert sim.peek_time() == 5.0
        assert sim.pending() == 1

    def test_peek_time_sees_fast_path_entries(self):
        sim = Simulator()
        sim.call_later(3.0, lambda: None)
        assert sim.peek_time() == 3.0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        order = []
        keep, doom = [], []
        for i in range(300):
            keep.append(sim.schedule(10.0 + i, order.append, i))
            doom.append(sim.schedule(5.0 + i * 0.01, order.append, -1))
        for event in doom:
            event.cancel()  # triggers in-place compaction mid-stream
        sim.run()
        assert order == list(range(300))
        assert sim.events_processed == 300
