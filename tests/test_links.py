"""Unit tests for link models: fixed, delay-line, variable, trace-driven."""

import numpy as np
import pytest

from repro.netsim import (
    DelayLine,
    DropTailQueue,
    Link,
    LinkPhase,
    LinkSchedule,
    Packet,
    Simulator,
    TraceLink,
    VariableLink,
)


def collect():
    sink = []
    return sink, sink.append


class TestDelayLine:
    def test_delivers_after_delay(self):
        sim = Simulator()
        sink, dst = collect()
        line = DelayLine(sim, 0.25, dst=dst)
        line.send(Packet(flow_id=0, seq=0))
        sim.run()
        assert len(sink) == 1
        assert sim.now == 0.25

    def test_zero_delay_delivers_inline(self):
        sim = Simulator()
        sink, dst = collect()
        DelayLine(sim, 0.0, dst=dst).send(Packet(flow_id=0, seq=0))
        assert len(sink) == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayLine(Simulator(), -1.0)


class TestLink:
    def test_serialization_time(self):
        """1000 B at 8 Mbps = 1 ms per packet, plus 10 ms propagation."""
        sim = Simulator()
        sink, dst = collect()
        link = Link(sim, rate_bps=8e6, delay=0.01, dst=dst)
        for i in range(3):
            link.send(Packet(flow_id=0, seq=i, size=1000))
        sim.run()
        assert len(sink) == 3
        assert sim.now == pytest.approx(0.013)

    def test_throughput_matches_rate(self):
        sim = Simulator()
        sink, dst = collect()
        link = Link(sim, rate_bps=10e6, dst=dst)
        n = 1000
        for i in range(n):
            link.send(Packet(flow_id=0, seq=i, size=1250))
        sim.run()
        # 1000 × 1250 B × 8 = 10 Mbit at 10 Mbps → exactly 1 second
        assert sim.now == pytest.approx(1.0)

    def test_queue_overflow_drops(self):
        sim = Simulator()
        sink, dst = collect()
        link = Link(sim, rate_bps=1e6, dst=dst,
                    queue=DropTailQueue(capacity_bytes=3000))
        for i in range(10):
            link.send(Packet(flow_id=0, seq=i, size=1400))
        sim.run()
        assert len(sink) < 10
        assert link.queue.stats.dropped > 0

    def test_stochastic_loss_rate(self):
        sim = Simulator()
        sink, dst = collect()
        link = Link(sim, rate_bps=100e6, dst=dst, loss_rate=0.5,
                    rng=np.random.default_rng(0))
        n = 2000
        for i in range(n):
            link.send(Packet(flow_id=0, seq=i, size=100))
        sim.run()
        assert 0.4 * n < len(sink) < 0.6 * n
        assert link.stochastic_losses == n - len(sink)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulator(), rate_bps=0.0)

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulator(), rate_bps=1e6, loss_rate=1.0)

    def test_loss_without_rng_rejected(self):
        with pytest.raises(ValueError, match="seeded rng"):
            Link(Simulator(), rate_bps=1e6, loss_rate=0.01)

    def test_missing_destination_raises(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e9)
        link.send(Packet(flow_id=0, seq=0, size=10))
        with pytest.raises(RuntimeError):
            sim.run()


class TestLinkSchedule:
    def test_phases_validate(self):
        with pytest.raises(ValueError):
            LinkPhase(duration=0.0, rate_bps=1e6, delay=0.0)
        with pytest.raises(ValueError):
            LinkPhase(duration=1.0, rate_bps=0.0, delay=0.0)
        with pytest.raises(ValueError):
            LinkSchedule([])

    def test_random_walk_covers_duration(self):
        schedule = LinkSchedule.random_walk(
            duration=23.0, period=5.0, rate_range_bps=(1e6, 2e6),
            delay_range=(0.01, 0.02), loss_range=(0.0, 0.0),
            rng=np.random.default_rng(0))
        assert schedule.total_duration() == pytest.approx(23.0)
        assert len(schedule.phases) == 5  # 4 × 5s + 1 × 3s

    def test_random_walk_respects_ranges(self):
        schedule = LinkSchedule.random_walk(
            duration=100.0, period=5.0, rate_range_bps=(2e6, 20e6),
            delay_range=(0.005, 0.05), loss_range=(0.0, 0.01),
            rng=np.random.default_rng(1))
        for phase in schedule.phases:
            assert 2e6 <= phase.rate_bps <= 20e6
            assert 0.005 <= phase.delay <= 0.05
            assert 0.0 <= phase.loss_rate <= 0.01


class TestVariableLink:
    def test_conditions_change_on_schedule(self):
        sim = Simulator()
        schedule = LinkSchedule([
            LinkPhase(duration=1.0, rate_bps=1e6, delay=0.01),
            LinkPhase(duration=1.0, rate_bps=5e6, delay=0.02, loss_rate=0.0),
        ], repeat=False)
        link = VariableLink(sim, schedule, dst=lambda p: None)
        assert link.rate_bps == 1e6
        sim.run(until=1.5)
        assert link.rate_bps == 5e6
        assert link.delay == 0.02

    def test_schedule_repeats(self):
        sim = Simulator()
        schedule = LinkSchedule([
            LinkPhase(duration=1.0, rate_bps=1e6, delay=0.0),
            LinkPhase(duration=1.0, rate_bps=2e6, delay=0.0),
        ], repeat=True)
        link = VariableLink(sim, schedule, dst=lambda p: None)
        sim.run(until=2.5)   # back into phase 0
        assert link.rate_bps == 1e6
        assert link.condition_changes == 2

    def test_lossy_phase_without_rng_rejected(self):
        schedule = LinkSchedule([
            LinkPhase(duration=1.0, rate_bps=1e6, delay=0.0),
            LinkPhase(duration=1.0, rate_bps=1e6, delay=0.0, loss_rate=0.01),
        ])
        with pytest.raises(ValueError, match="seeded rng"):
            VariableLink(Simulator(), schedule)

    def test_faster_phase_speeds_delivery(self):
        sim = Simulator()
        sink, dst = collect()
        schedule = LinkSchedule([
            LinkPhase(duration=10.0, rate_bps=1e6, delay=0.0),
        ])
        link = VariableLink(sim, schedule, dst=dst)
        link.send(Packet(flow_id=0, seq=0, size=12_500))  # 0.1 s at 1 Mbps
        sim.run(until=0.2)
        assert len(sink) == 1


class TestTraceLink:
    def test_loss_without_rng_rejected(self):
        with pytest.raises(ValueError, match="seeded rng"):
            TraceLink(Simulator(), [0.01], loss_rate=0.01)

    def test_delivers_at_trace_instants(self):
        sim = Simulator()
        sink, dst = collect()
        link = TraceLink(sim, [0.010, 0.020, 0.030], dst=dst, loop=False)
        for i in range(3):
            link.send(Packet(flow_id=0, seq=i))
        times = []
        link.dst = lambda p: times.append(sim.now)
        sim.run()
        assert times == pytest.approx([0.010, 0.020, 0.030])

    def test_empty_queue_wastes_opportunity(self):
        sim = Simulator()
        sink, dst = collect()
        link = TraceLink(sim, [0.01, 0.02, 0.03], dst=dst, loop=False)
        sim.run(until=0.015)  # first opportunity passes with nothing queued
        link.send(Packet(flow_id=0, seq=0))
        sim.run()
        assert link.wasted_opportunities >= 1
        assert len(sink) == 1

    def test_loop_replays_trace(self):
        sim = Simulator()
        sink, dst = collect()
        link = TraceLink(sim, [0.01, 0.02], dst=dst, loop=True)
        for i in range(6):
            link.send(Packet(flow_id=0, seq=i))
        sim.run(until=0.1)
        assert len(sink) == 6

    def test_propagation_delay_added(self):
        sim = Simulator()
        times = []
        link = TraceLink(sim, [0.010], delay=0.05, loop=False,
                         dst=lambda p: times.append(sim.now))
        link.send(Packet(flow_id=0, seq=0))
        sim.run()
        assert times == pytest.approx([0.060])

    def test_opportunity_respects_byte_budget(self):
        """A 1400 B opportunity cannot carry a 2000 B packet."""
        sim = Simulator()
        sink, dst = collect()
        link = TraceLink(sim, [0.01, 0.02], dst=dst, loop=False,
                         bytes_per_opportunity=1400)
        link.send(Packet(flow_id=0, seq=0, size=2000))
        sim.run()
        assert len(sink) == 0  # never fits

    def test_small_packets_share_opportunity(self):
        sim = Simulator()
        sink, dst = collect()
        link = TraceLink(sim, [0.01], dst=dst, loop=False,
                         bytes_per_opportunity=1400)
        for i in range(3):
            link.send(Packet(flow_id=0, seq=i, size=400))
        sim.run()
        assert len(sink) == 3  # 1200 B fits in one 1400 B slot

    def test_average_rate(self):
        link = TraceLink(Simulator(), np.arange(1, 101) * 0.001,
                         dst=lambda p: None, bytes_per_opportunity=1400)
        # 100 packets over one replay cycle of 100 ms (t=0 .. last)
        expected = 100 * 1400 * 8 / 0.100
        assert link.average_rate_bps() == pytest.approx(expected)

    def test_loop_seam_has_no_dead_span(self):
        """Regression: a trace cut from mid-capture (large first
        timestamp) must loop as a continuation — the next cycle starts
        gap_s after the last opportunity, not after replaying the
        lead-in.  Previously each loop stalled for ~first-timestamp
        seconds, silently lowering the looped rate."""
        sim = Simulator()
        sink, dst = collect()
        trace = [0.500, 0.510, 0.520]   # 20 ms of activity, 500 ms in
        link = TraceLink(sim, trace, dst=dst, loop=True)
        for i in range(30):
            link.send(Packet(flow_id=0, seq=i))
        # 10 cycles of period 0.021 s: all 30 delivered by 0.5 + 9*0.021
        # + 0.020; the old span (0.52 + 0.5) would deliver only 3.
        sim.run(until=0.8)
        assert len(sink) == 30

    def test_looped_rate_matches_average_rate(self):
        """The measured looped delivery rate equals average_rate_bps
        regardless of the trace's absolute start time."""
        sim = Simulator()
        sink, dst = collect()
        trace = np.array([0.300, 0.310, 0.320, 0.330])
        link = TraceLink(sim, trace, dst=dst, loop=True,
                         bytes_per_opportunity=1400)
        cycles = 50
        for i in range(4 * cycles):
            link.send(Packet(flow_id=0, seq=i, size=1400))
        sim.run(until=trace[0] + cycles * link._loop_period())
        elapsed = sim.now - trace[0]
        measured = len(sink) * 1400 * 8 / elapsed
        assert measured == pytest.approx(link.average_rate_bps(), rel=0.05)

    def test_replay_schedule_is_the_trace_as_floats(self):
        """The memoryview schedule yields exactly ``times.tolist()``:
        the same doubles, as Python floats, element for element."""
        times = np.cumsum(np.random.default_rng(3).exponential(0.001, 500))
        link = TraceLink(Simulator(), times, dst=lambda p: None)
        expected = times.tolist()
        got = [link._times_view[i] for i in range(link._n)]
        assert link._n == len(expected)
        assert all(type(x) is float for x in got)
        assert got == expected

    def test_rejects_unsorted_trace(self):
        with pytest.raises(ValueError):
            TraceLink(Simulator(), [0.02, 0.01])

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            TraceLink(Simulator(), [])

    def test_stochastic_loss(self):
        sim = Simulator()
        sink, dst = collect()
        link = TraceLink(sim, np.arange(1, 1001) * 0.001, dst=dst,
                         loop=False, loss_rate=0.3,
                         rng=np.random.default_rng(5))
        for i in range(1000):
            link.send(Packet(flow_id=0, seq=i))
        sim.run()
        assert 600 < len(sink) < 800
