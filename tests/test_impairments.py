"""Failure-injection tests: reordering, jitter and duplication.

§5.2: "To deal with packet reordering ... for every missing sequence
number Verus creates a timeout timer of 3*delay.  If the missing packet
arrives before the timer expires, no packet loss is identified."
These tests verify that behaviour, and that every protocol survives
impaired paths without collapsing.
"""

import numpy as np
import pytest

from repro.core import VerusConfig, VerusReceiver, VerusSender
from repro.metrics import flow_stats
from repro.netsim import (
    DelayLine,
    DropTailQueue,
    DuplicatingLink,
    JitterLink,
    Link,
    Packet,
    ReorderingLink,
    Simulator,
)
from repro.sprout import SproutReceiver, SproutSender
from repro.tcp import CubicSender, TcpReceiver


def run_impaired(sender, receiver, impairment_factory, rate_bps=10e6,
                 rtt=0.05, duration=30.0):
    """Dumbbell with the impairment inserted after the bottleneck."""
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps, queue=DropTailQueue())
    impairment = impairment_factory(sim)
    impairment.dst = receiver.on_data
    link.dst = impairment.send
    forward = DelayLine(sim, rtt / 2.0, dst=link.send)
    reverse = DelayLine(sim, rtt / 2.0, dst=sender.on_ack)
    sender.attach(sim, forward.send)
    receiver.attach(sim, reverse.send)
    sim.schedule_at(0.0, sender.start)
    sim.run(until=duration)
    return sim


class TestImpairmentPrimitives:
    def test_jitter_link_reorders(self):
        sim = Simulator()
        arrivals = []
        link = JitterLink(sim, base_delay=0.01, jitter=0.02,
                          dst=lambda p: arrivals.append(p.seq),
                          rng=np.random.default_rng(1))
        for seq in range(50):
            sim.schedule_at(seq * 0.001, link.send,
                            Packet(flow_id=0, seq=seq))
        sim.run()
        assert sorted(arrivals) == list(range(50))
        assert arrivals != sorted(arrivals)   # actual reordering occurred

    def test_reordering_link_swaps_every_nth(self):
        sim = Simulator()
        arrivals = []
        link = ReorderingLink(sim, delay=0.01, every_n=3, hold_time=0.005,
                              dst=lambda p: arrivals.append(p.seq))
        for seq in range(9):
            sim.schedule_at(seq * 0.001, link.send,
                            Packet(flow_id=0, seq=seq))
        sim.run()
        assert link.reordered == 3
        assert sorted(arrivals) == list(range(9))
        assert arrivals != list(range(9))

    def test_duplicating_link_duplicates(self):
        sim = Simulator()
        arrivals = []
        link = DuplicatingLink(sim, delay=0.001, every_n=2,
                               dst=lambda p: arrivals.append(p.seq))
        for seq in range(4):
            link.send(Packet(flow_id=0, seq=seq))
        sim.run()
        assert len(arrivals) == 6   # 4 + 2 duplicates
        assert link.duplicated == 2

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            JitterLink(sim, base_delay=-1.0, jitter=0.0,
                       rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            ReorderingLink(sim, delay=0.0, every_n=1)
        with pytest.raises(ValueError):
            DuplicatingLink(sim, delay=0.0, every_n=0)


class TestVerusUnderReordering:
    def test_mild_reordering_is_not_loss(self):
        """Held-back packets arriving within 3×delay must not trigger
        spurious multiplicative decreases."""
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        run_impaired(sender, receiver,
                     lambda sim: ReorderingLink(sim, delay=0.0, every_n=20,
                                                hold_time=0.003))
        assert sender.losses_detected == 0
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.8 * 10e6

    def test_pathological_reordering_survived(self):
        """Holding packets past 3×delay *does* look like loss; Verus must
        still retain usable throughput."""
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        run_impaired(sender, receiver,
                     lambda sim: JitterLink(sim, base_delay=0.0,
                                            jitter=0.06,
                                            rng=np.random.default_rng(3)))
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.3 * 10e6

    def test_duplicate_acks_harmless(self):
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        run_impaired(sender, receiver,
                     lambda sim: DuplicatingLink(sim, delay=0.0, every_n=5))
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.7 * 10e6


class TestTcpUnderImpairment:
    def test_cubic_survives_reordering(self):
        sender = CubicSender(0)
        receiver = TcpReceiver(0)
        run_impaired(sender, receiver,
                     lambda sim: ReorderingLink(sim, delay=0.0, every_n=50,
                                                hold_time=0.002))
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.4 * 10e6

    def test_cubic_survives_duplication(self):
        sender = CubicSender(0)
        receiver = TcpReceiver(0)
        run_impaired(sender, receiver,
                     lambda sim: DuplicatingLink(sim, delay=0.0, every_n=7))
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.5 * 10e6


class TestSproutUnderImpairment:
    def test_sprout_survives_jitter(self):
        sender = SproutSender(0)
        receiver = SproutReceiver(0)
        run_impaired(sender, receiver,
                     lambda sim: JitterLink(sim, base_delay=0.0,
                                            jitter=0.01,
                                            rng=np.random.default_rng(4)))
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.3 * 10e6


class TestLossTimerUnderDuplicationAndStorm:
    """§5.2 loss-timer discipline when duplicates and reordering combine.

    A duplicating link plus a reordering storm is the worst case for the
    3×delay gap timers: held-back packets look missing, then arrive twice.
    Goodput must count each sequence number exactly once — neither the
    link's duplicates nor any spurious retransmission may inflate
    :class:`FlowStats`.
    """

    def _run_chain(self, duration=30.0):
        from repro.faults import FaultEvent, FaultInjector, FaultSchedule

        sim = Simulator()
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
        dup = DuplicatingLink(sim, delay=0.0, every_n=4)
        storm = FaultInjector(
            sim,
            FaultSchedule([FaultEvent.reorder_storm(5.0, 10.0, 0.004)]),
            rng=np.random.default_rng(9))
        link.dst = dup.send
        dup.dst = storm.send
        storm.dst = receiver.on_data
        forward = DelayLine(sim, 0.025, dst=link.send)
        reverse = DelayLine(sim, 0.025, dst=sender.on_ack)
        sender.attach(sim, forward.send)
        receiver.attach(sim, reverse.send)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=duration)
        return sender, receiver, dup, storm

    def test_goodput_counts_each_sequence_once(self):
        sender, receiver, dup, storm = self._run_chain()
        stats = flow_stats(receiver.deliveries)
        seqs = [d[1] for d in receiver.deliveries]
        assert stats.packets_received == len(set(seqs))
        assert stats.packets_received + stats.duplicate_packets == len(seqs)
        # The link really did inject duplicates, and they were tallied
        # out of goodput rather than silently merged into it.
        assert dup.duplicated > 0
        assert stats.duplicate_packets > 0

    def test_storm_delays_within_timer_are_not_losses(self):
        # Storm jitter of 4 ms is far under 3×delay (~150 ms RTT-scale),
        # so the gap timers must reabsorb every late arrival.
        sender, receiver, dup, storm = self._run_chain()
        assert storm.stats.reorder_delays > 0
        assert sender.losses_detected == 0
        assert sender.retransmissions == 0
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.7 * 10e6

    def test_spurious_retransmissions_never_double_count(self):
        # Crank the storm past the 3×delay timers so losses *are*
        # declared and retransmissions race the held originals.
        from repro.faults import FaultEvent, FaultInjector, FaultSchedule

        sim = Simulator()
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
        storm = FaultInjector(
            sim,
            FaultSchedule([FaultEvent.reorder_storm(5.0, 20.0, 0.25)]),
            rng=np.random.default_rng(5))
        link.dst = storm.send
        storm.dst = receiver.on_data
        forward = DelayLine(sim, 0.01, dst=link.send)
        reverse = DelayLine(sim, 0.01, dst=sender.on_ack)
        sender.attach(sim, forward.send)
        receiver.attach(sim, reverse.send)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=30.0)

        assert sender.retransmissions > 0
        stats = flow_stats(receiver.deliveries)
        seqs = [d[1] for d in receiver.deliveries]
        assert stats.packets_received == len(set(seqs))
        assert stats.packets_received + stats.duplicate_packets == len(seqs)
        assert stats.bytes_received == sum(
            {seq: size for _, seq, _, size in receiver.deliveries}.values())
