"""White-box tests for VerusSender internals: gap timers, retransmission
queue, floor re-base, RTO backoff, probe gating."""

import numpy as np
import pytest

from repro.core import NORMAL, RECOVERY, SLOW_START, VerusConfig, VerusReceiver, VerusSender
from repro.core.sender import GAP_SCAN_LIMIT
from repro.netsim import DelayLine, DropTailQueue, Link, Packet, Simulator


def wire(sender, receiver, rate_bps=10e6, rtt=0.05, queue_bytes=None,
         loss_rate=0.0, seed=0):
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps,
                queue=DropTailQueue(capacity_bytes=queue_bytes),
                loss_rate=loss_rate, rng=np.random.default_rng(seed))
    link.dst = receiver.on_data
    forward = DelayLine(sim, rtt / 2.0, dst=link.send)
    reverse = DelayLine(sim, rtt / 2.0, dst=sender.on_ack)
    sender.attach(sim, forward.send)
    receiver.attach(sim, reverse.send)
    return sim


class TestGapTimers:
    def test_gap_arms_miss_deadline(self):
        sender = VerusSender(0)
        receiver = VerusReceiver(0)
        sim = wire(sender, receiver)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=2.0)
        # Manufacture a gap: ack seq N+2 while N, N+1 outstanding.
        sender.mode = NORMAL
        base = sender._next_seq
        for _ in range(3):
            sender._transmit_new()
        ack = Packet(flow_id=0, seq=base + 2, is_ack=True, ack_seq=base + 2,
                     sent_time=sim.now)
        sender.on_ack(ack)
        assert sender._inflight[base].miss_deadline is not None
        assert sender._inflight[base + 1].miss_deadline is not None

    def test_expired_deadline_declares_loss(self):
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        sim = wire(sender, receiver)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=2.0)
        base = sender._next_seq
        for _ in range(2):
            sender._transmit_new()
        sender._inflight[base].miss_deadline = sim.now - 0.001
        import heapq
        heapq.heappush(sender._miss_heap, (sim.now - 0.001, base))
        losses_before = sender.losses_detected
        sender._check_missing()
        assert sender.losses_detected == losses_before + 1
        assert base in sender._pending_rtx

    def test_gap_wider_than_scan_limit_arms_only_the_first_limit(self):
        """§5.2 arms every missing sequence, but one ACK reaches at most
        GAP_SCAN_LIMIT positions past the first hole; sequences beyond it
        get their timer only as the hole closes and a later out-of-order
        ACK brings them in range."""
        sender = VerusSender(0)
        sim = Simulator()
        sender.attach(sim, lambda packet: None)
        sender.running = True
        sender.mode = NORMAL
        for _ in range(GAP_SCAN_LIMIT + 10):
            sender._transmit_new()

        def ack(seq):
            sender.on_ack(Packet(flow_id=0, seq=seq, is_ack=True,
                                 ack_seq=seq, sent_time=sim.now))

        def armed():
            return {seq for seq, record in sender._inflight.items()
                    if record.miss_deadline is not None}

        ack(GAP_SCAN_LIMIT + 5)
        assert armed() == set(range(GAP_SCAN_LIMIT))
        assert len(sender._miss_heap) == GAP_SCAN_LIMIT
        # Closing the first hole is an in-order ACK and arms nothing.
        ack(0)
        assert armed() == set(range(1, GAP_SCAN_LIMIT))
        # The next out-of-order ACK reaches one sequence further.
        sim.run(until=0.5)
        ack(GAP_SCAN_LIMIT + 6)
        assert armed() == set(range(1, GAP_SCAN_LIMIT + 1))
        assert (sender._inflight[GAP_SCAN_LIMIT].miss_deadline
                > sender._inflight[1].miss_deadline)

    def test_acked_packet_cancels_pending_rtx(self):
        sender = VerusSender(0)
        receiver = VerusReceiver(0)
        sim = wire(sender, receiver)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=2.0)
        base = sender._next_seq
        sender._transmit_new()
        sender._queue_retransmission(base)
        assert base in sender._pending_rtx
        sender.on_ack(Packet(flow_id=0, seq=base, is_ack=True, ack_seq=base,
                             sent_time=sim.now))
        assert base not in sender._pending_rtx


class TestEffectiveInflight:
    def test_pending_rtx_excluded(self):
        sender = VerusSender(0)
        receiver = VerusReceiver(0)
        sim = wire(sender, receiver)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=1.0)
        raw = len(sender._inflight)
        if raw == 0:
            sender._transmit_new()
            raw = 1
        seq = next(iter(sender._inflight))
        sender._queue_retransmission(seq)
        assert sender._effective_inflight() == len(sender._inflight) - 1


class TestFloorRebase:
    def test_rebase_fires_after_pin_duration(self):
        config = VerusConfig(floor_rebase_after=0.05)   # 10 epochs
        sender = VerusSender(0, config)
        receiver = VerusReceiver(0)
        sim = wire(sender, receiver)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=2.0)
        est = sender.delay_estimator
        # Simulate a pinned state: tiny floor, high persistent delay.
        est.rebase_floor(0.001, now=sim.now)
        for _ in range(200):
            est.add_sample(0.5, now=sim.now)
            est.end_epoch()
        floor_before = est.d_min
        sender.mode = NORMAL
        for _ in range(30):
            est.add_sample(0.5, now=sim.now)
            sender._normal_epoch()
        assert est.d_min > floor_before   # the floor was re-based upward

    def test_rebase_disabled_when_configured_off(self):
        config = VerusConfig(floor_rebase_after=None)
        sender = VerusSender(0, config)
        assert sender.config.floor_rebase_after is None

    def test_rebase_floor_validates(self):
        from repro.core import DelayEstimator
        est = DelayEstimator()
        with pytest.raises(ValueError):
            est.rebase_floor(0.0)

    def test_rebase_preserves_lifetime_min(self):
        from repro.core import DelayEstimator
        est = DelayEstimator()
        est.add_sample(0.010, now=0.0)
        est.rebase_floor(0.100, now=1.0)
        assert est.d_min == pytest.approx(0.100)
        assert est.lifetime_min == pytest.approx(0.010)


class TestRtoBackoff:
    def test_backoff_doubles_and_caps(self):
        sender = VerusSender(0)
        receiver = VerusReceiver(0)
        sim = wire(sender, receiver, loss_rate=1.0 - 1e-12, seed=1)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=30.0)
        assert sender.timeouts >= 2
        assert sender._rto_backoff <= 64.0

    def test_ack_resets_backoff(self):
        sender = VerusSender(0)
        receiver = VerusReceiver(0)
        sim = wire(sender, receiver)
        sender._rto_backoff = 16.0
        sim.schedule_at(0.0, sender.start)
        sim.run(until=1.0)
        assert sender._rto_backoff == 1.0


class TestWindowStamps:
    def test_packets_carry_current_window(self):
        sender = VerusSender(0)
        seen = []
        sender.attach(Simulator(), seen.append)
        sender.running = True
        sender.window = 42.0
        sender._transmit_new()
        assert seen[0].window_at_send == 42.0

    def test_retransmission_restamps_window(self):
        sender = VerusSender(0)
        seen = []
        sender.attach(Simulator(), seen.append)
        sender.running = True
        sender.window = 10.0
        sender._transmit_new()
        sender.window = 5.0
        sender._retransmit(seen[0].seq)
        assert seen[1].retransmission
        assert seen[1].window_at_send == 5.0
        assert sender._inflight[seen[0].seq].attempts == 1
