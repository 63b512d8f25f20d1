"""Unit and property tests for the queue disciplines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import CoDelQueue, DropTailQueue, Packet, REDQueue


def make_packet(seq=0, size=1400):
    return Packet(flow_id=0, seq=seq, size=size)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue()
        for i in range(5):
            assert q.push(make_packet(seq=i), now=0.0)
        assert [q.pop(0.0).seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_pop_empty_returns_none(self):
        assert DropTailQueue().pop(0.0) is None

    def test_capacity_enforced_in_bytes(self):
        q = DropTailQueue(capacity_bytes=3000)
        assert q.push(make_packet(0, 1400), 0.0)
        assert q.push(make_packet(1, 1400), 0.0)
        assert not q.push(make_packet(2, 1400), 0.0)  # 4200 > 3000
        assert q.stats.dropped == 1

    def test_byte_count_tracks_contents(self):
        q = DropTailQueue()
        q.push(make_packet(0, 1000), 0.0)
        q.push(make_packet(1, 500), 0.0)
        assert q.bytes == 1500
        q.pop(0.0)
        assert q.bytes == 500

    def test_unbounded_by_default(self):
        q = DropTailQueue()
        for i in range(10_000):
            assert q.push(make_packet(i), 0.0)
        assert len(q) == 10_000

    def test_enqueue_time_stamped(self):
        q = DropTailQueue()
        pkt = make_packet()
        q.push(pkt, now=3.25)
        assert pkt.enqueue_time == 3.25

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)

    def test_peek_does_not_remove(self):
        q = DropTailQueue()
        q.push(make_packet(7), 0.0)
        assert q.peek().seq == 7
        assert len(q) == 1

    def test_clear(self):
        q = DropTailQueue()
        q.push(make_packet(), 0.0)
        q.clear()
        assert len(q) == 0 and q.bytes == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(40, 9000), min_size=1, max_size=60))
    def test_property_conservation(self, sizes):
        """enqueued == dequeued + still-queued, in packets and bytes."""
        q = DropTailQueue(capacity_bytes=20_000)
        for i, size in enumerate(sizes):
            q.push(make_packet(i, size), 0.0)
        popped = 0
        while q.pop(0.0) is not None:
            popped += 1
        stats = q.stats
        assert stats.enqueued == popped
        assert stats.enqueued + stats.dropped == len(sizes)
        assert stats.bytes_enqueued == stats.bytes_dequeued


class TestRed:
    def test_paper_config_thresholds(self):
        q = REDQueue.paper_config(np.random.default_rng(0))
        assert q.min_th == 3_000_000 // 8
        assert q.max_th == 9_000_000 // 8
        assert q.max_p == 0.1

    def test_no_drops_below_min_threshold(self):
        q = REDQueue(min_th_bytes=100_000, max_th_bytes=300_000,
                     rng=np.random.default_rng(1))
        for i in range(50):  # 70 KB < min threshold
            assert q.push(make_packet(i), float(i) * 0.001)
        assert q.stats.dropped == 0

    def test_drops_under_sustained_overload(self):
        q = REDQueue(min_th_bytes=20_000, max_th_bytes=60_000,
                     max_p=0.1, rng=np.random.default_rng(2))
        accepted = 0
        for i in range(2000):
            if q.push(make_packet(i), 0.0):
                accepted += 1
        assert q.stats.dropped > 0
        assert accepted < 2000

    def test_average_tracks_queue_growth(self):
        q = REDQueue(min_th_bytes=50_000, max_th_bytes=150_000,
                     rng=np.random.default_rng(3))
        for i in range(100):
            q.push(make_packet(i), 0.0)
        assert q.avg > 0

    def test_idle_decay_reduces_average(self):
        q = REDQueue(min_th_bytes=10_000, max_th_bytes=50_000,
                     rng=np.random.default_rng(4))
        for i in range(30):
            q.push(make_packet(i), 0.0)
        while q.pop(1.0) is not None:
            pass
        avg_before = q.avg
        q.push(make_packet(99), 10.0)  # long idle gap
        assert q.avg < avg_before

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            REDQueue(min_th_bytes=100, max_th_bytes=100,
                     rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            REDQueue(min_th_bytes=100, max_th_bytes=200, max_p=0.0,
                     rng=np.random.default_rng(0))

    def test_hard_capacity_default(self):
        q = REDQueue(min_th_bytes=1000, max_th_bytes=2000,
                     rng=np.random.default_rng(0))
        assert q.capacity_bytes == 4000

    def test_deterministic_with_seeded_rng(self):
        def run(seed):
            q = REDQueue(min_th_bytes=10_000, max_th_bytes=30_000,
                         rng=np.random.default_rng(seed))
            return [q.push(make_packet(i), 0.0) for i in range(200)]
        assert run(7) == run(7)


class TestCoDel:
    def test_no_drops_at_low_delay(self):
        q = CoDelQueue(target=0.005, interval=0.1)
        now = 0.0
        for i in range(100):
            q.push(make_packet(i), now)
            pkt = q.pop(now + 0.001)  # 1 ms sojourn < 5 ms target
            assert pkt is not None
            now += 0.002
        assert q.stats.dropped == 0

    def test_drops_after_sustained_high_delay(self):
        q = CoDelQueue(target=0.005, interval=0.05)
        # Fill the queue, then drain slowly so sojourn stays high.
        for i in range(500):
            q.push(make_packet(i), float(i) * 0.0001)
        now = 1.0
        drained = 0
        while True:
            pkt = q.pop(now)
            if pkt is None:
                break
            drained += 1
            now += 0.01
        assert q.stats.dropped > 0
        assert drained + q.stats.dropped == 500

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CoDelQueue(target=0.0)
