"""Property tests for the scheduler fast path and the slotted packet.

The engine's tuple fast path (``call_later``/``call_at``) and the
cancellable ``schedule``/``schedule_at`` handles share one heap and one
tie-break counter, so any interleaving must behave exactly like a single
pure-heapq event loop.  These tests drive the :class:`Simulator` with
Hypothesis-generated interleavings of scheduling, cancellation and run
segments and compare firing order, ``events_processed``, ``now`` and
``pending()`` against a minimal reference model that knows nothing about
Events, corpses or compaction.

The slotted :class:`Packet` and its acknowledgement freelist get the same
treatment: for arbitrary field values and arbitrary acquire/release
sequences, a pooled ACK must be indistinguishable from a fresh one.

The Verus sender's incremental §5.2 gap-timer arming (a high-water mark
plus a heap of disarmed sequences) is checked against the full rescan it
replaced: for arbitrary interleavings of sends, in-order, out-of-order
and batched ACKs, clock advances, queued retransmissions and RTOs, both
must arm the same deadlines and hold the same miss-heap entries.
"""

from __future__ import annotations

import heapq
import itertools
import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import sender as sender_module
from repro.core.sender import VerusSender
from repro.netsim import ACK_BYTES, Packet, PacketPool
from repro.netsim.engine import SimulationError, Simulator


# ---------------------------------------------------------------------------
# Reference model: pure heapq, no Event objects, no lazy deletion
# ---------------------------------------------------------------------------
class HeapqReference:
    """The semantics the engine must match, stated as plainly as possible."""

    def __init__(self) -> None:
        self.heap = []  # (time, tiebreak, event_id)
        self.counter = itertools.count()
        self.now = 0.0
        self.processed = 0
        self.fired = []
        self.cancelled = set()
        self.done = set()

    def schedule(self, delay: float, event_id: int) -> None:
        heapq.heappush(self.heap, (self.now + delay, next(self.counter),
                                   event_id))

    def cancel(self, event_id: int) -> None:
        if event_id not in self.done:
            self.cancelled.add(event_id)

    def run(self, until=None) -> None:
        limit = float("inf") if until is None else until
        while self.heap and self.heap[0][0] <= limit:
            time, _, event_id = heapq.heappop(self.heap)
            if event_id in self.cancelled:
                continue
            self.now = time
            self.fired.append(event_id)
            self.done.add(event_id)
            self.processed += 1
        if until is not None and self.now < until:
            self.now = until

    def pending(self) -> int:
        return sum(1 for _, _, eid in self.heap if eid not in self.cancelled)


# Operation alphabet.  Delays/times use a coarse float grid so that equal
# timestamps (the FIFO tie-break case) occur often.
_DELAYS = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("schedule_at"), _DELAYS),
        st.tuples(st.just("call_later"), _DELAYS),
        st.tuples(st.just("call_at"), _DELAYS),
        # Cancel the k-th cancellable handle created so far (mod count).
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run"), _DELAYS),
        st.tuples(st.just("run_all"), st.just(0.0)),
    ),
    min_size=1, max_size=60,
)


class TestSchedulerMatchesHeapqReference:
    @given(ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_interleavings_match_reference(self, ops):
        sim = Simulator()
        ref = HeapqReference()
        fired = []
        handles = []  # (event_id, Event) for cancellable entries
        next_id = itertools.count()

        def make_cb(event_id):
            return lambda: fired.append(event_id)

        for kind, value in ops:
            if kind == "schedule":
                event_id = next(next_id)
                handles.append((event_id,
                                sim.schedule(value, make_cb(event_id))))
                ref.schedule(value, event_id)
            elif kind == "schedule_at":
                event_id = next(next_id)
                when = sim.now + value
                handles.append((event_id,
                                sim.schedule_at(when, make_cb(event_id))))
                ref.schedule(value, event_id)
            elif kind == "call_later":
                event_id = next(next_id)
                sim.call_later(value, make_cb(event_id))
                ref.schedule(value, event_id)
            elif kind == "call_at":
                event_id = next(next_id)
                sim.call_at(sim.now + value, make_cb(event_id))
                ref.schedule(value, event_id)
            elif kind == "cancel":
                if handles:
                    event_id, event = handles[value % len(handles)]
                    event.cancel()
                    ref.cancel(event_id)
            elif kind == "run":
                sim.run(until=sim.now + value)
                ref.run(until=ref.now + value)
            else:  # run_all
                sim.run()
                ref.run()

            # The engine must agree with the reference after every step,
            # not just at the end — corpse bookkeeping and compaction
            # must never be observable.
            assert sim.now == ref.now
            assert sim.events_processed == ref.processed
            assert sim.pending() == ref.pending()
            assert fired == ref.fired

        sim.run()
        ref.run()
        assert fired == ref.fired
        assert sim.events_processed == ref.processed
        assert sim.now == ref.now
        assert sim.pending() == 0 and ref.pending() == 0

    @given(delays=st.lists(_DELAYS, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_mixed_apis_share_fifo_order_at_equal_times(self, delays):
        """schedule and call_later pushed at the same timestamp fire in
        push order, regardless of which API each push used."""
        sim = Simulator()
        fired = []
        for i, delay in enumerate(delays):
            if i % 2 == 0:
                sim.schedule(delay, fired.append, (delay, i))
            else:
                sim.call_later(delay, fired.append, (delay, i))
        sim.run()
        assert fired == sorted(fired)  # time-major, push-order minor

    @given(value=st.floats(max_value=-1e-9, allow_nan=False,
                           allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_negative_delay_rejected_on_both_paths(self, value):
        sim = Simulator()
        for method in (sim.schedule, sim.call_later):
            try:
                method(value, lambda: None)
                raise AssertionError("negative delay accepted")
            except SimulationError:
                pass


# ---------------------------------------------------------------------------
# Slotted Packet + acknowledgement freelist
# ---------------------------------------------------------------------------
_DATA_PACKETS = st.builds(
    Packet,
    flow_id=st.integers(min_value=0, max_value=7),
    seq=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=40, max_value=1500),
    sent_time=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    window_at_send=st.floats(min_value=0.0, max_value=500.0,
                             allow_nan=False),
    retransmission=st.booleans(),
)


class TestPooledAckEquivalence:
    @given(data=_DATA_PACKETS,
           now=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
           ack_seq=st.one_of(st.none(), st.integers(min_value=0,
                                                    max_value=10_000)))
    @settings(max_examples=200, deadline=None)
    def test_pooled_ack_equals_fresh_ack(self, data, now, ack_seq):
        fresh = data.make_ack(now, ack_seq=ack_seq)
        pool = PacketPool()
        first = data.make_ack(now, ack_seq=ack_seq, pool=pool)
        assert first == fresh
        # Dirty the packet thoroughly, release, and re-acquire: recycling
        # must scrub every field back to exactly the fresh-ACK values.
        first.payload = {"stale": True}
        first.ecn = True
        first.enqueue_time = 123.0
        first.echo_sent_time = -1.0
        pool.release(first)
        recycled = data.make_ack(now, ack_seq=ack_seq, pool=pool)
        assert recycled is first
        assert recycled == fresh
        assert pool.allocated == 1 and pool.reused == 1

    @given(seqs=st.lists(st.integers(min_value=0, max_value=50),
                         min_size=1, max_size=120),
           max_size=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_freelist_bounded_and_always_clean(self, seqs, max_size):
        pool = PacketPool(max_size=max_size)
        held = []
        for i, seq in enumerate(seqs):
            data = Packet(flow_id=1, seq=seq, sent_time=float(i),
                          window_at_send=float(seq))
            ack = data.make_ack(float(i) + 0.5, pool=pool)
            assert ack == data.make_ack(float(i) + 0.5)  # fresh reference
            assert ack.size == ACK_BYTES and ack.is_ack
            if i % 3 == 0:
                held.append(ack)  # simulate a path that retains the ACK
            else:
                ack.payload = {"dirt": i}
                pool.release(ack)
                assert ack.payload is None
            assert len(pool) <= max_size
        assert pool.allocated + pool.reused == len(seqs)

    def test_packet_is_unhashable_like_the_dataclass_was(self):
        packet = Packet(flow_id=0, seq=1)
        try:
            hash(packet)
            raise AssertionError("Packet must be unhashable")
        except TypeError:
            pass


# ---------------------------------------------------------------------------
# Verus §5.2 gap timers: incremental arming vs the full rescan
# ---------------------------------------------------------------------------
class FullRescanSender(VerusSender):
    """Reference: §5.2 arming as a rescan of the whole hole on every ACK,
    from ``_next_expected`` up to the acknowledged sequence, capped at
    ``limit`` positions."""

    def __init__(self, flow_id: int, limit: int):
        super().__init__(flow_id)
        self.limit = limit

    def _arm_gap_timers(self, acked_seq: int) -> None:
        if acked_seq <= self._next_expected:
            return
        timeout = self.config.loss_timeout_factor * self.delay_estimator.rtt()
        deadline = self.now + timeout
        upper = min(acked_seq, self._next_expected + self.limit)
        for seq in range(self._next_expected, upper):
            record = self._inflight.get(seq)
            if record is not None and record.miss_deadline is None:
                record.miss_deadline = deadline
                heapq.heappush(self._miss_heap, (deadline, seq))


_PICK = st.integers(min_value=0, max_value=1000)

_SENDER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("transmit"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("send_next"), st.just(0)),
        st.tuples(st.just("ack_in_order"), st.just(0)),
        # Acknowledge the k-th outstanding sequence (mod count): mostly
        # out of order, occasionally the head.
        st.tuples(st.just("ack"), _PICK),
        st.tuples(st.just("ack_batch"), st.lists(_PICK, min_size=1,
                                                 max_size=6)),
        # Advance the clock (epoch ticks fire) and sweep expired timers.
        st.tuples(st.just("advance"),
                  st.integers(min_value=0, max_value=40).map(
                      lambda k: k * 0.005)),
        st.tuples(st.just("queue_rtx"), _PICK),
        # Queue the sequence k past the first hole: with a small scan
        # limit this lands on and around the cap boundary.
        st.tuples(st.just("queue_rtx_near"),
                  st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("rto"), st.just(0)),
    ),
    min_size=1, max_size=60,
)


def _attached(sender: VerusSender):
    sim = Simulator()
    sent = []
    sender.attach(sim, lambda packet: sent.append(
        (packet.seq, packet.retransmission, packet.sent_time)))
    sender.start()
    return sim, sent


def _ack(now: float, seqs) -> Packet:
    ack = Packet(flow_id=0, seq=seqs[-1], is_ack=True, ack_seq=seqs[-1],
                 sent_time=now)
    if len(seqs) > 1:
        ack.payload = {"acked": list(seqs)}
    return ack


class TestIncrementalGapTimersMatchFullRescan:
    @given(ops=_SENDER_OPS, limit=st.sampled_from(
        [2, 5, 16, sender_module.GAP_SCAN_LIMIT]))
    # A queued retransmission inside an already-scanned hole must be
    # re-armed by the next out-of-order ACK ...
    @example(ops=[("transmit", 8), ("ack", 5), ("queue_rtx", 0),
                  ("ack", 6)], limit=16)
    # ... but not when it sits exactly at the scan limit.
    @example(ops=[("transmit", 8), ("ack", 5), ("queue_rtx_near", 2),
                  ("ack", 5)], limit=2)
    @settings(max_examples=300, deadline=None)
    def test_interleavings_match_full_rescan(self, ops, limit):
        with mock.patch.object(sender_module, "GAP_SCAN_LIMIT", limit):
            fast, ref = VerusSender(0), FullRescanSender(0, limit)
            pairs = [_attached(fast), _attached(ref)]
            for kind, value in ops:
                outstanding = sorted(fast._inflight)
                for sender, (sim, _) in zip((fast, ref), pairs):
                    if kind == "transmit":
                        for _ in range(value):
                            sender._transmit_new()
                    elif kind == "send_next":
                        sender._send_next()
                    elif kind == "ack_in_order":
                        sender.on_ack(_ack(sim.now,
                                           [sender._next_expected]))
                    elif kind == "ack" and outstanding:
                        seq = outstanding[value % len(outstanding)]
                        sender.on_ack(_ack(sim.now, [seq]))
                    elif kind == "ack_batch" and outstanding:
                        sender.on_ack(_ack(sim.now, [
                            outstanding[k % len(outstanding)]
                            for k in value]))
                    elif kind == "advance":
                        sim.run(until=sim.now + value)
                        sender._check_missing()
                    elif kind == "queue_rtx" and outstanding:
                        sender._queue_retransmission(
                            outstanding[value % len(outstanding)])
                    elif kind == "queue_rtx_near":
                        sender._queue_retransmission(
                            sender._next_expected + value)
                    elif kind == "rto":
                        sender._last_progress = -math.inf
                        sender._check_rto()

                assert ({seq: rec.miss_deadline
                         for seq, rec in fast._inflight.items()}
                        == {seq: rec.miss_deadline
                            for seq, rec in ref._inflight.items()})
                # Corpses included: compaction is triggered by the heap's
                # length, so the whole multiset must agree, not just the
                # live entries.
                assert sorted(fast._miss_heap) == sorted(ref._miss_heap)
                assert pairs[0][1] == pairs[1][1]  # same packets sent
                assert fast.losses_detected == ref.losses_detected
                assert fast.mode == ref.mode
                if fast._inflight:
                    # _check_rto relies on this to find the oldest packet.
                    assert min(fast._inflight) == fast._next_expected
