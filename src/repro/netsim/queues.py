"""Bottleneck queue disciplines.

The paper's trace-driven evaluation (§6.2) shapes all competing flows through
a single shared queue with Random Early Detection (RED) using minimum
threshold 3 Mbit, maximum threshold 9 Mbit, and drop probability 10%.  The
cellular macro experiments rely on deep drop-tail buffers at the base station
(the "bufferbloat" TCP suffers from).  Both disciplines are implemented here,
plus CoDel as an extra ablation baseline (cited as [22] in the paper).

All queues count both packets and bytes, stamp ``enqueue_time`` for queue
delay accounting, and report drop statistics.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

import numpy as np

from .packet import Packet


class QueueStats:
    """Running counters shared by all queue disciplines."""

    __slots__ = ("enqueued", "dequeued", "dropped", "bytes_enqueued",
                 "bytes_dequeued", "bytes_dropped")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.bytes_enqueued = 0
        self.bytes_dequeued = 0
        self.bytes_dropped = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class DropTailQueue:
    """FIFO queue with a byte-capacity bound (classic drop-tail).

    ``capacity_bytes=None`` models the effectively unbounded base-station
    buffers that cause cellular bufferbloat.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive (got {capacity_bytes})")
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()

    def push(self, packet: Packet, now: float) -> bool:
        """Enqueue; returns False (packet dropped) when full."""
        if (self.capacity_bytes is not None
                and self._bytes + packet.size > self.capacity_bytes):
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size
            return False
        packet.enqueue_time = now
        self._queue.append(packet)
        self._bytes += packet.size
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size
        return True

    def pop(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.stats.dequeued += 1
        self.stats.bytes_dequeued += packet.size
        return packet

    def peek(self) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._queue.clear()
        self._bytes = 0


class REDQueue(DropTailQueue):
    """Random Early Detection (Floyd & Jacobson 1993) in byte mode.

    The average queue size is tracked with an EWMA (weight ``w_q``) and
    packets are dropped probabilistically between ``min_th`` and ``max_th``
    bytes, with the standard count-since-last-drop correction that spreads
    drops out evenly.

    :meth:`paper_config` builds the exact configuration used in the paper's
    OPNET traffic shaper: min 3 Mbit, max 9 Mbit, max drop probability 10%.
    """

    def __init__(self, min_th_bytes: int, max_th_bytes: int,
                 max_p: float = 0.1, w_q: float = 0.002,
                 capacity_bytes: Optional[int] = None,
                 *, rng: np.random.Generator) -> None:
        if not 0 < min_th_bytes < max_th_bytes:
            raise ValueError("need 0 < min_th < max_th")
        if not 0 < max_p <= 1:
            raise ValueError(f"max_p must be in (0, 1] (got {max_p})")
        if capacity_bytes is None:
            # Hard limit defaults to twice the max threshold so misbehaving
            # flows cannot grow the queue without bound.
            capacity_bytes = 2 * max_th_bytes
        super().__init__(capacity_bytes=capacity_bytes)
        self.min_th = min_th_bytes
        self.max_th = max_th_bytes
        self.max_p = max_p
        self.w_q = w_q
        self.rng = rng
        self.avg = 0.0
        self._count = -1  # packets since last drop, -1 per RED pseudocode
        self._idle_since: Optional[float] = None
        self.early_drops = 0

    @classmethod
    def paper_config(cls, rng: np.random.Generator,
                     **kwargs) -> "REDQueue":
        """RED queue with the paper's §6.2 parameters (3/9 Mbit, p=0.1)."""
        return cls(min_th_bytes=3_000_000 // 8, max_th_bytes=9_000_000 // 8,
                   max_p=0.1, rng=rng, **kwargs)

    def push(self, packet: Packet, now: float) -> bool:
        self._update_average(now)
        if self.avg >= self.max_th:
            self._count = 0
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size
            self.early_drops += 1
            return False
        if self.avg > self.min_th:
            self._count += 1
            p_b = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
            denom = 1.0 - self._count * p_b
            p_a = p_b / denom if denom > 0 else 1.0
            if self.rng.random() < p_a:
                self._count = 0
                self.stats.dropped += 1
                self.stats.bytes_dropped += packet.size
                self.early_drops += 1
                return False
        else:
            self._count = -1
        return super().push(packet, now)

    def pop(self, now: float) -> Optional[Packet]:
        packet = super().pop(now)
        if packet is not None and not self._queue:
            self._idle_since = now
        return packet

    def _update_average(self, now: float) -> None:
        if self._queue:
            self.avg += self.w_q * (self._bytes - self.avg)
        else:
            # Decay the average while the queue sat idle, as if `m` small
            # packets had drained during the idle period.
            if self._idle_since is not None:
                idle = max(0.0, now - self._idle_since)
                m = idle / 0.001  # transmission-time proxy of 1 ms
                self.avg *= (1.0 - self.w_q) ** min(m, 10_000.0)
            else:
                self.avg *= (1.0 - self.w_q)


class CoDelQueue(DropTailQueue):
    """Controlled Delay AQM (Nichols & Jacobson 2012), simplified.

    Drops from the head once packets have experienced more than ``target``
    sojourn time for at least ``interval``; subsequent drops accelerate with
    the inverse-sqrt control law.  Included as an ablation comparison point —
    the paper cites CoDel as a router-feedback alternative it deliberately
    avoids requiring.
    """

    def __init__(self, target: float = 0.005, interval: float = 0.100,
                 capacity_bytes: Optional[int] = None) -> None:
        super().__init__(capacity_bytes=capacity_bytes)
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be positive")
        self.target = target
        self.interval = interval
        self._first_above: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0

    def pop(self, now: float) -> Optional[Packet]:
        packet = super().pop(now)
        while packet is not None:
            sojourn = now - packet.enqueue_time
            ok = self._control(now, sojourn)
            if ok:
                return packet
            # head drop
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size
            packet = super().pop(now)
        return None

    def _control(self, now: float, sojourn: float) -> bool:
        if sojourn < self.target or self._bytes < 2 * 1400:
            self._first_above = None
            if self._dropping:
                self._dropping = False
            return True
        if self._first_above is None:
            self._first_above = now + self.interval
            return True
        if not self._dropping:
            if now >= self._first_above:
                self._dropping = True
                self._drop_count = max(1, self._drop_count - 2)
                self._drop_next = now + self.interval / math.sqrt(self._drop_count)
                return False
            return True
        if now >= self._drop_next:
            self._drop_count += 1
            self._drop_next = now + self.interval / math.sqrt(self._drop_count)
            return False
        return True
