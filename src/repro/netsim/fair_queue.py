"""Deficit-round-robin fair queueing (per-flow queues).

§3 of the paper notes that "the cellular scheduler maintains separate
queues for each user" (and then shows contention still couples users
through the shared radio resource).  The trace-driven evaluation uses a
single shared RED queue; this discipline provides the per-flow
alternative so the modelling choice can be ablated: with DRR, one flow's
bufferbloat no longer adds queueing delay to its neighbours, but the
radio scheduler's capacity is still shared.

Implements Shreedhar & Varghese's Deficit Round Robin with a per-flow
byte quantum and per-flow drop-tail capacity.  The interface matches
:class:`~repro.netsim.queues.DropTailQueue` (push/pop/peek/bytes), so it
drops into any link type.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional

from .packet import Packet
from .queues import QueueStats


class DRRQueue:
    """Deficit Round Robin across per-flow FIFO queues."""

    def __init__(self, quantum_bytes: int = 1400,
                 per_flow_capacity_bytes: Optional[int] = None):
        if quantum_bytes <= 0:
            raise ValueError("quantum must be positive")
        if per_flow_capacity_bytes is not None and per_flow_capacity_bytes <= 0:
            raise ValueError("per-flow capacity must be positive")
        self.quantum = quantum_bytes
        self.per_flow_capacity = per_flow_capacity_bytes
        self._queues: "OrderedDict[int, Deque[Packet]]" = OrderedDict()
        self._deficits: Dict[int, int] = {}
        self._flow_bytes: Dict[int, int] = {}
        self._bytes = 0
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    def push(self, packet: Packet, now: float) -> bool:
        flow = packet.flow_id
        if (self.per_flow_capacity is not None
                and self._flow_bytes.get(flow, 0) + packet.size
                > self.per_flow_capacity):
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size
            return False
        if flow not in self._queues:
            self._queues[flow] = deque()
            self._deficits[flow] = 0
        packet.enqueue_time = now
        self._queues[flow].append(packet)
        self._flow_bytes[flow] = self._flow_bytes.get(flow, 0) + packet.size
        self._bytes += packet.size
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size
        return True

    def pop(self, now: float) -> Optional[Packet]:
        """Serve the next packet under DRR scheduling."""
        if self._bytes == 0:
            return None
        # At most two full rounds are needed: one to refill deficits, one
        # to find a servable head (every non-empty queue's head becomes
        # servable once its deficit accrues a quantum ≥ its size... loop
        # until some head fits; bounded because deficits grow each round).
        for _ in range(16 * max(1, len(self._queues))):
            flow, queue = next(iter(self._queues.items()))
            if not queue:
                # Empty queue leaves the active list and forfeits deficit.
                del self._queues[flow]
                self._deficits.pop(flow, None)
                self._flow_bytes.pop(flow, None)
                continue
            head = queue[0]
            if self._deficits[flow] >= head.size:
                self._deficits[flow] -= head.size
                queue.popleft()
                self._flow_bytes[flow] -= head.size
                self._bytes -= head.size
                self.stats.dequeued += 1
                self.stats.bytes_dequeued += head.size
                # Keep the flow at the head of the round while it has
                # deficit; it rotates once its deficit is exhausted.
                if not queue or self._deficits[flow] < queue[0].size:
                    self._rotate(flow, refill=False)
                return head
            self._rotate(flow, refill=True)
        return None   # pragma: no cover - defensive bound

    def _rotate(self, flow: int, refill: bool) -> None:
        queue = self._queues.pop(flow)
        if queue:
            self._queues[flow] = queue
            if refill:
                self._deficits[flow] += self.quantum
        else:
            self._deficits.pop(flow, None)
            self._flow_bytes.pop(flow, None)

    # ------------------------------------------------------------------
    def peek(self) -> Optional[Packet]:
        for queue in self._queues.values():
            if queue:
                return queue[0]
        return None

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def bytes(self) -> int:
        return self._bytes

    def flow_backlog(self, flow_id: int) -> int:
        """Bytes currently queued for one flow."""
        return self._flow_bytes.get(flow_id, 0)

    def active_flows(self) -> int:
        return sum(1 for q in self._queues.values() if q)

    def clear(self) -> None:
        self._queues.clear()
        self._deficits.clear()
        self._flow_bytes.clear()
        self._bytes = 0
