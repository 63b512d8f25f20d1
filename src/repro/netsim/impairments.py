"""Path impairments for robustness testing: jitter, reordering, duplication.

§5.2 of the paper specifies how Verus deals with packet reordering (a
3 × delay timer per missing sequence number before declaring a loss).
These wrappers inject the pathologies that machinery must survive; the
failure-injection tests drive every protocol through them.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .engine import Simulator
from .packet import Packet

Destination = Callable[[Packet], None]


class JitterLink:
    """Adds random per-packet delay on top of a base delay.

    Because each packet draws an independent extra delay, packets can
    overtake each other — this is the canonical reordering generator.

    ``rng`` is required: derive it from the scenario/flow seed (e.g. via
    ``SeedSequence.spawn``) so each link in a topology gets its own
    stream and every run can be replayed.
    """

    def __init__(self, sim: Simulator, base_delay: float,
                 jitter: float, dst: Optional[Destination] = None,
                 *, rng: np.random.Generator):
        if base_delay < 0 or jitter < 0:
            raise ValueError("delays must be non-negative")
        self.sim = sim
        self.base_delay = base_delay
        self.jitter = jitter
        self.dst = dst
        self.rng = rng

    def send(self, packet: Packet) -> None:
        if self.dst is None:
            raise RuntimeError("JitterLink has no destination attached")
        delay = self.base_delay + float(self.rng.uniform(0.0, self.jitter))
        self.sim.call_later(delay, self.dst, packet)


class ReorderingLink:
    """Deterministically swaps every Nth packet with its successor.

    Unlike :class:`JitterLink` the amount of reordering is exact, which
    makes assertions about spurious-loss behaviour reproducible.
    """

    def __init__(self, sim: Simulator, delay: float, every_n: int = 10,
                 hold_time: float = 0.005,
                 dst: Optional[Destination] = None):
        if every_n < 2:
            raise ValueError("every_n must be at least 2")
        if delay < 0 or hold_time <= 0:
            raise ValueError("delay must be >= 0 and hold_time > 0")
        self.sim = sim
        self.delay = delay
        self.every_n = every_n
        self.hold_time = hold_time
        self.dst = dst
        self._count = 0
        self.reordered = 0

    def send(self, packet: Packet) -> None:
        if self.dst is None:
            raise RuntimeError("ReorderingLink has no destination attached")
        self._count += 1
        if self._count % self.every_n == 0:
            # Hold this packet back past its successors.
            self.reordered += 1
            self.sim.call_later(self.delay + self.hold_time, self.dst, packet)
        else:
            self.sim.call_later(self.delay, self.dst, packet)


class DuplicatingLink:
    """Duplicates every Nth packet (stale-ACK / dup-delivery injection)."""

    def __init__(self, sim: Simulator, delay: float, every_n: int = 20,
                 dst: Optional[Destination] = None):
        if every_n < 1:
            raise ValueError("every_n must be at least 1")
        self.sim = sim
        self.delay = delay
        self.every_n = every_n
        self.dst = dst
        self._count = 0
        self.duplicated = 0

    def send(self, packet: Packet) -> None:
        if self.dst is None:
            raise RuntimeError("DuplicatingLink has no destination attached")
        self._count += 1
        self.sim.call_later(self.delay, self.dst, packet)
        if self._count % self.every_n == 0:
            self.duplicated += 1
            self.sim.call_later(self.delay + 0.0001, self.dst, packet)
