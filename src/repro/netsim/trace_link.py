"""Trace-driven link: replays cellular delivery opportunities.

This is the reproduction of the paper's OPNET traffic shaper (§5.3, §6.2):
channel traces recorded from commercial networks "are fed into a traffic
shaper and replayed upon packet arrival".  A trace is a sorted sequence of
timestamps; each timestamp is a *delivery opportunity* that can carry up to
one MTU of queued bytes (the Mahimahi/Sprout convention).  If the queue is
empty, the opportunity is wasted — exactly the property that makes cellular
capacity "use it or lose it" and rewards protocols that keep the pipe
occupied without overfilling the buffer.

Multiple flows share the same ``TraceLink`` through a common queue (the
paper uses a shared RED queue), which is how trace-driven contention
experiments are built.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .engine import Simulator
from .packet import Packet, MTU_BYTES
from .queues import DropTailQueue

Destination = Callable[[Packet], None]


class TraceLink:
    """Delivers queued packets at trace-defined opportunity instants.

    Parameters
    ----------
    opportunities:
        Sorted timestamps (seconds, relative to link start) at which one
        packet-slot of ``bytes_per_opportunity`` bytes becomes available.
    queue:
        Shared queue discipline (e.g. the paper's RED configuration).
    delay:
        Fixed one-way propagation/core-network delay added after the radio
        scheduler releases a packet.
    loop:
        Replay the trace cyclically when the experiment outlives it.
    loss_rate:
        Independent stochastic loss applied per delivered packet, modelling
        residual losses after link-layer retransmission; needs ``rng``.
    gap_s:
        Continuation gap inserted at the trace-wraparound seam: when the
        trace repeats, the first opportunity of the next cycle follows the
        last of the previous one by ``gap_s``, regardless of where in its
        own timeline the trace starts.  Without this, a trace whose first
        timestamp is late (e.g. a segment cut from the middle of a longer
        capture) would replay with a dead span equal to that first
        timestamp on every loop, silently lowering the looped rate.
    """

    def __init__(self, sim: Simulator, opportunities: Sequence[float],
                 queue: Optional[DropTailQueue] = None,
                 dst: Optional[Destination] = None,
                 delay: float = 0.0,
                 bytes_per_opportunity: int = MTU_BYTES,
                 loop: bool = True,
                 loss_rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 gap_s: float = 0.001,
                 name: str = "tracelink"):
        times = np.asarray(opportunities, dtype=float)
        if times.size == 0:
            raise ValueError("trace must contain at least one opportunity")
        if np.any(np.diff(times) < 0):
            raise ValueError("trace timestamps must be sorted")
        if times[0] < 0:
            raise ValueError("trace timestamps must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1) (got {loss_rate})")
        if loss_rate > 0.0 and rng is None:
            raise ValueError("a stochastic loss rate needs a seeded rng")
        if gap_s <= 0:
            raise ValueError(f"gap_s must be positive (got {gap_s})")
        self.sim = sim
        self.times = times
        self.queue = queue if queue is not None else DropTailQueue()
        self.dst = dst
        self.delay = float(delay)
        self.bytes_per_opportunity = int(bytes_per_opportunity)
        self.loop = loop
        self.loss_rate = float(loss_rate)
        self.rng = rng
        self.gap_s = float(gap_s)
        self.name = name
        self._origin = sim.now
        self._index = 0
        self._cycle = 0
        # Per-opportunity schedule math, precomputed once: a memoryview
        # of the trace timestamps (indexing it yields a Python float with
        # the numpy element's exact double, without a per-element object
        # copy of the whole trace), the loop period, and the current
        # cycle's base offset ``origin + cycle * period``.  The base is
        # recomputed by multiplication at each wraparound — never
        # accumulated — so the instant of opportunity i in cycle c is
        # exactly the value the per-call expression used to produce.
        self._times_view = memoryview(times)
        self._n = times.size
        self._period = float(times[-1] - times[0]) + self.gap_s
        self._cycle_base = self._origin
        self.delivered = 0
        self.bytes_delivered = 0
        self.wasted_opportunities = 0
        self.stochastic_losses = 0
        self._schedule_next()

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Entry point for senders; packets wait for the next opportunity."""
        self.queue.push(packet, self.sim.now)

    # ------------------------------------------------------------------
    def _loop_period(self) -> float:
        """One replay cycle: last-minus-first span plus the seam gap.

        Using the *relative* span means the wraparound behaves like
        :func:`~repro.cellular.trace_io.concatenate_traces` — the next
        cycle continues ``gap_s`` after the last opportunity instead of
        replaying the (possibly large) lead-in before the first one.
        """
        return self._period

    def _next_opportunity_time(self) -> Optional[float]:
        if self._index >= self._n:
            if not self.loop:
                return None
            self._index = 0
            self._cycle += 1
            self._cycle_base = self._origin + self._cycle * self._period
        return self._cycle_base + self._times_view[self._index]

    def _schedule_next(self) -> None:
        when = self._next_opportunity_time()
        if when is None:
            return
        when = max(when, self.sim.now)
        self.sim.call_at(when, self._opportunity)

    def _opportunity(self) -> None:
        self._index += 1
        budget = self.bytes_per_opportunity
        queue = self.queue
        now = self.sim.now
        served_any = False
        while budget > 0:
            head = queue.peek()
            if head is None or head.size > budget:
                break
            packet = queue.pop(now)
            budget -= packet.size
            served_any = True
            self._deliver(packet)
        if not served_any:
            self.wasted_opportunities += 1
        # Inlined _schedule_next: the common case (more opportunities in
        # the current cycle, strictly-future instant) is one memoryview
        # index and one add per event.
        i = self._index
        if i >= self._n:
            if not self.loop:
                return
            self._index = i = 0
            self._cycle += 1
            self._cycle_base = self._origin + self._cycle * self._period
        when = self._cycle_base + self._times_view[i]
        if when < now:
            when = now
        self.sim.call_at(when, self._opportunity)

    def _deliver(self, packet: Packet) -> None:
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.stochastic_losses += 1
            return
        if self.dst is None:
            raise RuntimeError(f"trace link {self.name!r} has no destination")
        self.delivered += 1
        self.bytes_delivered += packet.size
        if self.delay == 0:
            self.dst(packet)
        else:
            self.sim.call_later(self.delay, self.dst, packet)

    # ------------------------------------------------------------------
    def average_rate_bps(self) -> float:
        """Mean capacity the trace offers over one replay cycle.

        Uses the loop period (relative span + seam gap), so a looped
        replay averages exactly this rate regardless of the trace's
        absolute start time.
        """
        period = self._loop_period()
        if period <= 0:
            return float("inf")
        return self.times.size * self.bytes_per_opportunity * 8.0 / period
