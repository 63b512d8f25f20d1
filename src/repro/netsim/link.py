"""Link models: fixed-rate bottlenecks, pure delay lines, and variable links.

Every link is unidirectional.  A link accepts packets via :meth:`send`,
queues them, serialises them at its line rate, applies stochastic loss, and
after a propagation delay hands each packet to ``dst`` — any callable taking
a :class:`~repro.netsim.packet.Packet`.

``VariableLink`` is the reproduction of the paper's micro-evaluation setup
(§7), where Linux ``tc`` re-shapes capacity, RTT and loss every five seconds;
here a :class:`LinkSchedule` applies the same piecewise-constant changes
deterministically inside the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue

Destination = Callable[[Packet], None]


class DelayLine:
    """Infinite-bandwidth link with fixed propagation delay (ACK paths)."""

    def __init__(self, sim: Simulator, delay: float, dst: Optional[Destination] = None):
        if delay < 0:
            raise ValueError(f"delay must be non-negative (got {delay})")
        self.sim = sim
        self.delay = delay
        self.dst = dst

    def send(self, packet: Packet) -> None:
        if self.dst is None:
            raise RuntimeError("DelayLine has no destination attached")
        if self.delay == 0:
            self.dst(packet)
        else:
            self.sim.call_later(self.delay, self.dst, packet)


class Link:
    """Rate-limited store-and-forward link with an attached queue discipline.

    Parameters
    ----------
    rate_bps:
        Line rate in bits per second.
    delay:
        One-way propagation delay in seconds, applied after serialisation.
    queue:
        Queue discipline; defaults to an unbounded drop-tail queue.
    loss_rate:
        Independent per-packet stochastic loss probability, applied at
        dequeue (models the cellular medium's non-congestion losses).
    rng:
        Seeded stream for the loss draws; required when ``loss_rate`` > 0.
    """

    def __init__(self, sim: Simulator, rate_bps: float, delay: float = 0.0,
                 queue: Optional[DropTailQueue] = None,
                 dst: Optional[Destination] = None,
                 loss_rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "link"):
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive (got {rate_bps})")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1) (got {loss_rate})")
        if loss_rate > 0.0 and rng is None:
            raise ValueError("a stochastic loss rate needs a seeded rng")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue()
        self.dst = dst
        self.loss_rate = float(loss_rate)
        self.rng = rng
        self.name = name
        self._busy = False
        self.delivered = 0
        self.bytes_delivered = 0
        self.stochastic_losses = 0

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        accepted = self.queue.push(packet, self.sim.now)
        if accepted and not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        packet = self.queue.pop(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        tx_time = packet.size * 8.0 / self.rate_bps
        self.sim.call_later(tx_time, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.stochastic_losses += 1
        else:
            self._deliver(packet)
        self._start_transmission()

    def _deliver(self, packet: Packet) -> None:
        if self.dst is None:
            raise RuntimeError(f"link {self.name!r} has no destination attached")
        self.delivered += 1
        self.bytes_delivered += packet.size
        if self.delay == 0:
            self.dst(packet)
        else:
            self.sim.call_later(self.delay, self.dst, packet)


@dataclass
class LinkPhase:
    """One segment of a piecewise-constant link schedule."""

    duration: float
    rate_bps: float
    delay: float
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")
        if self.rate_bps <= 0:
            raise ValueError("phase rate must be positive")


class LinkSchedule:
    """A repeating sequence of :class:`LinkPhase` entries.

    :meth:`random_walk` builds the paper's §7 "rapidly changing network":
    every ``period`` seconds capacity, RTT and loss are redrawn uniformly
    from the given ranges.
    """

    def __init__(self, phases: Sequence[LinkPhase], repeat: bool = True):
        if not phases:
            raise ValueError("schedule needs at least one phase")
        self.phases: List[LinkPhase] = list(phases)
        self.repeat = repeat

    @classmethod
    def random_walk(cls, duration: float, period: float,
                    rate_range_bps: Sequence[float],
                    delay_range: Sequence[float],
                    loss_range: Sequence[float],
                    rng: np.random.Generator) -> "LinkSchedule":
        lo_r, hi_r = rate_range_bps
        lo_d, hi_d = delay_range
        lo_l, hi_l = loss_range
        phases = []
        t = 0.0
        while t < duration:
            phases.append(LinkPhase(
                duration=min(period, duration - t),
                rate_bps=float(rng.uniform(lo_r, hi_r)),
                delay=float(rng.uniform(lo_d, hi_d)),
                loss_rate=float(rng.uniform(lo_l, hi_l)),
            ))
            t += period
        return cls(phases, repeat=False)

    def total_duration(self) -> float:
        return sum(p.duration for p in self.phases)


class VariableLink(Link):
    """A :class:`Link` whose rate/delay/loss follow a :class:`LinkSchedule`.

    Reproduces the micro-evaluation substrate the paper drives with
    ``tc``: a dumbbell bottleneck whose parameters jump every few seconds.
    Changes apply to packets serialised after the change (an in-flight
    serialisation completes at the old rate, as with token-bucket shapers).
    """

    def __init__(self, sim: Simulator, schedule: LinkSchedule,
                 queue: Optional[DropTailQueue] = None,
                 dst: Optional[Destination] = None,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "varlink"):
        if rng is None and any(p.loss_rate > 0.0 for p in schedule.phases):
            raise ValueError("a stochastic loss rate needs a seeded rng")
        first = schedule.phases[0]
        super().__init__(sim, first.rate_bps, first.delay, queue=queue,
                         dst=dst, loss_rate=first.loss_rate, rng=rng, name=name)
        self.schedule = schedule
        self._phase_index = 0
        self.condition_changes = 0
        sim.call_later(first.duration, self._advance_phase)

    def set_conditions(self, rate_bps: float, delay: float, loss_rate: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.loss_rate = float(loss_rate)
        self.condition_changes += 1

    def _advance_phase(self) -> None:
        self._phase_index += 1
        if self._phase_index >= len(self.schedule.phases):
            if not self.schedule.repeat:
                return
            self._phase_index = 0
        phase = self.schedule.phases[self._phase_index]
        self.set_conditions(phase.rate_bps, phase.delay, phase.loss_rate)
        self.sim.call_later(phase.duration, self._advance_phase)

    def current_phase(self) -> LinkPhase:
        return self.schedule.phases[self._phase_index]
