"""Declarative fault specifications.

A :class:`FaultSchedule` is a list of timed :class:`FaultEvent` entries
describing the hostile-channel pathologies the paper's §3 motivates
(deep fades, outages, stochastic loss) plus the transport-level ones the
robustness literature adds on top (corruption, duplication, reordering
storms, link flaps, clock jumps).  The schedule is *backend-neutral*:
:mod:`repro.faults.injector` compiles it into a composable impairment
link for the discrete-event simulator and into injection hooks for the
live UDP emulator, so one scenario file stresses both paths identically.

Every event is JSON round-trippable (:meth:`FaultSchedule.to_dict` /
:meth:`from_dict`) so chaos-matrix cells can be content-addressed by the
campaign result store exactly like ordinary sweep cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Fault kinds understood by the injector.
FAULT_KINDS = ("outage", "burst_loss", "corruption", "duplication",
               "reorder", "flap", "clock_jump")

#: Directions an outage/flap can apply to.
DIRECTIONS = ("down", "up", "both")


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.  Which extra fields matter depends on ``kind``:

    ``outage``
        Total blackout over ``[start, start+duration)``; ``direction``
        selects the data path (``down``), the ACK path (``up``) or both.
    ``burst_loss``
        Stochastic loss at probability ``rate`` during the window.
    ``corruption``
        Packets are corrupted at probability ``rate``.  On the live path
        this flips real datagram bits (or truncates), which the hardened
        wire format must reject; in the simulator the corrupted packet is
        discarded at the receiver's NIC, as a checksum failure would be.
    ``duplication``
        Packets are duplicated at probability ``rate``.
    ``reorder``
        Reordering storm: every packet gets an extra uniform random delay
        in ``[0, jitter]``, letting packets overtake each other.
    ``flap``
        Repeating outage: over ``[start, start+duration)`` the link
        cycles with ``period`` seconds per cycle, up for
        ``on_fraction`` of each cycle and dark for the rest.
    ``clock_jump``
        At ``start`` the one-way delay steps by ``offset`` seconds (the
        peer's clock appears to jump); cumulative across events, clamped
        so total extra delay never goes negative.
    """

    kind: str
    start: float
    duration: float = 0.0
    rate: float = 0.0
    jitter: float = 0.0
    direction: str = "down"
    period: float = 0.0
    on_fraction: float = 0.5
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.start < 0:
            raise ValueError("fault start must be non-negative")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.kind != "clock_jump" and self.duration <= 0:
            raise ValueError(f"{self.kind} needs a positive duration")
        if self.kind in ("burst_loss", "corruption", "duplication"):
            if not 0.0 < self.rate <= 1.0:
                raise ValueError(f"{self.kind} rate must be in (0, 1]")
        if self.kind == "reorder" and self.jitter <= 0:
            raise ValueError("reorder storm needs a positive jitter")
        if self.kind == "flap":
            if self.period <= 0 or self.period > self.duration:
                raise ValueError("flap period must be positive and fit "
                                 "inside the episode duration")
            if not 0.0 < self.on_fraction < 1.0:
                raise ValueError("flap on_fraction must be in (0, 1)")
        if self.kind == "clock_jump" and self.offset == 0.0:
            raise ValueError("clock_jump needs a non-zero offset")

    @property
    def end(self) -> float:
        return self.start + self.duration

    # -- convenience constructors --------------------------------------
    @classmethod
    def outage(cls, start: float, duration: float,
               direction: str = "both") -> "FaultEvent":
        return cls("outage", start, duration, direction=direction)

    @classmethod
    def burst_loss(cls, start: float, duration: float,
                   rate: float) -> "FaultEvent":
        return cls("burst_loss", start, duration, rate=rate)

    @classmethod
    def corruption(cls, start: float, duration: float,
                   rate: float) -> "FaultEvent":
        return cls("corruption", start, duration, rate=rate)

    @classmethod
    def duplication(cls, start: float, duration: float,
                    rate: float) -> "FaultEvent":
        return cls("duplication", start, duration, rate=rate)

    @classmethod
    def reorder_storm(cls, start: float, duration: float,
                      jitter: float) -> "FaultEvent":
        return cls("reorder", start, duration, jitter=jitter)

    @classmethod
    def link_flap(cls, start: float, duration: float, period: float,
                  on_fraction: float = 0.5,
                  direction: str = "both") -> "FaultEvent":
        return cls("flap", start, duration, period=period,
                   on_fraction=on_fraction, direction=direction)

    @classmethod
    def clock_jump(cls, at: float, offset: float) -> "FaultEvent":
        return cls("clock_jump", at, offset=offset)

    def to_dict(self) -> dict:
        payload = {"kind": self.kind, "start": self.start}
        if self.kind != "clock_jump":
            payload["duration"] = self.duration
        if self.kind in ("burst_loss", "corruption", "duplication"):
            payload["rate"] = self.rate
        if self.kind == "reorder":
            payload["jitter"] = self.jitter
        if self.kind in ("outage", "flap"):
            payload["direction"] = self.direction
        if self.kind == "flap":
            payload["period"] = self.period
            payload["on_fraction"] = self.on_fraction
        if self.kind == "clock_jump":
            payload["offset"] = self.offset
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        return cls(**payload)


class FaultSchedule:
    """An ordered collection of fault events plus window arithmetic."""

    def __init__(self, events: Sequence[FaultEvent] = ()):  # empty = healthy
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start, e.kind)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FaultSchedule)
                and self.events == other.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(e.kind for e in self.events) or "healthy"
        return f"<FaultSchedule {kinds}>"

    def to_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSchedule":
        return cls([FaultEvent.from_dict(e)
                    for e in payload.get("events", [])])

    # -- window arithmetic ---------------------------------------------
    def windows(self, kind: str,
                direction: str = "down") -> List[Tuple[float, float]]:
        """Active ``[start, end)`` windows for ``kind`` on ``direction``.

        ``flap`` events expand into their individual dark windows and are
        reported under ``kind='outage'`` — downstream code only ever
        needs to know *when the link is dark*, not why.
        """
        out: List[Tuple[float, float]] = []
        for event in self.events:
            if event.kind == kind and kind not in ("outage", "flap"):
                out.append((event.start, event.end))
                continue
            if kind != "outage" or event.kind not in ("outage", "flap"):
                continue
            if direction != "both" and event.direction not in (direction,
                                                               "both"):
                continue
            if event.kind == "outage":
                out.append((event.start, event.end))
            else:   # flap: dark for the tail of every cycle
                t = event.start
                dark = event.period * (1.0 - event.on_fraction)
                while t < event.end:
                    off_start = t + event.period - dark
                    if off_start < event.end:
                        out.append((off_start,
                                    min(off_start + dark, event.end)))
                    t += event.period
        return sorted(out)

    def outage_windows(self, direction: str = "down"
                       ) -> List[Tuple[float, float]]:
        return self.windows("outage", direction)

    def last_outage_end(self, direction: str = "down"):
        """End time of the final dark window, or None if never dark."""
        windows = self.outage_windows(direction)
        return windows[-1][1] if windows else None

    def clock_jumps(self) -> List[Tuple[float, float]]:
        return [(e.start, e.offset) for e in self.events
                if e.kind == "clock_jump"]


# ----------------------------------------------------------------------
# Named presets for the chaos matrix
# ----------------------------------------------------------------------

def _mid(duration: float, span_fraction: float) -> Tuple[float, float]:
    """A fault window of ``span_fraction``×duration centred past warm-up."""
    span = span_fraction * duration
    start = 0.45 * duration
    return start, span


def make_schedule(name: str, duration: float) -> FaultSchedule:
    """Build the named preset scaled to an experiment of ``duration``.

    Presets place their faults after the 40% mark so protocols reach
    steady state first, and always leave the final third of the run
    fault-free so recovery is observable.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    start, span = _mid(duration, 0.15)
    if name == "none":
        return FaultSchedule()
    if name == "blackout":
        return FaultSchedule([FaultEvent.outage(start, span, "both")])
    if name == "uplink_blackout":
        return FaultSchedule([FaultEvent.outage(start, span, "up")])
    if name == "burst_loss":
        return FaultSchedule([FaultEvent.burst_loss(start, 2 * span, 0.3)])
    if name == "corruption":
        return FaultSchedule([FaultEvent.corruption(start, 2 * span, 0.25)])
    if name == "duplication":
        return FaultSchedule([FaultEvent.duplication(start, 2 * span, 0.2)])
    if name == "reorder_storm":
        return FaultSchedule([FaultEvent.reorder_storm(start, 2 * span,
                                                       0.03)])
    if name == "flap":
        period = max(span / 3.0, 0.2)
        return FaultSchedule([FaultEvent.link_flap(start, 2 * span, period,
                                                   on_fraction=0.5)])
    if name == "clock_jump":
        return FaultSchedule([FaultEvent.clock_jump(start, 0.05),
                              FaultEvent.clock_jump(start + span, -0.05)])
    if name == "chaos":
        # The acceptance-matrix scenario: a hard blackout flanked by a
        # corruption window and a reordering storm.
        return FaultSchedule([
            FaultEvent.corruption(0.25 * duration, 0.15 * duration, 0.15),
            FaultEvent.outage(start, span, "both"),
            FaultEvent.reorder_storm(start + span, 0.15 * duration, 0.02),
        ])
    raise ValueError(f"unknown fault schedule {name!r}; "
                     f"choose from {sorted(FAULT_PRESETS)}")


#: Names accepted by :func:`make_schedule` and the ``repro chaos`` CLI.
FAULT_PRESETS = ("none", "blackout", "uplink_blackout", "burst_loss",
                 "corruption", "duplication", "reorder_storm", "flap",
                 "clock_jump", "chaos")

#: Where a cell runs its schedule: the discrete-event simulator or the
#: live UDP loopback emulator.
BACKENDS = ("sim", "live")
