"""Bounded timelines of per-epoch protocol internals.

A :class:`TimelineRecorder` is a duck-typed observer for the
``SenderProtocol.observers`` / ``ReceiverProtocol.observers`` seam: it
captures every control-law event the concrete senders emit — Verus's
per-epoch ``D_est``, ΔD, window and epoch max delay, profile refit
events, Sprout's belief-derived budget, TCP's cwnd trajectory — into a
bounded ring buffer, so a long live session records the recent past at
O(1) memory instead of growing without bound.

:class:`TelemetrySession` bundles the pieces and is the object the
``--telemetry`` CLI flags activate: while a session is current (see
:func:`telemetry`), the experiment runner attaches recorders to every
flow it wires up.  When no session is active the runner pays a single
``is None`` check per experiment, and the protocol hot paths pay one
falsy check per emit point — telemetry off costs nothing measurable.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .meters import MeterRegistry

TIMELINE_SCHEMA = "repro.timeline/1"


class TimelineRecorder:
    """Ring-buffered observer of control-law events.

    Attach to ``sender.observers`` (or ``receiver.observers``).
    :meth:`rows` yields one flat dict per event — ``{"time", "event",
    "source", "flow", **fields}`` — ready for JSONL/CSV export.  Fields
    mirror the emit points exactly; the recorder adds nothing the
    protocol did not report.

    The recording path is deliberately minimal: it appends an
    ``(event, flow, fields)`` tuple into an inlined ring and defers all
    row materialisation (event-name normalisation, source/flow/time
    stamping) to :meth:`rows`.  At per-epoch rates the difference
    between "build the export row now" and "remember what happened"
    is most of the telemetry overhead budget.
    """

    #: Events this recorder understands.  Anything else emitted through
    #: ``notify`` is still captured generically via ``record_event``.
    EVENTS = ("on_epoch", "on_setpoint", "on_loss", "on_window",
              "on_profile_refit", "on_tick", "on_belief")

    def __init__(self, capacity: int = 4096, source: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be positive (got {capacity})")
        self.capacity = capacity
        self.source = source
        self._entries: List[tuple] = []
        self._head = 0              # insertion point once full
        self.appended = 0           # lifetime appends

    # -- generic capture -------------------------------------------------
    def record_event(self, endpoint: Any, event: str,
                     fields: Dict[str, Any]) -> None:
        """Raw fast path ``notify`` prefers over the named handlers: the
        emitter's packed fields dict arrives directly, with no second
        kwargs pack/unpack and no per-event-name attribute lookup.  The
        ring logic is inlined: one less call per event on the hot path.

        ``endpoint.flow_id`` is part of the observer-seam contract for
        recorded endpoints (both protocol base classes carry it)."""
        entry = (event, endpoint.flow_id, fields)
        entries = self._entries
        if len(entries) < self.capacity:
            entries.append(entry)
        else:
            entries[self._head] = entry
            self._head = (self._head + 1) % self.capacity
        self.appended += 1

    # -- observer protocol (duck-typed) ---------------------------------
    # The named handlers exist for symmetry with conformance monitors
    # (and for callers invoking a recorder directly); ``notify`` itself
    # always takes the record_event path above.
    def on_epoch(self, sender, **fields: Any) -> None:
        self.record_event(sender, "on_epoch", fields)

    def on_setpoint(self, sender, **fields: Any) -> None:
        self.record_event(sender, "on_setpoint", fields)

    def on_loss(self, sender, **fields: Any) -> None:
        self.record_event(sender, "on_loss", fields)

    def on_window(self, sender, **fields: Any) -> None:
        self.record_event(sender, "on_window", fields)

    def on_profile_refit(self, sender, **fields: Any) -> None:
        self.record_event(sender, "on_profile_refit", fields)

    def on_tick(self, sender, **fields: Any) -> None:
        self.record_event(sender, "on_tick", fields)

    def on_belief(self, receiver, **fields: Any) -> None:
        self.record_event(receiver, "on_belief", fields)

    # -- access ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def rows(self) -> List[dict]:
        """Materialised rows in append order (oldest retained first).

        This is the cold path: the deferred stamping happens here, in
        place on the stored fields dicts (idempotent, so calling twice
        is fine — emitters hand ownership of the dict to the seam)."""
        ordered = self._entries[self._head:] + self._entries[:self._head]
        source = self.source
        out = []
        for event, flow, fields in ordered:
            fields["event"] = event[3:] if event[:3] == "on_" else event
            fields["source"] = source
            fields["flow"] = flow
            if "time" not in fields:
                fields["time"] = None
            out.append(fields)
        return out

    @property
    def dropped(self) -> int:
        """Entries overwritten by ring wraparound."""
        return self.appended - len(self._entries)


class TelemetrySession:
    """One experiment's worth of telemetry: recorders and meters.

    The session is passive until the experiment runner calls
    :meth:`attach` with the simulator and the flows it wired up; it can
    be attached to several runs (e.g. a repetition loop) and merges
    their numbers.
    """

    def __init__(self, timeline_capacity: int = 4096):
        self.timeline_capacity = timeline_capacity
        self.registry = MeterRegistry()
        self.recorders: List[TimelineRecorder] = []
        self.runs = 0

    # ------------------------------------------------------------------
    def attach(self, sim, senders: Sequence[Any],
               specs: Optional[Sequence[Any]] = None,
               receivers: Sequence[Any] = ()) -> None:
        """Hook recorders onto every flow of one simulation run."""
        self.runs += 1
        for index, sender in enumerate(senders):
            label = ""
            if specs is not None and index < len(specs):
                label = getattr(specs[index], "label", "") or ""
            recorder = TimelineRecorder(capacity=self.timeline_capacity,
                                        source=label)
            sender.observers.append(recorder)
            self.recorders.append(recorder)
        for receiver in receivers:
            observers = getattr(receiver, "observers", None)
            if observers is not None:
                recorder = TimelineRecorder(capacity=self.timeline_capacity,
                                            source="rx")
                observers.append(recorder)
                self.recorders.append(recorder)

    def finalize(self, sim) -> None:
        """Fold end-of-run engine statistics into the meters."""
        self.registry.counter("engine.events").inc(
            getattr(sim, "events_processed", 0))
        self.registry.gauge("engine.sim_seconds").set(getattr(sim, "now", 0.0))

    # ------------------------------------------------------------------
    def rows(self) -> List[dict]:
        """All recorded timeline rows, time-ordered across flows."""
        rows = [row for recorder in self.recorders for row in recorder.rows()]
        rows.sort(key=lambda r: (r.get("time") or 0.0, r.get("source") or "",
                                 r.get("event") or ""))
        return rows

    def dropped(self) -> int:
        return sum(recorder.dropped for recorder in self.recorders)

    def summary(self) -> dict:
        """JSON-safe overview: meters + timeline accounting."""
        return {
            "schema": TIMELINE_SCHEMA,
            "runs": self.runs,
            "timeline_rows": sum(len(r) for r in self.recorders),
            "timeline_dropped": self.dropped(),
            "meters": self.registry.snapshot(),
        }


# ----------------------------------------------------------------------
# Current-session plumbing (what --telemetry toggles)
# ----------------------------------------------------------------------
_ACTIVE: Optional[TelemetrySession] = None


def current_session() -> Optional[TelemetrySession]:
    """The active session, or None (the common, zero-cost case)."""
    return _ACTIVE


@contextmanager
def telemetry(session: Optional[TelemetrySession] = None
              ) -> Iterator[TelemetrySession]:
    """Activate a session for the duration of the block.

    While active, :func:`~repro.experiments.runner.run_trace_contention`
    and friends attach recorders to every flow they build.  Sessions do
    not nest: activating inside an active session raises, because two
    owners of one recorder set cannot both export it coherently.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a telemetry session is already active")
    if session is None:
        session = TelemetrySession()
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None
