"""Named meters: counters and gauges.

The registry is the accumulation side of the observability subsystem:
:meth:`~repro.obs.timeline.TelemetrySession.finalize` folds end-of-run
engine statistics into it, and a JSON-safe :meth:`MeterRegistry.snapshot`
comes out.  Telemetry summaries and crash bundles carry that snapshot.
"""

from __future__ import annotations

from typing import Dict, Optional

SNAPSHOT_SCHEMA = "repro.meters/1"


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-written value plus its running min/max envelope."""

    __slots__ = ("value", "min", "max", "updates")

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.updates += 1

    def to_dict(self) -> dict:
        return {"value": self.value, "min": self.min, "max": self.max,
                "updates": self.updates}


class MeterRegistry:
    """Get-or-create registry of named meters (dotted names such as
    ``engine.events``); one name holds one meter type."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        meter = self._counters.get(name)
        if meter is None:
            self._check_name(name)
            meter = self._counters[name] = Counter()
        return meter

    def gauge(self, name: str) -> Gauge:
        meter = self._gauges.get(name)
        if meter is None:
            self._check_name(name)
            meter = self._gauges[name] = Gauge()
        return meter

    def _check_name(self, name: str) -> None:
        if not name:
            raise ValueError("meter name must be non-empty")
        if name in self._counters or name in self._gauges:
            raise ValueError(f"meter {name!r} already registered "
                             f"with a different type")

    def snapshot(self) -> dict:
        """JSON-safe snapshot of every meter (sorted names)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {k: self._counters[k].to_dict()
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].to_dict()
                       for k in sorted(self._gauges)},
        }
