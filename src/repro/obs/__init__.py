"""Observability: meters, timelines, export.

Its one consumer is **telemetry** (``--telemetry`` on ``repro run`` /
``repro sweep``): a :class:`TelemetrySession` attaches ring-buffered
:class:`TimelineRecorder` observers to every flow the experiment runner
builds, folds end-of-run engine counters into a :class:`MeterRegistry`,
and exports JSONL/CSV artifacts next to the results.

Speed is measured by the repository benchmark, ``perfbench/run.py``:
``--trace 0`` for the end-to-end metrics, ``--trace 1`` for where the
time went, layer by layer (telemetry included, as ``obs.self_s``).

Importing :mod:`repro.obs` is cheap and pulls in no simulation modules.
"""

from .export import (
    export_timeline_csv,
    export_timeline_jsonl,
    write_session,
)
from .meters import SNAPSHOT_SCHEMA, Counter, Gauge, MeterRegistry
from .timeline import (
    TIMELINE_SCHEMA,
    TelemetrySession,
    TimelineRecorder,
    current_session,
    telemetry,
)

__all__ = [
    "Counter",
    "Gauge",
    "MeterRegistry",
    "SNAPSHOT_SCHEMA",
    "TIMELINE_SCHEMA",
    "TelemetrySession",
    "TimelineRecorder",
    "current_session",
    "export_timeline_csv",
    "export_timeline_jsonl",
    "telemetry",
    "write_session",
]
