"""Observability: meters, timelines, profilers, benchmarks, export.

The subsystem has two consumers:

* **Telemetry** (``--telemetry`` on ``repro run`` / ``repro sweep``):
  a :class:`TelemetrySession` attaches ring-buffered
  :class:`TimelineRecorder` observers to every flow the experiment
  runner builds, accumulates engine counters into a
  :class:`MeterRegistry`, and exports JSONL/CSV artifacts next to the
  results.
* **Benchmarking** (``repro bench``): the named suite in
  :mod:`repro.obs.bench` emits schema-versioned ``BENCH_<label>.json``
  files with content-hashed workloads, and ``compare`` diffs two files
  against per-benchmark tolerance bands.

Importing :mod:`repro.obs` is cheap and pulls in no simulation modules;
benchmark and profiler workloads import lazily inside their functions.
"""

from .bench import (
    BENCH_SCHEMA,
    BENCHMARKS,
    compare,
    format_compare,
    load_bench,
    regressions,
    run_bench,
    write_bench,
)
from .export import (
    export_meters_json,
    export_timeline_csv,
    export_timeline_jsonl,
    write_session,
)
from .meters import (
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MeterRegistry,
    merge_snapshots,
)
from .profiler import SPANS_SCHEMA, Spans, profile_call, profile_hotpaths
from .timeline import (
    TIMELINE_SCHEMA,
    TelemetrySession,
    TimelineRecorder,
    current_session,
    telemetry,
)

__all__ = [
    "BENCH_SCHEMA",
    "BENCHMARKS",
    "Counter",
    "Gauge",
    "Histogram",
    "MeterRegistry",
    "SNAPSHOT_SCHEMA",
    "SPANS_SCHEMA",
    "Spans",
    "TIMELINE_SCHEMA",
    "TelemetrySession",
    "TimelineRecorder",
    "compare",
    "current_session",
    "export_meters_json",
    "export_timeline_csv",
    "export_timeline_jsonl",
    "format_compare",
    "load_bench",
    "merge_snapshots",
    "profile_call",
    "profile_hotpaths",
    "regressions",
    "run_bench",
    "telemetry",
    "write_bench",
    "write_session",
]
