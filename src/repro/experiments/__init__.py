"""Experiment harness: one entry point per paper figure/table.

The figure modules (``channel_study``, ``profile_study``, ``macro``,
``tracedriven``, ``micro``, ``sensitivity``, ``short_flows``, ``uplink``,
``landscape``) encode each paper item's workload.  Which entry point
reproduces which paper item, with its quoted claim and shape checks, is
recorded in one place: :data:`repro.experiments.registry.ITEMS`.  The
registry is imported on demand (``repro run``, ``repro report``), not by
this package.
"""

from . import (
    channel_study,
    macro,
    micro,
    profile_study,
    sensitivity,
    short_flows,
    tracedriven,
    uplink,
)
from .report import format_series, format_table
from .runner import (
    PROTOCOL_NAMES,
    ExperimentResult,
    FlowSpec,
    make_endpoints,
    repeat_flows,
    run_fixed_dumbbell,
    run_trace_contention,
    run_variable_dumbbell,
    summary_stats,
)

__all__ = [
    "ExperimentResult",
    "FlowSpec",
    "PROTOCOL_NAMES",
    "channel_study",
    "format_series",
    "format_table",
    "macro",
    "make_endpoints",
    "micro",
    "profile_study",
    "repeat_flows",
    "run_fixed_dumbbell",
    "run_trace_contention",
    "run_variable_dumbbell",
    "sensitivity",
    "short_flows",
    "summary_stats",
    "tracedriven",
    "uplink",
]
