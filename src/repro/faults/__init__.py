"""Declarative fault injection compiled onto both backends.

One :class:`FaultSchedule` describes the hostile channel — outages,
burst loss, corruption, duplication, reordering storms, link flaps,
clock jumps — and compiles sim-side to a composable
:class:`FaultInjector` link (passed as
``run_trace_contention(..., faults=schedule)``) and live-side to
injection hooks in the UDP emulator, so the same scenario stresses the
simulator and the real-socket path identically.  The chaos acceptance
matrix (``repro chaos``) is a grid of
:class:`~repro.campaign.spec.TaskSpec` cells with a ``fault`` and a
``backend`` axis, run through the campaign executor; each cell is judged
on post-disruption recovery by :func:`recovery_verdict`.
"""

from .chaos import (
    chaos_warmup,
    disruption_window,
    recovery_rows,
    recovery_verdict,
)
from .injector import FaultInjector, FaultStats
from .spec import (
    BACKENDS,
    DIRECTIONS,
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultEvent,
    FaultSchedule,
    make_schedule,
)

__all__ = [
    "BACKENDS",
    "DIRECTIONS",
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultStats",
    "chaos_warmup",
    "disruption_window",
    "make_schedule",
    "recovery_rows",
    "recovery_verdict",
]
