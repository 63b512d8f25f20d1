"""Declarative fault injection compiled onto both backends.

One :class:`FaultSchedule` describes the hostile channel — outages,
burst loss, corruption, duplication, reordering storms, link flaps,
clock jumps — and compiles sim-side to a composable
:class:`FaultInjector` link (passed as
``run_trace_contention(..., faults=schedule)``) and live-side to
injection hooks in the UDP emulator, so the same scenario stresses the
simulator and the real-socket path identically.  The chaos acceptance matrix
(:func:`run_chaos_matrix`, ``repro chaos``) grids (protocol × fault ×
seed) through the campaign executor and judges every cell on
post-disruption recovery.
"""

from .chaos import (
    BACKENDS,
    ChaosResult,
    ChaosTask,
    disruption_window,
    expand_chaos,
    run_chaos_matrix,
    run_chaos_task,
)
from .injector import FaultInjector, FaultStats
from .spec import (
    DIRECTIONS,
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultEvent,
    FaultSchedule,
    make_schedule,
)

__all__ = [
    "BACKENDS",
    "ChaosResult",
    "ChaosTask",
    "DIRECTIONS",
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultStats",
    "disruption_window",
    "expand_chaos",
    "make_schedule",
    "run_chaos_matrix",
    "run_chaos_task",
]
