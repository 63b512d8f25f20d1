"""The delivery-opportunity trace contract and trace arithmetic.

A trace is a sorted array of second timestamps, one per delivery
opportunity (repeats mean several packet slots at the same instant).
:mod:`repro.traces.formats` reads and writes trace files on top of the
checks here; :func:`~repro.traces.formats.read_trace_seconds` loads any
supported file into the array the simulator and live emulator take.
"""

from __future__ import annotations

import numpy as np


class TraceFormatError(ValueError):
    """A trace file or array violates the delivery-opportunity contract.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; raised for malformed lines, NaN or negative
    timestamps and unsorted sequences — each of which would otherwise
    produce a silently misbehaving :class:`~repro.netsim.trace_link.TraceLink`.
    """


def validate_times(arr: np.ndarray, origin: str) -> None:
    """Reject NaN / negative / unsorted second timestamps with a clear
    error naming ``origin``."""
    if arr.ndim != 1:
        raise TraceFormatError(f"{origin}: trace must be one-dimensional")
    if arr.size == 0:
        return
    if np.any(np.isnan(arr)):
        raise TraceFormatError(f"{origin}: trace contains NaN timestamps")
    if arr[0] < 0:
        raise TraceFormatError(f"{origin}: trace timestamps must be "
                               f"non-negative (first is {arr[0]!r})")
    if np.any(np.diff(arr) < 0):
        raise TraceFormatError(f"{origin}: trace timestamps are not sorted")


def concatenate_traces(*traces: np.ndarray, gap_s: float = 0.001) -> np.ndarray:
    """Join traces back to back, shifting each to follow the previous one."""
    parts = []
    offset = 0.0
    for trace in traces:
        arr = np.asarray(trace, dtype=float)
        if arr.size == 0:
            continue
        parts.append(arr - arr[0] + offset)
        offset = parts[-1][-1] + gap_s
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def scale_trace(times_s: np.ndarray, factor: float) -> np.ndarray:
    """Speed a trace up (< 1) or slow it down (> 1) in time."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    return np.asarray(times_s, dtype=float) * factor
