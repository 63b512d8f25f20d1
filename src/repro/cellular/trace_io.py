"""Reading and writing delivery-opportunity traces.

Traces use the Mahimahi/Sprout text convention: one integer per line, the
millisecond timestamp of a delivery opportunity (repeated timestamps mean
multiple packet slots in the same millisecond).  This keeps generated
synthetic traces interchangeable with real recorded traces.

:mod:`repro.traces.formats` builds on these primitives with multi-format
readers/writers (mahimahi / newline-seconds / CSV rate series) and
lossless conversion; this module stays the minimal dependency-free core
the simulator and live emulator load traces through.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Union

import numpy as np

PathLike = Union[str, os.PathLike]


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


def save_trace(path: PathLike, times_s: np.ndarray) -> None:
    """Write a trace (seconds) to a Mahimahi-style millisecond file."""
    arr = np.asarray(times_s, dtype=float)
    validate_times(arr, str(path))
    ms = np.round(arr * 1000.0).astype(np.int64)
    Path(path).write_text("\n".join(str(int(v)) for v in ms) + "\n")


def load_trace(path: PathLike) -> np.ndarray:
    """Read a Mahimahi-style millisecond trace into seconds."""
    text = Path(path).read_text()
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            # Reject float-looking lines too: "nan", "1.5", "inf" are all
            # format violations for the integer-millisecond convention.
            raise TraceFormatError(
                f"{path}: bad trace line {line_no}: {line!r}") from None
        if not math.isfinite(value):  # pragma: no cover - int() is finite
            raise TraceFormatError(
                f"{path}: non-finite timestamp on line {line_no}")
        values.append(value)
    arr = np.asarray(values, dtype=float) / 1000.0
    validate_times(arr, str(path))
    return arr


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
