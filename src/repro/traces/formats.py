"""Multi-format trace readers/writers with lossless conversion.

The corpus subsystem's canonical in-memory representation is an array of
**integer millisecond timestamps** (sorted, repeats allowed — the
Mahimahi delivery-opportunity convention, 1 ms resolution).  Three
on-disk formats encode it, each round-tripping losslessly:

``mahimahi``
    One integer per line: the millisecond of a delivery opportunity
    (``.pps`` / ``.up`` / ``.down`` in the mahimahi corpora used by the
    C2TCP and Goyal et al. evaluations).
``seconds``
    One float per line: the opportunity timestamp in seconds, written
    with exactly millisecond precision (``0.042``) so parsing recovers
    the integer millisecond bit-exactly.
``csv``
    A rate series: ``time_ms,packets`` rows giving the number of
    delivery opportunities in each (sparse, nonzero) millisecond bin —
    the natural export for spreadsheet/plotting tools, still lossless
    because opportunities are already ms-quantised.

:func:`detect_format` sniffs a file (extension first, then content), so
every consumer — the ``repro corpus`` CLI, the live emulator, ``repro
live --trace`` — accepts any of the three without being told which.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..cellular.trace_io import TraceFormatError, validate_times

PathLike = Union[str, os.PathLike]

#: Supported on-disk formats, in auto-detection preference order.
FORMATS = ("mahimahi", "seconds", "csv")

_EXTENSION_HINTS = {
    ".pps": "mahimahi",
    ".up": "mahimahi",
    ".down": "mahimahi",
    ".csv": "csv",
    ".sec": "seconds",
}

_CSV_HEADER = "time_ms,packets"


# ----------------------------------------------------------------------
# Canonical representation helpers
# ----------------------------------------------------------------------
def as_milliseconds(times_s: np.ndarray) -> np.ndarray:
    """Quantise second-domain timestamps to the canonical ms grid."""
    arr = np.asarray(times_s, dtype=float)
    validate_times(arr, "trace")
    return np.round(arr * 1000.0).astype(np.int64)


def as_seconds(times_ms: np.ndarray) -> np.ndarray:
    """Canonical ms timestamps back to the seconds the simulator uses."""
    return validate_ms(times_ms, "trace").astype(float) / 1000.0


def validate_ms(times_ms: np.ndarray, origin: str = "trace") -> np.ndarray:
    """Check an ms array against the canonical contract, return int64."""
    arr = np.asarray(times_ms)
    if arr.ndim != 1:
        raise TraceFormatError(f"{origin}: trace must be one-dimensional")
    if arr.size == 0:
        return arr.astype(np.int64)
    if np.issubdtype(arr.dtype, np.floating):
        if np.any(np.isnan(arr)):
            raise TraceFormatError(f"{origin}: trace contains NaN timestamps")
        if np.any(arr != np.round(arr)):
            raise TraceFormatError(
                f"{origin}: millisecond timestamps must be integers")
    arr = arr.astype(np.int64)
    if arr[0] < 0:
        raise TraceFormatError(f"{origin}: trace timestamps must be "
                               f"non-negative (first is {int(arr[0])})")
    if np.any(np.diff(arr) < 0):
        raise TraceFormatError(f"{origin}: trace timestamps are not sorted")
    return arr


# ----------------------------------------------------------------------
# Per-format readers/writers (all operate on canonical ms arrays)
# ----------------------------------------------------------------------
def _parse_lines(path: PathLike):
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def read_mahimahi(path: PathLike) -> np.ndarray:
    values = []
    for line_no, line in _parse_lines(path):
        try:
            values.append(int(line))
        except ValueError:
            raise TraceFormatError(
                f"{path}: bad mahimahi line {line_no}: {line!r}") from None
    return validate_ms(np.asarray(values, dtype=np.int64), str(path))


def encode_mahimahi(times_ms: np.ndarray, origin: str = "trace") -> bytes:
    """The mahimahi file bytes: one integer millisecond per line, each
    newline-terminated (``b"\\n"`` for an empty trace).  Corpus traces
    are content-addressed by exactly these bytes."""
    arr = validate_ms(times_ms, origin)
    if arr.size == 0:
        return b"\n"
    return ("%d\n" * arr.size % tuple(arr.tolist())).encode("ascii")


def write_mahimahi(path: PathLike, times_ms: np.ndarray) -> None:
    Path(path).write_bytes(encode_mahimahi(times_ms, str(path)))


def read_seconds(path: PathLike) -> np.ndarray:
    values = []
    for line_no, line in _parse_lines(path):
        try:
            value = float(line)
        except ValueError:
            raise TraceFormatError(
                f"{path}: bad seconds line {line_no}: {line!r}") from None
        if not np.isfinite(value):
            raise TraceFormatError(
                f"{path}: non-finite timestamp on line {line_no}")
        values.append(value)
    arr = np.asarray(values, dtype=float)
    validate_times(arr, str(path))
    return np.round(arr * 1000.0).astype(np.int64)


def write_seconds(path: PathLike, times_ms: np.ndarray) -> None:
    arr = validate_ms(times_ms, str(path))
    lines = [f"{int(v) // 1000}.{int(v) % 1000:03d}" for v in arr]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path: PathLike) -> np.ndarray:
    parts = []
    last_ms = -1
    for line_no, line in _parse_lines(path):
        if line.replace(" ", "") == _CSV_HEADER:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise TraceFormatError(
                f"{path}: bad csv line {line_no}: {line!r} "
                f"(expected '{_CSV_HEADER}')")
        try:
            ms, count = int(fields[0]), int(fields[1])
        except ValueError:
            raise TraceFormatError(
                f"{path}: bad csv line {line_no}: {line!r}") from None
        if count < 0:
            raise TraceFormatError(
                f"{path}: negative packet count on line {line_no}")
        if ms <= last_ms:
            raise TraceFormatError(
                f"{path}: csv bins are not strictly increasing "
                f"(line {line_no})")
        last_ms = ms
        if count:
            parts.append(np.full(count, ms, dtype=np.int64))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return validate_ms(np.concatenate(parts), str(path))


def write_csv(path: PathLike, times_ms: np.ndarray) -> None:
    arr = validate_ms(times_ms, str(path))
    bins, counts = np.unique(arr, return_counts=True)
    lines = [_CSV_HEADER]
    lines.extend(f"{int(ms)},{int(n)}" for ms, n in zip(bins, counts))
    Path(path).write_text("\n".join(lines) + "\n")


_READERS = {"mahimahi": read_mahimahi, "seconds": read_seconds,
            "csv": read_csv}
_WRITERS = {"mahimahi": write_mahimahi, "seconds": write_seconds,
            "csv": write_csv}


# ----------------------------------------------------------------------
# Auto-detection and the uniform entry points
# ----------------------------------------------------------------------
def detect_format(path: PathLike) -> str:
    """Identify a trace file's format by extension, then content.

    Content sniffing looks at the first data line: a comma means csv, a
    decimal point means seconds, otherwise mahimahi integers.
    """
    suffix = Path(path).suffix.lower()
    if suffix in _EXTENSION_HINTS:
        return _EXTENSION_HINTS[suffix]
    for _, line in _parse_lines(path):
        if "," in line:
            return "csv"
        if "." in line or "e" in line.lower():
            return "seconds"
        return "mahimahi"
    # An empty file is a valid (empty) trace in any format.
    return "mahimahi"


def _resolve(fmt: Optional[str], path: PathLike) -> str:
    resolved = fmt if fmt is not None else detect_format(path)
    if resolved not in FORMATS:
        raise TraceFormatError(f"unknown trace format {resolved!r}; "
                               f"choose from {FORMATS}")
    return resolved


def read_trace_ms(path: PathLike, fmt: Optional[str] = None) -> np.ndarray:
    """Read any supported format into canonical ms timestamps."""
    return _READERS[_resolve(fmt, path)](path)


def write_trace_ms(path: PathLike, times_ms: np.ndarray,
                   fmt: Optional[str] = None) -> None:
    """Write canonical ms timestamps in the given format; without one,
    the extension decides (default mahimahi — content sniffing cannot
    apply to a file that does not exist yet)."""
    if fmt is None:
        fmt = _EXTENSION_HINTS.get(Path(path).suffix.lower(), "mahimahi")
    if fmt not in FORMATS:
        raise TraceFormatError(f"unknown trace format {fmt!r}; "
                               f"choose from {FORMATS}")
    _WRITERS[fmt](path, times_ms)


def read_trace_seconds(path: PathLike, fmt: Optional[str] = None) -> np.ndarray:
    """Read any supported format into the seconds array the simulator's
    :class:`~repro.netsim.trace_link.TraceLink` and the live emulator
    consume."""
    return as_seconds(read_trace_ms(path, fmt))


def convert(src: PathLike, dst: PathLike,
            from_fmt: Optional[str] = None,
            to_fmt: Optional[str] = None) -> int:
    """Convert ``src`` to ``dst`` (formats auto-detected from content or
    extension unless given).  Returns the number of opportunities.

    Conversion is lossless: for any pair of formats, reading the output
    yields exactly the input's canonical ms timestamps.
    """
    times_ms = read_trace_ms(src, from_fmt)
    write_trace_ms(dst, times_ms, to_fmt)
    return int(times_ms.size)
