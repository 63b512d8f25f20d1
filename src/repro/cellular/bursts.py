"""Burst detection and statistics over packet-arrival traces.

Reproduces the §3 analysis behind Fig 1 (burst arrival pattern) and Fig 2
(probability distributions of burst size and burst inter-arrival time).  A
*burst* is a maximal run of packet arrivals separated by less than a gap
threshold (default: one TTI, 1 ms — the scheduler granularity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..netsim.packet import MTU_BYTES


@dataclass
class BurstStats:
    """Per-trace burst statistics.

    ``sizes_bytes`` — total bytes per burst.
    ``inter_arrivals`` — seconds between consecutive burst starts.
    ``start_times`` — burst start timestamps.
    """

    sizes_bytes: np.ndarray
    inter_arrivals: np.ndarray
    start_times: np.ndarray

    @property
    def count(self) -> int:
        return int(self.sizes_bytes.size)

    def summary(self) -> dict:
        if self.count == 0:
            return {"bursts": 0}
        return {
            "bursts": self.count,
            "mean_size_bytes": float(np.mean(self.sizes_bytes)),
            "median_size_bytes": float(np.median(self.sizes_bytes)),
            "p95_size_bytes": float(np.percentile(self.sizes_bytes, 95)),
            "mean_interarrival_ms": float(np.mean(self.inter_arrivals) * 1e3)
            if self.inter_arrivals.size else float("nan"),
            "cv_size": float(np.std(self.sizes_bytes)
                             / max(np.mean(self.sizes_bytes), 1e-12)),
        }


def detect_bursts(arrival_times: np.ndarray, gap_threshold: float = 0.001,
                  packet_bytes: int = MTU_BYTES) -> BurstStats:
    """Group packet arrivals into bursts separated by ``gap_threshold``."""
    times = np.asarray(arrival_times, dtype=float)
    if times.ndim != 1:
        raise ValueError("arrival_times must be one-dimensional")
    if times.size == 0:
        empty = np.empty(0)
        return BurstStats(empty, empty, empty)
    if np.any(np.diff(times) < 0):
        raise ValueError("arrival_times must be sorted")
    if gap_threshold <= 0:
        raise ValueError("gap_threshold must be positive")

    gaps = np.diff(times)
    boundaries = np.flatnonzero(gaps >= gap_threshold) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [times.size]])
    sizes = (ends - starts) * packet_bytes
    start_times = times[starts]
    inter = np.diff(start_times)
    return BurstStats(sizes_bytes=sizes.astype(float),
                      inter_arrivals=inter,
                      start_times=start_times)


def log_pdf(values: np.ndarray, bins: int = 40,
            floor: float = 1e-12) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram density on logarithmic bins (the Fig 2 presentation).

    Returns ``(bin_centers, density)``; density integrates to one over the
    linear measure.  Zero/negative values are excluded.
    """
    arr = np.asarray(values, dtype=float)
    arr = arr[arr > floor]
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    lo, hi = arr.min(), arr.max()
    if lo == hi:
        hi = lo * 1.0001 + floor
    edges = np.logspace(np.log10(lo), np.log10(hi), bins + 1)
    density, _ = np.histogram(arr, bins=edges, density=True)
    centers = np.sqrt(edges[:-1] * edges[1:])
    return centers, density
