"""Inverse lookup on interpolated curves.

Verus needs the inverse query of its delay profile: given a target delay
``Dest``, find the largest sending window whose predicted delay does not
exceed it (Fig 5 in the paper: drop a horizontal at ``Dest,i+1`` and read
off ``W_{i+1}``).  Because an interpolated noisy profile need not be
globally monotone, the lookup scans a dense grid and takes the largest
admissible abscissa, with linear extrapolation beyond the explored region.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

import numpy as np

from .spline import Interpolator


class InverseLookup:
    """Largest-x-such-that-f(x) <= target query over an interpolant.

    Parameters
    ----------
    interpolator:
        Any :class:`~repro.interp.spline.Interpolator`.
    grid_points:
        Density of the evaluation grid across the knot domain.
    max_extrapolation:
        How far beyond the last knot (as a multiple of the domain width)
        the query may extrapolate when the target exceeds every value on
        the profile.  Extrapolation requires a positive boundary slope;
        otherwise the domain maximum is returned.
    """

    def __init__(self, interpolator: Interpolator, grid_points: int = 512,
                 max_extrapolation: float = 1.0):
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if max_extrapolation < 0:
            raise ValueError("max_extrapolation must be non-negative")
        self.f = interpolator
        lo, hi = interpolator.domain
        self.grid_x = np.linspace(lo, hi, grid_points)
        self.grid_y = np.asarray(interpolator(self.grid_x), dtype=float)
        self.max_extrapolation = max_extrapolation
        # Query acceleration, precomputed once per (re)build: the suffix
        # minimum S[k] = min(grid_y[k:]) is non-decreasing, and the
        # largest i with grid_y[i] <= target equals the largest k with
        # S[k] <= target — so the per-query O(n) admissibility scan
        # becomes one bisect.  Plain Python lists keep the per-query
        # indexing out of numpy scalar overhead; the float values are
        # exactly the grid values.
        self._suffix_min = np.minimum.accumulate(
            self.grid_y[::-1])[::-1].tolist()
        self._gx = self.grid_x.tolist()
        self._gy = self.grid_y.tolist()
        self._lo = float(lo)
        #: Upper end of the knot domain, ``f.domain[1]`` as a float.
        self.x_max = float(hi)
        #: Largest delay on the evaluation grid (profile ceiling).
        self.y_max = float(np.max(self.grid_y))

    def largest_below(self, target: float) -> float:
        """Largest x with f(x) <= target (grid resolution)."""
        suffix_min = self._suffix_min
        if suffix_min[0] > target:
            return self._lo
        last = bisect_right(suffix_min, target) - 1
        gx = self._gx
        if last < len(gx) - 1:
            # Refine between the last admissible grid point and the next:
            # linear cut of the segment for sub-grid resolution.
            gy = self._gy
            x0, x1 = gx[last], gx[last + 1]
            y0, y1 = gy[last], gy[last + 1]
            if y1 > y0:
                frac = (target - y0) / (y1 - y0)
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                return x0 + frac * (x1 - x0)
            return x0
        # Target is above the entire profile: extrapolate along the end slope.
        slope = self._end_slope()
        if slope <= 0:
            return self.x_max
        overshoot = (target - self._gy[-1]) / slope
        limit = self.max_extrapolation * (self.x_max - self._lo)
        return self.x_max + (overshoot if overshoot < limit else limit)

    def _end_slope(self) -> float:
        y_hi = self.grid_y[-1]
        y_prev = self.grid_y[-2]
        dx = self.grid_x[-1] - self.grid_x[-2]
        return float((y_hi - y_prev) / dx) if dx > 0 else 0.0

    def value_at(self, x: float) -> float:
        """Forward evaluation convenience (delegates to the interpolant)."""
        return float(self.f(x))


def monotone_envelope(y: np.ndarray) -> np.ndarray:
    """Running maximum, used to monotonise noisy profiles for analysis."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    return np.maximum.accumulate(arr)


def find_crossing(x: np.ndarray, y: np.ndarray, level: float) -> Optional[float]:
    """First x at which the sampled curve crosses ``level`` (linear interp)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be equal-length 1-d arrays")
    above = ya >= level
    if not np.any(above):
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(xa[0])
    x0, x1, y0, y1 = xa[i - 1], xa[i], ya[i - 1], ya[i]
    if y1 == y0:
        return float(x1)
    return float(x0 + (level - y0) / (y1 - y0) * (x1 - x0))
