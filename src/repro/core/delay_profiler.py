"""Delay Profiler — the learned window↔delay relationship (Figs 5 and 7).

Every acknowledgement yields a (sending window ``W``, delay ``D``) pair: the
window the acknowledged packet was sent under, and the round-trip delay it
experienced.  The profiler keeps one EWMA-smoothed delay value per integer
window, and periodically re-interpolates the resulting point cloud with a
monotone cubic (PCHIP) spline — the pure-Python stand-in for the ALGLIB
cubic spline of the C++ prototype.  Re-interpolation is deliberately
decoupled from point updates because spline construction is the expensive
step (§5.1: "Due to the high computational effort of the cubic spline
interpolation, this calculation is not performed after every
acknowledgement, but instead at certain intervals").

The inverse query — given a delay set-point ``D_est``, find the sending
window — is the "drop a horizontal line on Fig 5" operation: the largest
window whose interpolated delay stays at or below the set-point, with
linear extrapolation beyond the explored region so the window can keep
growing on an underused channel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..interp import InverseLookup, PchipInterpolator


class DelayProfiler:
    """Maintains the Verus delay profile and its interpolated curve."""

    def __init__(self, ewma: float = 0.5, max_points: int = 512,
                 grid_points: int = 512, max_age: Optional[float] = 10.0):
        if not 0 < ewma <= 1:
            raise ValueError("ewma must be in (0, 1]")
        if max_points < 4:
            raise ValueError("max_points must be at least 4")
        if max_age is not None and max_age <= 0:
            raise ValueError("max_age must be positive or None")
        self.ewma = ewma
        self.max_points = max_points
        self.grid_points = grid_points
        #: Knots untouched for longer than this (seconds) are pruned at
        #: re-interpolation.  Without ageing, high-delay knots recorded in
        #: a past low-capacity era permanently fence off the window range
        #: above them: the inverse lookup never selects those windows, so
        #: they are never re-measured and never corrected.
        self.max_age = max_age
        #: window (int packets) -> smoothed delay (seconds)
        self._points: Dict[int, float] = {}
        #: window -> last update order stamp (for LRU-style eviction)
        self._touched: Dict[int, int] = {}
        #: window -> simulation time of last update (for age pruning)
        self._touched_time: Dict[int, float] = {}
        self._touch_counter = 0
        self._curve: Optional[InverseLookup] = None
        #: Bumped whenever the point set mutates (sample folded in,
        #: eviction, age pruning); lets interpolate() skip rebuilding a
        #: curve for an unchanged profile.
        self._revision = 0
        self._curve_key: Optional[Tuple[int, Optional[float]]] = None
        self.interpolations = 0
        self.updates_frozen = False
        self._probe_steps = 0

    # ------------------------------------------------------------------
    # Point maintenance
    # ------------------------------------------------------------------
    def add_sample(self, window: float, delay: float,
                   now: float = 0.0) -> None:
        """Fold one (window, delay) observation into the profile.

        During loss recovery the caller freezes updates (the paper keeps
        post-loss samples out of the profile because they see artificially
        drained queues); frozen samples are silently dropped.
        """
        if self.updates_frozen:
            return
        if delay <= 0:
            raise ValueError(f"delay must be positive (got {delay})")
        key = max(0, int(round(window)))
        self._revision += 1
        self._touch_counter += 1
        self._touched[key] = self._touch_counter
        self._touched_time[key] = now
        current = self._points.get(key)
        if current is None:
            self._points[key] = delay
        else:
            self._points[key] = (1 - self.ewma) * current + self.ewma * delay
        if len(self._points) > self.max_points:
            self._evict()

    def _evict(self) -> None:
        self._revision += 1
        stale = min(self._touched, key=self._touched.get)
        del self._points[stale]
        del self._touched[stale]
        self._touched_time.pop(stale, None)

    def _prune_aged(self, now: float) -> None:
        if self.max_age is None:
            return
        horizon = now - self.max_age
        stale = [key for key, t in self._touched_time.items() if t < horizon]
        # Never prune below the two points a curve needs.
        if len(self._points) - len(stale) < 2:
            stale = stale[: max(0, len(self._points) - 2)]
        if stale:
            self._revision += 1
        for key in stale:
            self._points.pop(key, None)
            self._touched.pop(key, None)
            self._touched_time.pop(key, None)

    def freeze_updates(self) -> None:
        self.updates_frozen = True

    def unfreeze_updates(self) -> None:
        self.updates_frozen = False

    # ------------------------------------------------------------------
    # Interpolation
    # ------------------------------------------------------------------
    def interpolate(self, d_min: Optional[float] = None,
                    now: Optional[float] = None) -> bool:
        """(Re)build the spline from the current points.

        ``d_min`` anchors the profile at (W=0, D_min): an empty pipe should
        show the propagation floor.  Passing ``now`` prunes knots older
        than ``max_age`` first.  Returns False when there are still too
        few points to build a curve.
        """
        if now is not None:
            self._prune_aged(now)
        # Rebuilding from an unchanged point set with the same anchor
        # yields the identical curve, so reuse it.  The counter still
        # advances: an interpolation *happened* as far as callers and
        # telemetry are concerned, it just cost nothing.
        cache_key = (self._revision, d_min)
        if self._curve is not None and cache_key == self._curve_key:
            self.interpolations += 1
            return True
        points = dict(self._points)
        if d_min is not None and d_min > 0:
            points.setdefault(0, d_min)
        if len(points) < 2:
            return False
        windows = np.array(sorted(points), dtype=float)
        delays = np.array([points[int(w)] for w in windows])
        spline = PchipInterpolator(windows, delays)
        self._curve = InverseLookup(spline, grid_points=self.grid_points,
                                    max_extrapolation=1.0)
        self._curve_key = cache_key
        self.interpolations += 1
        return True

    @property
    def ready(self) -> bool:
        return self._curve is not None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window_for_delay(self, target_delay: float,
                         allow_probe: bool = True) -> float:
        """W_{i+1} = f^{-1}(D_est,i+1): the Fig 5 horizontal-line lookup.

        When the target exceeds everything the profile has seen but the
        curve is flat (delay not responding to the window — nothing to
        extrapolate along), the lookup probes beyond the explored domain
        so the flow keeps exploring instead of pinning at its historical
        maximum.  Consecutive saturated lookups escalate the probe
        exponentially (slow-start-like domain growth), because the curve
        is only re-interpolated about once per second and a one-packet
        probe per rebuild would take minutes to track a large capacity
        increase.

        ``allow_probe`` gates the expansion on the caller's delay trend:
        probing is exploration of *spare* capacity, so the sender permits
        it only while delays are not rising (∆D ≤ 0).  Without the gate a
        delay-tolerant flow in a shared queue would probe persistently and
        starve its peers.
        """
        if self._curve is None:
            raise RuntimeError("delay profile not interpolated yet")
        curve = self._curve
        result = max(0.0, curve.largest_below(target_delay))
        hi = curve.x_max
        saturated = result >= hi and target_delay > curve.y_max
        if saturated and allow_probe:
            self._probe_steps = min(self._probe_steps + 1, 1000)
            result = max(result, hi + min(2.0 ** self._probe_steps, 8.0))
        elif not saturated:
            self._probe_steps = 0
        return result

    def delay_for_window(self, window: float) -> float:
        """Forward query f(W) on the interpolated curve."""
        if self._curve is None:
            raise RuntimeError("delay profile not interpolated yet")
        return self._curve.value_at(window)

    # ------------------------------------------------------------------
    # Introspection (used by Figs 5 and 7)
    # ------------------------------------------------------------------
    def knots(self) -> List[Tuple[int, float]]:
        """The raw (window, smoothed delay) points, sorted by window."""
        return sorted(self._points.items())

    def curve_samples(self, n: int = 100) -> Tuple[np.ndarray, np.ndarray]:
        """Dense samples of the interpolated curve for plotting/analysis."""
        if self._curve is None:
            raise RuntimeError("delay profile not interpolated yet")
        lo, hi = self._curve.f.domain
        xs = np.linspace(lo, hi, n)
        ys = np.asarray(self._curve.f(xs))
        return xs, ys

    def snapshot(self) -> Dict[int, float]:
        """Copy of the current point set (for evolution tracking, Fig 7b)."""
        return dict(self._points)

    def __len__(self) -> int:
        return len(self._points)
