"""Stochastic link-rate forecasting — the Sprout baseline's engine.

Re-implements the control law of Sprout (Winstein, Sivaraman,
Balakrishnan, NSDI'13), the state-of-the-art cellular protocol the paper
compares against.  The receiver models packet deliveries per 20 ms tick as
a Poisson process whose rate λ drifts (Brownian motion in the log domain),
maintains a discretised Bayesian belief over λ, and produces a *cautious
forecast*: the 5th-percentile cumulative number of deliverable packets
over the next several ticks.  The sender keeps no more packets in flight
than the cautious forecast predicts can drain within the 100 ms target
delay, which yields Sprout's signature low queueing delay — and its
conservatism on rapidly improving channels, which Fig 11 of the Verus
paper exploits.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# np.convolve is a thin wrapper over the C correlate kernel with the
# second operand reversed; calling the kernel directly skips the wrapper
# (asarray coercion, operand-swap check, per-call reversal view) on the
# per-tick hot path while computing the exact same floats.  Mode 1 is
# "same".
try:
    from numpy._core.multiarray import correlate as _correlate
except ImportError:  # pragma: no cover - numpy < 2
    try:
        from numpy.core.multiarray import correlate as _correlate
    except ImportError:  # pragma: no cover - future layout change
        def _correlate(a, v, mode):
            return np.convolve(a, v[::-1], mode="same")

# ndarray.sum() funnels through numpy's _methods._sum wrapper into
# np.add.reduce; binding the reduce directly drops the wrapper from the
# per-tick hot path without changing the accumulation (same pairwise
# reduction, same floats).
_sum = np.add.reduce

# One Poisson upper-tail table per rate grid, shared by every belief on
# that grid in the process (keyed by the grid's bytes).
_TAIL_TABLES: dict = {}


def poisson_tail_table(rates: np.ndarray) -> np.ndarray:
    """Read-only table ``tails[k, i] = P(Poisson(rates[i]) >= k)``.

    Rows run from k = 0 to λ_max + 12·√λ_max.  Each column is a
    reverse cumulative sum of the Poisson pmf, so the tail is summed
    directly rather than taken as 1 − cdf (which loses all relative
    precision in the small upper tails the posterior depends on).  The
    pmf comes from the ratio recurrence p(j)/p(j−1) = λ/j anchored at
    each column's mode, so nothing under- or overflows for any λ, and
    the column is normalised by its own total; the sum runs on to
    λ_max + 24·√λ_max so the truncated remainder is negligible even
    relative to the smallest tail served.  Built once per grid.
    """
    key = rates.tobytes()
    tails = _TAIL_TABLES.get(key)
    if tails is None:
        lam_max = float(rates.max())
        served = int(math.ceil(lam_max + 12.0 * math.sqrt(lam_max))) + 1
        rows = int(math.ceil(lam_max + 24.0 * math.sqrt(lam_max))) + 1
        j = np.arange(rows, dtype=float)[:, None]
        mode = np.floor(rates)
        # w[j] = p(j)/p(mode): climbing factors λ/j above the mode …
        w = np.where(j > mode, rates / np.maximum(j, 1.0), 1.0)
        np.multiply.accumulate(w, axis=0, out=w)
        # … and descending factors j/λ below it, multiplied in from the
        # mode downwards (w[j] takes the product over rows j+1..mode).
        down = np.where((j > 0) & (j <= mode), j / rates, 1.0)
        down = np.multiply.accumulate(down[::-1], axis=0)[::-1]
        w[:-1] *= down[1:]
        tails = np.add.accumulate(w[::-1], axis=0)[::-1]
        tails = tails[:served] / tails[0]
        tails.flags.writeable = False
        _TAIL_TABLES[key] = tails
    return tails


def poisson_tail(k: int, rates: np.ndarray) -> np.ndarray:
    """P(Poisson(λ) >= k) for every λ in ``rates`` (a log-spaced grid).

    Counts inside :func:`poisson_tail_table` are a row lookup.  Beyond
    it, every rate sits well below k, so the tail is the pmf at k times
    a fast-converging series of ratios λ/(k+i), summed in log space.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    tails = poisson_tail_table(rates)
    if k < tails.shape[0]:
        return tails[k]
    ratio = float(rates.max()) / (k + 1)
    terms = int(math.ceil(-40.0 / math.log(ratio)))
    series = np.multiply.accumulate(
        rates / np.arange(k + 1, k + 1 + terms, dtype=float)[:, None], axis=0)
    log_tail = (k * np.log(rates) - rates - math.lgamma(k + 1)
                + np.log1p(_sum(series, axis=0)))
    return np.exp(log_tail)


#: Sprout's tick length (seconds).
TICK_SECONDS = 0.020
#: Queueing-delay target (seconds): drain everything within 100 ms.
TARGET_DELAY = 0.100
#: Forecast risk quantile: plan for the 5th-percentile channel.
CAUTION_QUANTILE = 0.05


class RateBelief:
    """Discretised Bayesian belief over the per-tick delivery rate λ.

    The support is a log-spaced grid; evolution is a Gaussian random walk
    in log λ (approximating Sprout's Brownian-motion prior) implemented as
    a convolution over grid indices, and observations update the belief
    with the Poisson likelihood of the packet count seen in a tick.
    """

    def __init__(self, min_rate: float = 0.05, max_rate: float = 300.0,
                 bins: int = 192, evolve_sigma: float = 0.18):
        if not 0 < min_rate < max_rate:
            raise ValueError("need 0 < min_rate < max_rate")
        if bins < 8:
            raise ValueError("need at least 8 bins")
        if evolve_sigma <= 0:
            raise ValueError("evolve_sigma must be positive")
        self.log_rates = np.linspace(math.log(min_rate), math.log(max_rate), bins)
        self.rates = np.exp(self.log_rates)
        self.prob = np.full(bins, 1.0 / bins)
        step = self.log_rates[1] - self.log_rates[0]
        # Precomputed evolution kernel over grid indices.
        half_width = max(1, int(math.ceil(3 * evolve_sigma / step)))
        offsets = np.arange(-half_width, half_width + 1)
        kernel = np.exp(-0.5 * (offsets * step / evolve_sigma) ** 2)
        self._kernel = kernel / kernel.sum()
        self._kernel_rev = np.ascontiguousarray(self._kernel[::-1])
        self._log_rates_col = self.log_rates
        # Point-mass likelihood rows are deterministic in the packet
        # count, so each distinct count is built once and reused; rows are
        # never mutated after insertion.  Censored ticks read the grid's
        # shared tail table, fetched on the first one.
        self._lik_cache: dict = {}
        self._tails: Optional[np.ndarray] = None
        self._posterior = np.empty(bins)
        # One-slot evolution memo: the forecaster's first horizon step
        # computes exactly normalize(correlate(prob, kernel)) — the same
        # array the next evolve() would rebuild.  The revision counter
        # ties the memo to the belief state it was derived from.
        self._rev = 0
        self._evolve_memo: Optional[tuple] = None

    # ------------------------------------------------------------------
    def evolve(self) -> None:
        """One tick of Brownian drift: convolve the belief with the kernel."""
        memo = self._evolve_memo
        if memo is not None:
            self._evolve_memo = None
            if memo[0] == self._rev:
                # The forecaster already evolved this exact belief state
                # for its first horizon step; adopt that private copy.
                self.prob = memo[1]
                self._rev += 1
                return
        self.prob = _correlate(self.prob, self._kernel_rev, 1)
        total = _sum(self.prob)
        if total <= 0:
            self.prob = np.full_like(self.prob, 1.0 / self.prob.size)
        else:
            self.prob /= total
        self._rev += 1

    def observe(self, packets: int, censored: bool = False) -> None:
        """Multiply in the likelihood of ``packets`` arrivals in one tick.

        ``censored=True`` means the tick drained everything offered (no
        queue built up), so the count is only a *lower bound* on what the
        link could have delivered: the likelihood becomes the Poisson tail
        P(X ≥ k) instead of the point mass P(X = k).  Without this
        distinction a self-clocked sender would keep confirming its own
        throttled sending rate and never ramp up.
        """
        if packets < 0:
            raise ValueError("packet count must be non-negative")
        if censored:
            if packets == 0:
                return  # "at least zero" carries no information
            tails = self._tails
            if tails is None:
                tails = self._tails = poisson_tail_table(self.rates)
            # P(Poisson(λ) >= k)
            likelihood = (tails[packets] if packets < tails.shape[0]
                          else poisson_tail(packets, self.rates))
        else:
            likelihood = self._lik_cache.get(packets)
            if likelihood is None:
                log_lik = (packets * self._log_rates_col - self.rates
                           - math.lgamma(packets + 1))
                log_lik -= log_lik.max()
                likelihood = np.exp(log_lik)
                if len(self._lik_cache) >= 4096:
                    self._lik_cache.clear()
                self._lik_cache[packets] = likelihood
        posterior = self._posterior
        np.multiply(self.prob, likelihood, out=posterior)
        total = _sum(posterior)
        if total <= 0:
            # Observation wildly outside the prior's support; reset flat.
            self.prob = np.full_like(self.prob, 1.0 / self.prob.size)
        else:
            np.divide(posterior, total, out=posterior)
            # Hand the scratch buffer over as the live belief and adopt
            # the superseded belief array as next tick's scratch.
            self._posterior = self.prob if self.prob.size == posterior.size \
                else np.empty(posterior.size)
            self.prob = posterior
        self._rev += 1

    def quantile(self, q: float) -> float:
        """Rate at the q-quantile of the belief."""
        if not 0 < q < 1:
            raise ValueError("quantile must be in (0, 1)")
        cdf = np.cumsum(self.prob)
        idx = int(np.searchsorted(cdf, q))
        return float(self.rates[min(idx, self.rates.size - 1)])

    def mean(self) -> float:
        return float(np.dot(self.prob, self.rates))


class SproutForecaster:
    """Tick-driven forecaster producing the cautious in-flight budget."""

    def __init__(self, tick: float = TICK_SECONDS,
                 target_delay: float = TARGET_DELAY,
                 quantile: float = CAUTION_QUANTILE,
                 rate_cap_bps: Optional[float] = None,
                 packet_bytes: int = 1400,
                 belief: Optional[RateBelief] = None):
        if tick <= 0 or target_delay <= 0:
            raise ValueError("tick and target_delay must be positive")
        self.tick = tick
        self.target_delay = target_delay
        self.quantile = quantile
        self.packet_bytes = packet_bytes
        self.rate_cap_bps = rate_cap_bps
        self.belief = belief if belief is not None else RateBelief()
        self.ticks_processed = 0
        # Scratch buffers for the batched horizon pass; (re)built lazily
        # so a swapped-in belief with a different grid size still works.
        self._horizon_buf: Optional[np.ndarray] = None
        self._horizon_cdf: Optional[np.ndarray] = None
        self._horizon_lt: Optional[np.ndarray] = None
        self._horizon_rows: Optional[list] = None
        self._rates_src: Optional[np.ndarray] = None
        self._rates_list: Optional[list] = None

    # ------------------------------------------------------------------
    def on_tick(self, packets_this_tick: int, censored: bool = False) -> float:
        """Advance one tick with the observed arrivals; returns the budget.

        ``censored`` marks ticks during which the link drained everything
        offered (observation is a lower bound only — see
        :meth:`RateBelief.observe`).  The budget is the number of packets
        that may be outstanding such that, at the 5th-percentile channel
        rate, everything drains within the target delay.  The paper notes
        the Sprout *implementation* caps its bandwidth at 18 Mbps;
        ``rate_cap_bps`` reproduces that cap (set ``None`` to lift it, for
        sensitivity studies).
        """
        self.belief.evolve()
        self.belief.observe(packets_this_tick, censored=censored)
        self.ticks_processed += 1
        return self.cautious_budget()

    def cautious_budget(self) -> float:
        horizon_ticks = max(1, int(round(self.target_delay / self.tick)))
        belief = self.belief
        rates = belief.rates
        buf = self._horizon_buf
        if buf is None or buf.shape != (horizon_ticks, rates.size):
            buf = self._horizon_buf = np.empty((horizon_ticks, rates.size))
            self._horizon_cdf = np.empty_like(buf)
            self._horizon_lt = np.empty(buf.shape, dtype=bool)
            self._horizon_rows = list(buf)
        # Widen uncertainty for each further look-ahead tick: evolve the
        # belief forward step by step (the per-step renormalisation does
        # not commute with convolution, so the chain stays sequential),
        # normalizing each horizon distribution into its buffer row …
        look = belief.prob
        kernel_rev = belief._kernel_rev
        div = np.divide
        first = True
        for row in self._horizon_rows:
            look = _correlate(look, kernel_rev, 1)
            s = _sum(look)
            if s > 0:
                div(look, s, out=row)
                look = row
                if first:
                    # Seed the belief's evolve memo: the next evolve()
                    # would recompute this exact normalized convolution.
                    belief._evolve_memo = (belief._rev, row.copy())
            else:
                row[:] = look
            first = False
        # … then extract every horizon quantile in one batched pass.  The
        # strict-less count below is exactly searchsorted(cdf, q, 'left')
        # for a monotone CDF, so the indices (and therefore the floats)
        # match the per-step formulation bit for bit.
        cdf = np.add.accumulate(buf, axis=1, out=self._horizon_cdf)
        lt = np.less(cdf, self.quantile, out=self._horizon_lt)
        idx = np.add.reduce(lt, axis=1)
        if self._rates_src is not rates:
            # float(rates[i]) and rates.tolist()[i] are the same double,
            # so the cached list reproduces the scalar lookups exactly.
            self._rates_src = rates
            self._rates_list = rates.tolist()
        rates_list = self._rates_list
        last = len(rates_list) - 1
        cap = (None if self.rate_cap_bps is None
               else self.rate_cap_bps * self.tick / (8.0 * self.packet_bytes))
        # Left-to-right accumulation, matching the original loop's order.
        budget = 0.0
        for i in idx.tolist():
            rate = rates_list[i if i < last else last]
            if cap is not None and rate > cap:
                rate = cap
            budget += rate
        return budget

    def _apply_cap(self, rate_packets_per_tick: float) -> float:
        if self.rate_cap_bps is None:
            return rate_packets_per_tick
        cap = self.rate_cap_bps * self.tick / (8.0 * self.packet_bytes)
        return min(rate_packets_per_tick, cap)
