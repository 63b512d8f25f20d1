"""Synthetic cellular channel model.

Substitutes for the paper's measured Etisalat/Du 3G & LTE channels.  The
model reproduces the three phenomena §3 of the paper identifies as the cause
of cellular unpredictability:

1. **Burst scheduling** — the radio scheduler serves a user at discrete
   1 ms Transmission Time Intervals (TTIs).  Whether a TTI serves the user
   is a Markov ON/OFF process (giving variable burst inter-arrival times);
   how much it carries is a log-normal burst size scaled by the current
   fade level (giving variable burst sizes).  LTE is parameterised with
   more frequent, smaller bursts than 3G, matching Fig 2.
2. **Multi-timescale fading** — the mean service rate is modulated by an
   Ornstein–Uhlenbeck process in the log domain (slow fading / path loss,
   seconds timescale) on top of per-TTI randomness (fast fading,
   milliseconds).  Mobility scenarios increase the OU volatility and add
   outage episodes (deep fades from handover or signal loss).
3. **Competing traffic** — a second user's demand reduces the share of
   TTIs the first user wins, raising its queueing delay as the combined
   load nears capacity (Fig 3).

The output is a *delivery-opportunity trace*: a sorted array of timestamps,
each able to carry one MTU.  These traces feed
:class:`~repro.netsim.trace_link.TraceLink`, exactly how the paper replays
its recorded traces through the OPNET traffic shaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..netsim.packet import MTU_BYTES

TTI_SECONDS = 0.001


@dataclass
class ChannelParams:
    """Parameters of the synthetic cellular channel.

    The defaults describe a stationary LTE downlink.  Scenario presets in
    :mod:`repro.cellular.scenarios` derive from this.
    """

    name: str = "lte-generic"
    technology: str = "lte"  # "lte" or "3g"
    mean_rate_bps: float = 10e6
    #: Fraction of TTIs that serve this user under nominal conditions.
    serve_prob: float = 0.45
    #: Log-normal sigma of the burst size (packets); higher = burstier.
    burst_sigma: float = 0.6
    #: Peak radio rate used to serialise packets inside one burst.
    peak_rate_bps: float = 150e6
    #: OU mean-reversion rate (1/s) of the slow-fading log-rate process.
    fading_theta: float = 0.4
    #: OU volatility of the slow-fading log-rate process.
    fading_sigma: float = 0.25
    #: Per-TTI fast-fading multiplier spread (log-normal sigma).
    fast_fading_sigma: float = 0.15
    #: Expected outages per second (Poisson); 0 disables outages.
    outage_rate: float = 0.0
    #: Mean outage duration in seconds (exponential).
    outage_duration: float = 0.5
    #: Residual stochastic packet loss (after link-layer retransmissions).
    loss_rate: float = 0.0
    packet_bytes: int = MTU_BYTES

    def __post_init__(self) -> None:
        if self.technology not in ("lte", "3g"):
            raise ValueError(f"unknown technology {self.technology!r}")
        if self.mean_rate_bps <= 0:
            raise ValueError("mean_rate_bps must be positive")
        if not 0 < self.serve_prob <= 1:
            raise ValueError("serve_prob must be in (0, 1]")
        if self.peak_rate_bps < self.mean_rate_bps:
            raise ValueError("peak_rate_bps must be >= mean_rate_bps")

    @property
    def mean_packets_per_tti(self) -> float:
        return self.mean_rate_bps * TTI_SECONDS / (8.0 * self.packet_bytes)

    @property
    def mean_burst_packets(self) -> float:
        """Burst size needed so served TTIs average out to the mean rate."""
        return self.mean_packets_per_tti / self.serve_prob

    def with_rate(self, mean_rate_bps: float) -> "ChannelParams":
        return replace(self, mean_rate_bps=mean_rate_bps)


@dataclass
class CompetingUser:
    """Open-loop contender at the same base station (Fig 3 setup)."""

    rate_bps: float
    #: (start, end) intervals during which the user is active; None = always.
    on_intervals: Optional[List[Tuple[float, float]]] = None

    def demand_at(self, t: float) -> float:
        if self.on_intervals is None:
            return self.rate_bps
        for start, end in self.on_intervals:
            if start <= t < end:
                return self.rate_bps
        return 0.0

    @classmethod
    def on_off(cls, rate_bps: float, period: float, duration: float,
               start_on: bool = False) -> "CompetingUser":
        """Square-wave activity with the given half-period, e.g. the paper's
        one-minute ON/OFF second user."""
        intervals = []
        t = 0.0 if start_on else period
        while t < duration:
            intervals.append((t, min(t + period, duration)))
            t += 2 * period
        return cls(rate_bps=rate_bps, on_intervals=intervals)


class CellularChannelModel:
    """Generates delivery-opportunity traces from :class:`ChannelParams`."""

    def __init__(self, params: ChannelParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng

    # ------------------------------------------------------------------
    def generate(self, duration: float,
                 capacity_bps: Optional[float] = None,
                 competitors: Sequence[CompetingUser] = ()) -> np.ndarray:
        """Delivery-opportunity timestamps for ``duration`` seconds.

        ``capacity_bps`` is the cell's total capacity; when competitors are
        active their combined demand reduces this user's TTI share
        proportionally (processor-sharing approximation of the scheduler).
        Without competitors the user sees the full configured channel.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        p = self.params
        n_ttis = int(math.ceil(duration / TTI_SECONDS))
        rng = self.rng

        # --- slow fading: OU process in log domain, stepped every TTI ----
        log_fade = self._ou_path(n_ttis, p.fading_theta, p.fading_sigma)

        # --- outage episodes ---------------------------------------------
        in_outage = self._outage_mask(n_ttis, duration)

        # --- Markov ON/OFF TTI service ------------------------------------
        # Choose transition probabilities so the stationary ON fraction is
        # serve_prob and mean ON run length differs by technology: LTE's
        # scheduler interleaves users finely (short runs), 3G HSPA+ serves
        # longer runs, producing the bigger, rarer bursts of Fig 2.
        mean_on_run = 1.5 if p.technology == "lte" else 3.0
        q_off = 1.0 / mean_on_run                 # P(on -> off)
        denom = max(1e-9, 1.0 - p.serve_prob)
        q_on = min(1.0, q_off * p.serve_prob / denom)  # P(off -> on)

        serialize_dt = p.packet_bytes * 8.0 / p.peak_rate_bps
        times: List[float] = []
        on = rng.random() < p.serve_prob
        base_capacity = capacity_bps if capacity_bps is not None else p.mean_rate_bps
        # Lognormal fading multipliers have mean exp(var/2) > 1; divide it
        # out so high-mobility scenarios still average the configured rate.
        ou_var = (p.fading_sigma ** 2 / (2.0 * p.fading_theta)
                  if p.fading_theta > 0 else p.fading_sigma ** 2)
        fade_correction = math.exp(0.5 * (ou_var + p.fast_fading_sigma ** 2))

        # Hot loop: ~1000 iterations per simulated second.  Hoist every
        # per-iteration attribute/property lookup, index the precomputed
        # paths as plain Python scalars (.tolist() — identical doubles,
        # no numpy-scalar boxing), and inline _draw_burst.  The RNG draw
        # sequence and every arithmetic expression are those of the
        # straightforward loop, so traces are bit-identical; note the
        # share draw was already short-circuited away when share == 1.0,
        # which is why skipping _user_share entirely without competitors
        # leaves the stream untouched.  The cheaper draws below consume
        # the same bit-generator output as the distribution methods they
        # replace, and NumPy computes those as 0.0 + h*u (uniform),
        # 0.0 + s*z (normal) and exp(mu + s*z) (lognormal) from it:
        # adding 0.0 changes no double other than -0.0, and the normal
        # draw feeds exp(), where -0.0 and 0.0 agree.
        mean_burst_nominal = p.mean_burst_packets
        burst_sigma = p.burst_sigma
        fast_sigma = p.fast_fading_sigma
        rng_random = rng.random
        rng_standard_normal = rng.standard_normal
        exp = math.exp
        log = math.log
        append = times.append
        log_fade_l = log_fade.tolist()
        in_outage_l = in_outage.tolist()
        half_tti = TTI_SECONDS * 0.5
        has_competitors = bool(competitors)

        for i in range(n_ttis):
            if in_outage_l[i]:
                on = False
                continue
            # Markov state update
            if on:
                if rng_random() < q_off:
                    on = False
            else:
                if rng_random() < q_on:
                    on = True
            if not on:
                continue
            t = i * TTI_SECONDS
            if has_competitors:
                share = self._user_share(t, base_capacity, competitors)
                if share < 1.0 and rng_random() > share:
                    # The competitor won this TTI.
                    continue
            fade = (exp(log_fade_l[i])
                    * exp(fast_sigma * rng_standard_normal())
                    / fade_correction)
            mean_burst = mean_burst_nominal * fade
            # _draw_burst, inlined (lognormal size + randomised rounding).
            if mean_burst <= 0:
                continue
            mu = log(mean_burst) - 0.5 * burst_sigma * burst_sigma
            value = exp(mu + burst_sigma * rng_standard_normal())
            base = int(value)
            k = base + (1 if rng_random() < value - base else 0)
            if k <= 0:
                continue
            # Sub-TTI jitter of the burst start, then back-to-back packets
            # at the peak radio rate.
            start = t + half_tti * rng_random()
            for j in range(k):
                ts = start + j * serialize_dt
                if ts < duration:
                    append(ts)

        arr = np.asarray(sorted(times), dtype=float)
        if arr.size == 0:
            # Degenerate (e.g. full outage): guarantee a non-empty trace.
            arr = np.array([duration / 2.0])
        return arr

    # ------------------------------------------------------------------
    def stepper(self, capacity_bps: Optional[float] = None,
                competitors: Sequence[CompetingUser] = ()) -> "ChannelStepper":
        """Incremental real-time view of this channel.

        :meth:`generate` materialises a whole trace up front, which a live
        emulator cannot do for an open-ended session.  The returned
        :class:`ChannelStepper` produces the same composed processes
        (OU slow fading, Markov ON/OFF TTIs, log-normal bursts, Poisson
        outages, competing-user share) chunk by chunk, carrying every
        process state across calls, so delivery opportunities can be
        drawn just-in-time as wall-clock time advances.
        """
        return ChannelStepper(self, capacity_bps=capacity_bps,
                              competitors=competitors)

    # ------------------------------------------------------------------
    def _draw_burst(self, mean_packets: float) -> int:
        """Log-normal burst size with the configured dispersion."""
        if mean_packets <= 0:
            return 0
        sigma = self.params.burst_sigma
        mu = math.log(mean_packets) - 0.5 * sigma * sigma
        value = self.rng.lognormal(mu, sigma)
        # Randomised rounding keeps the mean unbiased for small bursts.
        base = int(value)
        frac = value - base
        return base + (1 if self.rng.random() < frac else 0)

    def _ou_path(self, n: int, theta: float, sigma: float) -> np.ndarray:
        """Ornstein–Uhlenbeck sample path around 0 in the log-rate domain."""
        dt = TTI_SECONDS
        prev = self.rng.normal(0.0, sigma / math.sqrt(max(2 * theta, 1e-9)))
        sq = sigma * math.sqrt(dt)
        noise = self.rng.normal(0.0, 1.0, size=n - 1) if n > 1 else np.empty(0)
        # Step on Python floats: the same IEEE double arithmetic as on
        # numpy scalars, so the path is bit-identical, minus the boxing.
        path = [prev]
        append = path.append
        for z in noise.tolist():
            prev = prev - theta * prev * dt + sq * z
            append(prev)
        return np.array(path)

    def _outage_mask(self, n_ttis: int, duration: float) -> np.ndarray:
        mask = np.zeros(n_ttis, dtype=bool)
        p = self.params
        if p.outage_rate <= 0:
            return mask
        n_outages = self.rng.poisson(p.outage_rate * duration)
        for _ in range(n_outages):
            start = self.rng.uniform(0.0, duration)
            length = self.rng.exponential(p.outage_duration)
            i0 = int(start / TTI_SECONDS)
            i1 = min(n_ttis, int((start + length) / TTI_SECONDS) + 1)
            mask[i0:i1] = True
        return mask

    @staticmethod
    def _user_share(t: float, capacity_bps: float,
                    competitors: Sequence[CompetingUser]) -> float:
        """Probability this user wins a contended TTI at time ``t``.

        Water-filling approximation of the proportional-fair scheduler: the
        competitors take their demand up to their fair share of the cell,
        and this user keeps the remainder of the TTIs.  A floor keeps the
        user from being fully starved (the scheduler never cuts a user off
        entirely).
        """
        if not competitors:
            return 1.0
        active = [c.demand_at(t) for c in competitors]
        other = sum(active)
        if other <= 0:
            return 1.0
        n_active = sum(1 for d in active if d > 0)
        fair_cap = capacity_bps * n_active / (n_active + 1.0)
        taken = min(other, fair_cap)
        return min(1.0, max(0.05, (capacity_bps - taken) / capacity_bps))


class ChannelStepper:
    """Stateful, incremental delivery-opportunity generator.

    Created by :meth:`CellularChannelModel.stepper`.  Each :meth:`advance`
    call extends the trace by ``dt`` seconds and returns only the new
    opportunities, so a real-time consumer (the :mod:`repro.live` link
    emulator) can pull the channel forward in small chunks without ever
    knowing the session duration.  All stochastic state — the OU
    slow-fading level, the Markov TTI service state and any in-progress
    outage — persists across calls; concatenating the chunks yields a
    statistically identical trace to one :meth:`generate` call.
    """

    def __init__(self, model: CellularChannelModel,
                 capacity_bps: Optional[float] = None,
                 competitors: Sequence[CompetingUser] = ()):
        self.model = model
        self.params = model.params
        self.rng = model.rng
        self.competitors = tuple(competitors)
        p = self.params
        self.capacity_bps = (capacity_bps if capacity_bps is not None
                             else p.mean_rate_bps)
        #: Continuous time (seconds) up to which the channel has been drawn.
        self.now: float = 0.0
        self._tti_index = 0
        self._on = self.rng.random() < p.serve_prob
        # OU initial condition: stationary distribution, as in _ou_path.
        self._log_fade = float(self.rng.normal(
            0.0, p.fading_sigma / math.sqrt(max(2 * p.fading_theta, 1e-9))))
        self._outage_until = 0.0
        mean_on_run = 1.5 if p.technology == "lte" else 3.0
        self._q_off = 1.0 / mean_on_run
        denom = max(1e-9, 1.0 - p.serve_prob)
        self._q_on = min(1.0, self._q_off * p.serve_prob / denom)
        ou_var = (p.fading_sigma ** 2 / (2.0 * p.fading_theta)
                  if p.fading_theta > 0 else p.fading_sigma ** 2)
        self._fade_correction = math.exp(
            0.5 * (ou_var + p.fast_fading_sigma ** 2))
        self._serialize_dt = p.packet_bytes * 8.0 / p.peak_rate_bps
        self._ou_sq = p.fading_sigma * math.sqrt(TTI_SECONDS)

    def advance(self, dt: float) -> np.ndarray:
        """Draw the delivery opportunities in ``[now, now + dt)``."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        p = self.params
        rng = self.rng
        end = self.now + dt
        end_tti = int(math.ceil(end / TTI_SECONDS))
        times: List[float] = []
        while self._tti_index < end_tti:
            i = self._tti_index
            self._tti_index += 1
            t = i * TTI_SECONDS
            # OU update runs every TTI, in or out of outage, mirroring
            # the precomputed path of CellularChannelModel._ou_path.
            self._log_fade += (-p.fading_theta * self._log_fade * TTI_SECONDS
                               + self._ou_sq * float(rng.normal()))
            # Poisson outage arrivals, drawn per TTI instead of globally.
            if p.outage_rate > 0 and t >= self._outage_until:
                if rng.random() < p.outage_rate * TTI_SECONDS:
                    self._outage_until = t + float(
                        rng.exponential(p.outage_duration))
            if t < self._outage_until:
                self._on = False
                continue
            if self._on:
                if rng.random() < self._q_off:
                    self._on = False
            else:
                if rng.random() < self._q_on:
                    self._on = True
            if not self._on:
                continue
            share = CellularChannelModel._user_share(
                t, self.capacity_bps, self.competitors)
            if share < 1.0 and rng.random() > share:
                continue
            fade = (math.exp(self._log_fade)
                    * math.exp(rng.normal(0.0, p.fast_fading_sigma))
                    / self._fade_correction)
            k = self.model._draw_burst(p.mean_burst_packets * fade)
            if k <= 0:
                continue
            start = t + rng.uniform(0.0, TTI_SECONDS * 0.5)
            for j in range(k):
                ts = start + j * self._serialize_dt
                if self.now <= ts < end:
                    times.append(ts)
        self.now = end
        return np.asarray(sorted(times), dtype=float)


def trace_rate_bps(times: np.ndarray, packet_bytes: int = MTU_BYTES) -> float:
    """Average offered rate of a delivery-opportunity trace."""
    arr = np.asarray(times, dtype=float)
    if arr.size < 2:
        return 0.0
    span = float(arr[-1] - arr[0])
    if span <= 0:
        return 0.0
    return arr.size * packet_bytes * 8.0 / span
