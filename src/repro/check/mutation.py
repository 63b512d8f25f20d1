"""Mutation smoke: seeded defects that the oracles must catch.

Each mutant monkeypatches one well-defined piece of the implementation —
disable Verus's eq. 6 loss decrease, break the profile inversion, skip the
eq. 4 set-point floor, leak packets out of the link's delivery accounting,
disable Cubic's multiplicative decrease — runs the protocol's audited
check scenario, and records which oracles (invariant monitors, the golden
trace, the conservation ledger) noticed.  A mutant nobody catches means
the conformance net has a hole, and :func:`run_mutation_smoke` reports it
as a failure.

Patches are applied with try/finally restoration so a crashing mutant can
never leave the live classes defaced for subsequent code.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .golden import compare_golden, default_golden_dir, golden_path, load_golden
from .scenarios import build_scenario, run_audited


@contextmanager
def _patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@dataclass(frozen=True)
class Mutant:
    """One seeded defect."""

    name: str
    protocol: str
    description: str
    #: Zero-argument callable returning the active patch context manager.
    apply: Callable = field(compare=False)
    #: Optional self-contained detector for defects the audited check
    #: scenarios cannot see (e.g. cache-coherence bugs off the golden
    #: protocols' paths).  Called as ``probe(apply)``: it computes any
    #: clean-code reference first, enters ``apply()`` itself, and
    #: returns the list of oracle labels that noticed the defect.
    probe: Optional[Callable] = field(default=None, compare=False)


def _no_loss_decrease():
    """Eq. 6 disabled: a loss keeps the window that caused it."""
    from ..core.loss_handler import LossHandler

    def on_loss(self, w_loss):
        if self.in_recovery:
            return self._recovery_window
        self.losses += 1
        self.in_recovery = True
        self._recovery_window = max(self.min_window, w_loss)
        return self._recovery_window

    return _patched(LossHandler, "on_loss", on_loss)


def _broken_inversion():
    """Fig 5 inverse lookup ignores the target and pins at the domain max."""
    from ..interp.inverse import InverseLookup

    def largest_below(self, target):
        return float(self.f.domain[1])

    return _patched(InverseLookup, "largest_below", largest_below)


def _dest_floor_skip():
    """Eq. 4 without its D_min floors: the set-point may sink below the
    propagation floor (and keep sinking)."""
    from ..core.window_estimator import WindowEstimator

    def update_set_point(self, delta_d, d_max, d_min):
        if self.d_est is None:
            raise RuntimeError("set-point not initialised")
        if d_min <= 0:
            raise ValueError("d_min must be positive")
        if d_max / d_min > self.r:
            self.d_est -= self.delta2
            self.last_branch = "ratio"
        elif delta_d > 0:
            self.d_est -= self.delta1
            self.last_branch = "backoff"
        else:
            self.d_est += self.delta2
            self.last_branch = "increase"
        return self.d_est

    return _patched(WindowEstimator, "update_set_point", update_set_point)


def _conservation_leak():
    """The link silently discards every 23rd delivery without counting it
    anywhere — exactly the accounting bug the conservation ledger exists
    to catch."""
    from ..netsim.link import Link

    original = Link._deliver
    state = {"n": 0}

    def _deliver(self, packet):
        state["n"] += 1
        if state["n"] % 23 == 0:
            return
        original(self, packet)

    return _patched(Link, "_deliver", _deliver)


def _stale_interpolation_cache():
    """Perf defect: profile updates stop invalidating the interpolation
    cache.  The revision-keyed cache in DelayProfiler.interpolate() then
    keeps serving the old curve while fresh (window, delay) samples pile
    into the point set unseen — the window lookup steers on stale data
    until an unrelated key component (the d_min anchor) happens to move."""
    from ..core.delay_profiler import DelayProfiler

    def add_sample(self, window, delay, now=0.0):
        if self.updates_frozen:
            return
        if delay <= 0:
            raise ValueError(f"delay must be positive (got {delay})")
        key = max(0, int(round(window)))
        # Seeded defect: the revision bump is missing here.
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

    return _patched(DelayProfiler, "add_sample", add_sample)


def _dirty_freelist_ack():
    """Perf defect: the ACK freelist hands back a recycled packet without
    reassigning ``ack_seq``.  First-allocation ACKs are correct, so the
    bug only appears once recycling starts — every pooled ACK then
    acknowledges whatever sequence its previous life did."""
    from ..netsim.packet import Packet, PacketPool

    def acquire_ack(self, data, now, ack_seq, size):
        free = self._free
        if free:
            self.reused += 1
            ack = free.pop()
            ack.flow_id = data.flow_id
            ack.seq = data.seq
            ack.size = size
            ack.sent_time = now
            ack.is_ack = True
            # Seeded defect: ack.ack_seq keeps its previous-life value.
            ack.echo_sent_time = data.sent_time
            ack.window_at_send = data.window_at_send
            ack.retransmission = data.retransmission
            ack.enqueue_time = 0.0
            ack.ecn = False
            ack.payload = None
            return ack
        self.allocated += 1
        return Packet(
            flow_id=data.flow_id,
            seq=data.seq,
            size=size,
            sent_time=now,
            is_ack=True,
            ack_seq=ack_seq,
            echo_sent_time=data.sent_time,
            window_at_send=data.window_at_send,
            retransmission=data.retransmission,
        )

    return _patched(PacketPool, "acquire_ack", acquire_ack)


def _tracelink_wrap_off_by_one():
    """Perf defect: the wraparound branch advances the replay cycle
    counter twice — exactly what happens if the inlined fast path *and*
    the retained ``_next_opportunity_time`` helper each bump ``_cycle``.
    Every loop then skips one full trace period of opportunities, so the
    link goes silent for a period after each seam."""
    from ..netsim.trace_link import TraceLink

    def _opportunity(self):
        self._index += 1
        budget = self.bytes_per_opportunity
        queue = self.queue
        now = self.sim.now
        served_any = False
        while budget > 0:
            head = queue.peek()
            if head is None or head.size > budget:
                break
            packet = queue.pop(now)
            budget -= packet.size
            served_any = True
            self._deliver(packet)
        if not served_any:
            self.wasted_opportunities += 1
        i = self._index
        if i >= self._n:
            if not self.loop:
                return
            self._index = i = 0
            # Seeded defect: the cycle counter is bumped twice at the seam.
            self._cycle += 2
            self._cycle_base = self._origin + self._cycle * self._period
        when = self._cycle_base + self._times_view[i]
        if when < now:
            when = now
        self.sim.call_at(when, self._opportunity)

    return _patched(TraceLink, "_opportunity", _opportunity)


def _stale_likelihood_cache():
    """Perf defect: the Sprout likelihood cache's hit path ignores the
    packet-count key and serves whichever row was inserted last.  The
    first tick (cold cache) is correct, so the bug only appears once a
    row exists — every later observation then updates the belief with
    some other tick's likelihood."""
    from ..sprout import forecast as forecast_mod

    original = forecast_mod.RateBelief.observe

    def observe(self, packets, censored=False):
        if not censored and packets >= 0 and self._lik_cache:
            # Seeded defect: cache hit keyed on "most recent" instead of
            # the packet count.
            stale_key = next(reversed(self._lik_cache))
            return original(self, stale_key, censored=False)
        return original(self, packets, censored=censored)

    return _patched(forecast_mod.RateBelief, "observe", observe)


def _probe_stale_likelihood_cache(apply):
    """Oracle: per-tick budgets on a fixed arrival stream must match the
    clean implementation exactly — any cache-coherence defect in the
    forecaster shows up as a budget divergence."""
    from ..sprout.forecast import SproutForecaster

    counts = [5, 9, 5, 2, 9, 14, 2, 7, 9, 3]

    def budgets():
        forecaster = SproutForecaster(rate_cap_bps=18e6)
        return [forecaster.on_tick(count) for count in counts]

    reference = budgets()
    with apply():
        mutated = budgets()
    if mutated != reference:
        return ["probe:forecast-budget-divergence"]
    return []


def _stale_worker_trace_memo():
    """Perf defect: the worker's trace memo skips the stat-signature
    check, so a memo hit survives mid-sweep corpus mutation — cells keep
    simulating a trace that no longer exists on disk, silently."""
    from ..campaign import spec as campaign_spec

    original = campaign_spec._load_task_trace

    def load(task):
        entry = campaign_spec._TRACE_MEMO.get(
            (task.trace_file, task.trace_sha256))
        if entry is not None:
            # Seeded defect: the file's stat signature is never checked.
            return entry[1].copy()
        return original(task)

    return _patched(campaign_spec, "_load_task_trace", load)


def _probe_stale_trace_memo(apply):
    """Oracle: after the corpus file changes on disk, a load pinned to
    the *old* content hash must refuse (the clean memo re-verifies and
    raises); serving bytes that differ from the on-disk trace means the
    memo handed out stale content."""
    import os
    import tempfile
    from types import SimpleNamespace

    import numpy as np

    from ..campaign import spec as campaign_spec
    from ..traces.corpus import trace_sha256
    from ..traces.formats import read_trace_ms

    def write_trace(path, step):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(t) for t in range(0, 1000, step)) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.trace")
        write_trace(path, 10)
        pin = trace_sha256(read_trace_ms(path, fmt="mahimahi"))
        task = SimpleNamespace(trace_file=path, trace_sha256=pin)
        campaign_spec._TRACE_MEMO.clear()
        try:
            campaign_spec._load_task_trace(task)  # clean load seeds memo
            write_trace(path, 25)                 # corpus mutates mid-sweep
            with apply():
                try:
                    served = campaign_spec._load_task_trace(task)
                except ValueError:
                    return []   # refused like clean code: defect inert
            disk = read_trace_ms(path, fmt="mahimahi").astype(float) / 1000.0
            if served.shape != disk.shape \
                    or not np.array_equal(served, disk):
                return ["probe:memo-served-stale-trace"]
            return []
        finally:
            campaign_spec._TRACE_MEMO.clear()


def _cubic_no_decrease():
    """Cubic's loss response disabled: ssthresh is set to the pre-loss
    window, so a congestion signal no longer reduces the rate."""
    from ..tcp.cubic import CubicSender

    def ssthresh_on_loss(self):
        return self.cwnd

    return _patched(CubicSender, "ssthresh_on_loss", ssthresh_on_loss)


MUTANTS: List[Mutant] = [
    Mutant(name="verus-no-loss-decrease", protocol="verus",
           description="eq. 6 disabled (loss keeps the window)",
           apply=_no_loss_decrease),
    Mutant(name="verus-broken-inversion", protocol="verus",
           description="profile inverse pinned at the domain maximum",
           apply=_broken_inversion),
    Mutant(name="verus-dest-floor-skip", protocol="verus",
           description="eq. 4 set-point floor removed",
           apply=_dest_floor_skip),
    Mutant(name="link-conservation-leak", protocol="verus",
           description="link drops every 23rd delivery uncounted",
           apply=_conservation_leak),
    Mutant(name="cubic-no-decrease", protocol="cubic",
           description="Cubic multiplicative decrease disabled",
           apply=_cubic_no_decrease),
    Mutant(name="stale-interpolation-cache", protocol="verus",
           description="profile updates stop invalidating the curve cache",
           apply=_stale_interpolation_cache),
    Mutant(name="dirty-freelist-ack", protocol="verus",
           description="recycled pooled ACK keeps its previous ack_seq",
           apply=_dirty_freelist_ack),
    Mutant(name="tracelink-wrap-off-by-one", protocol="verus-trace",
           description="trace replay skips each cycle's first opportunity",
           apply=_tracelink_wrap_off_by_one),
    Mutant(name="stale-likelihood-cache", protocol="sprout",
           description="forecaster cache serves the wrong packet-count row",
           apply=_stale_likelihood_cache,
           probe=_probe_stale_likelihood_cache),
    Mutant(name="stale-worker-trace-memo", protocol="campaign",
           description="trace memo ignores mid-sweep corpus mutation",
           apply=_stale_worker_trace_memo,
           probe=_probe_stale_trace_memo),
]


@dataclass
class MutantResult:
    """Which oracles caught one mutant."""

    name: str
    protocol: str
    description: str
    caught_by: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def caught(self) -> bool:
        return bool(self.caught_by)

    def to_dict(self) -> dict:
        return {"name": self.name, "protocol": self.protocol,
                "description": self.description,
                "caught_by": list(self.caught_by), "error": self.error}


def run_mutation_smoke(mutants: List[Mutant] = None,
                       golden_dir=None) -> List[MutantResult]:
    """Run every mutant through its audited scenario; report the catches."""
    if mutants is None:
        mutants = MUTANTS
    golden_dir = golden_dir if golden_dir is not None else default_golden_dir()
    results: List[MutantResult] = []
    for mutant in mutants:
        outcome = MutantResult(name=mutant.name, protocol=mutant.protocol,
                               description=mutant.description)
        if mutant.probe is not None:
            # Self-contained detector: the probe computes its clean-code
            # reference, applies the patch itself, and reports catches.
            try:
                outcome.caught_by.extend(mutant.probe(mutant.apply))
            except Exception as exc:
                outcome.caught_by.append("exception")
                outcome.error = repr(exc)
            results.append(outcome)
            continue
        scenario = build_scenario(mutant.protocol)
        try:
            with mutant.apply():
                run = run_audited(scenario)
        except Exception as exc:   # a crash is a (crude) detection too
            outcome.caught_by.append("exception")
            outcome.error = repr(exc)
            results.append(outcome)
            continue
        for monitor in run.report.monitors_violated():
            outcome.caught_by.append(f"invariant:{monitor}")
        blessed = load_golden(golden_path(golden_dir, mutant.protocol))
        if blessed is not None and compare_golden(blessed, scenario, run.rows):
            outcome.caught_by.append("golden")
        results.append(outcome)
    return results
