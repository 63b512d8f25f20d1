"""Runs one workload, checks its outputs and turns the run into metrics.

An untraced run (``trace=False``) sets up several times and reports the
median, then repeats the workload's pass until ``seconds`` have passed
(at least twice, so the run always checks that two passes agree), and
reports the end-to-end metrics as medians over the passes.

A traced run (``trace=True``) times one untraced pass, then one pass with
the :class:`~perfbench.tracer.Tracer` installed, and reports the
per-layer metrics of the traced pass.  Both passes must produce the same
digests: tracing must not perturb the simulation.
"""

from __future__ import annotations

import json
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .workloads import WORKLOADS, PassResult

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Modules every workload imports before it can start.  Importing them is
#: part of set-up: work moved into import time shows in ``setup_s``.
PROGRAM_MODULES = ("repro", "repro.experiments.runner", "repro.campaign",
                   "repro.check.runner", "repro.traces", "repro.obs")

#: End-to-end metrics and their units (untraced runs).
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "pkts_per_s": "1/s",
    "cells_per_s": "1/s", "cell_p50_s": "s", "cell_p75_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units (traced runs).
PER_LAYER = {
    "engine.events": "count", "engine.self_s": "s",
    "trace_link.opportunities": "count", "trace_link.used_frac": "ratio",
    "trace_link.self_s": "s",
    "queues.enqueued": "count", "queues.drop_frac": "ratio",
    "queues.self_s": "s",
    "link.sends": "count", "link.self_s": "s",
    "core.acks": "count", "core.epochs": "count",
    "core.retransmissions": "count", "core.self_s": "s",
    "profile.samples": "count", "profile.rebuilds": "count",
    "profile.lookups": "count", "profile.self_s": "s",
    "tcp.acks": "count", "tcp.retransmissions": "count", "tcp.self_s": "s",
    "sprout.ticks": "count", "sprout.censored_frac": "ratio",
    "sprout.forecast_s": "s", "sprout.self_s": "s",
    "obs.records": "count", "obs.self_s": "s",
    "cellular.self_s": "s",
    "traces.loads": "count", "traces.self_s": "s",
    "metrics.self_s": "s",
    "campaign.dispatch_s": "s", "campaign.queue_wait_s": "s",
    "campaign.trace_load_s": "s", "campaign.sim_run_s": "s",
    "campaign.store_get_s": "s", "campaign.store_put_s": "s",
    "campaign.cache_hit_frac": "ratio", "campaign.retries": "count",
    "check.invariant_checks": "count", "check.mutants": "count",
    "check.self_s": "s",
    "trace.unattributed_s": "s", "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0       # ru_maxrss is in KiB on Linux


def hd_quantile(samples: List[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile: a mean of all the
    order statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass that
    falls on each.  It lies between the fastest and the slowest sample,
    also for fig10-verus's two.  The sample quantile jumps when one sample
    crosses a gap, and corpus-sweep's fast 3G cells and slow LTE cells
    meet right at the median."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # The Beta CDF by the trapezoid rule; the pdf is 0 (or an integrable
    # pole, left out) at the two ends.
    t = np.linspace(0.0, 1.0, 4001)
    pdf = np.zeros_like(t)
    inner = t[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf[1:-1] = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def op_quantiles(samples: List[float]) -> Tuple[float, float, int]:
    """Median and p75 of one pass's operation times (Harrell-Davis), and
    how many lie beyond the p75.  corpus-sweep's 48 cells put 12 beyond
    it."""
    if len(samples) < 2:
        return samples[0], samples[0], 0
    p75 = hd_quantile(samples, 0.75)
    return (hd_quantile(samples, 0.5), p75,
            sum(1 for s in samples if s > p75))


@dataclass
class MeasuredPass:
    result: PassResult
    wall_s: float
    cpu_s: float


@dataclass
class Verdict:
    """Output checking across the passes of one run."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, passes: List[PassResult],
              pinned: Optional[Dict[str, str]],
              expected: Optional[List[str]] = None) -> None:
        """Every pass must attempt exactly the expected operations: the
        pinned ones when the seed is pinned, else ``expected``, else the
        first pass's.  Every operation of the first pass must match its
        pinned digest (when the seed is pinned); every later pass must
        reproduce the first pass's digests.  An expected operation a pass
        left out counts as attempted and failed."""
        if pinned is not None:
            expected = list(pinned)
        elif expected is None:
            expected = [op.label for op in passes[0].ops]
        reference = {op.label: op.digest for op in passes[0].ops}
        for index, result in enumerate(passes):
            seen = set()
            for op in result.ops:
                self.attempted += 1
                problem = op.error
                if problem is None and op.label in seen:
                    problem = "operation repeated within the pass"
                if problem is None and op.label not in expected:
                    problem = "operation not expected"
                if problem is None and op.digest is None:
                    problem = "no output digest"
                if problem is None and index == 0 and pinned is not None:
                    if pinned[op.label] != op.digest:
                        problem = (f"digest {op.digest[:12]} != pinned "
                                   f"{pinned[op.label][:12]}")
                if problem is None and op.digest != reference.get(op.label):
                    problem = "digest differs from the run's first pass"
                seen.add(op.label)
                self._record(index, op.label, problem)
            for label in expected:
                if label not in seen:
                    self.attempted += 1
                    self._record(index, label, "operation missing")

    def _record(self, index: int, label: str, problem: Optional[str]) -> None:
        if problem is not None:
            self.failed += 1
            self.errors.append(f"pass {index} {label}: {problem}")


#: Pinned output digests: workload -> seed -> operation -> digest.
PINS_PATH = Path(__file__).with_name("digests.json")


def load_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


class Harness:
    """Runs one workload at one seed inside ``root`` (the checkout)."""

    def __init__(self, root: Path, workload: str, seed: int,
                 scale: float = 1.0, check_pins: bool = True):
        self.root = Path(root)
        self.check_pins = check_pins
        self.workload = WORKLOADS[workload](self.root, scale=scale)
        self.seed = seed
        scratch = self.root / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.scratch = scratch
        self.import_s = 0.0

    # -- set-up --------------------------------------------------------
    def import_program(self) -> None:
        started = time.perf_counter()
        for module in PROGRAM_MODULES:
            __import__(module)
        self.import_s = time.perf_counter() - started

    def setup(self, workdir: Path) -> Tuple[object, float]:
        """Set up ``SETUP_REPEATS`` times from scratch; returns the last
        context and the median set-up seconds (imports included)."""
        times, ctx = [], None
        for rep in range(SETUP_REPEATS):
            target = workdir / f"setup-{rep}"
            target.mkdir()
            started = time.perf_counter()
            ctx = self.workload.setup(self.seed, target)
            times.append(time.perf_counter() - started)
        return ctx, self.import_s + statistics.median(times)

    # -- passes --------------------------------------------------------
    def measure_pass(self, ctx, workdir: Path, tracer=None) -> MeasuredPass:
        cpu = _cpu_seconds()
        started = time.perf_counter()
        result = self.workload.run_pass(self.seed, ctx, workdir, tracer)
        wall = time.perf_counter() - started
        return MeasuredPass(result, wall, _cpu_seconds() - cpu)

    def pinned(self) -> Optional[Dict[str, str]]:
        """The digests this run's outputs must match, if any.  A workload
        whose inputs ignore ``--seed`` matches its default seed's pins at
        every seed that has none of its own."""
        if not self.check_pins:
            return None
        pins = load_pins().get(self.workload.name, {})
        if str(self.seed) in pins:
            return pins[str(self.seed)]
        if self.workload.seed_free:
            return pins.get(str(self.workload.default_seed))
        return None

    def verdict(self, passes: List[PassResult]) -> Verdict:
        verdict = Verdict()
        verdict.check(passes, self.pinned(), self.workload.expected_labels())
        return verdict

    def run(self, seconds: float, trace: bool) -> dict:
        """One run; :meth:`import_program` must have been called first."""
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            workdir = Path(tmp)
            ctx, setup_s = self.setup(workdir)
            if trace:
                return self._traced(ctx, workdir, setup_s)
            return self._timed(ctx, workdir, setup_s, seconds)

    def _timed(self, ctx, workdir: Path, setup_s: float,
               seconds: float) -> dict:
        passes: List[MeasuredPass] = []
        started = time.perf_counter()
        while len(passes) < 2 or (
                time.perf_counter() - started
                + statistics.median(p.wall_s for p in passes) <= seconds):
            passes.append(self.measure_pass(ctx, workdir))
        verdict = self.verdict([p.result for p in passes])
        # Operation times are quantiled per pass, then the median taken
        # over passes.  Pooling across passes would put the median of the
        # experiment workloads (a few distinct experiments per pass) in the
        # gap between two clusters of nearly equal samples.
        quantiles = [op_quantiles([op.seconds for op in p.result.ops])
                     for p in passes]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "pkts_per_s": statistics.median(
                p.result.packets / p.wall_s for p in passes),
            "cells_per_s": statistics.median(
                len(p.result.ops) / (p.result.cell_phase_s or p.wall_s)
                for p in passes),
            "cell_p50_s": statistics.median(q[0] for q in quantiles),
            "cell_p75_s": statistics.median(q[1] for q in quantiles),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return {"metrics": metrics, "units": END_TO_END, "verdict": verdict,
                "passes": len(passes),
                "pass_wall_s": [p.wall_s for p in passes],
                "pass_cpu_s": [p.cpu_s for p in passes],
                "cell_samples": len(passes[0].result.ops),
                "cell_samples_beyond_p75": quantiles[0][2],
                "first_pass": passes[0].result}

    def _traced(self, ctx, workdir: Path, setup_s: float) -> dict:
        from .tracer import Tracer

        plain = self.measure_pass(ctx, workdir)
        tracer = Tracer()
        with tracer:
            with tracer.span("bench:pass"):
                traced = self.measure_pass(ctx, workdir, tracer)
        verdict = self.verdict([plain.result, traced.result])
        # One file per workload: the latest traced run's spans.
        spans_path = self.scratch / f"spans-{self.workload.name}.npz"
        tracer.write(spans_path)
        metrics = layer_metrics(tracer, traced.result)
        metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        return {"metrics": metrics, "units": PER_LAYER, "verdict": verdict,
                "passes": 2, "spans": str(spans_path.relative_to(self.root)),
                "setup_s": setup_s, "traced_wall_s": traced.wall_s,
                "untraced_wall_s": plain.wall_s,
                "first_pass": plain.result}


def _sum_counts(counts: Dict[str, int], layer: str, suffix: str = "") -> int:
    return sum(n for name, n in counts.items()
               if name.startswith(layer + ":") and name.endswith(suffix)
               and ":monitor " not in name)


def layer_metrics(tracer, result: PassResult) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    layers, unattributed, _ = tracer.layer_self_times()
    spans = tracer.span_counts()
    counts = tracer.counts
    extra = result.layer_metrics

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    opportunities = spans.get("trace_link:TraceLink._opportunity", 0)
    enqueued = counts.get("queues.enqueued", 0)
    dropped = counts.get("queues.dropped", 0)
    ticks = spans.get("sprout:SproutForecaster.on_tick", 0)
    metrics = {
        "engine.events": counts.get("engine.events", 0),
        "trace_link.opportunities": opportunities,
        "trace_link.used_frac": ratio(
            opportunities - counts.get("trace_link.wasted", 0),
            opportunities),
        "queues.enqueued": enqueued,
        "queues.drop_frac": ratio(dropped, enqueued + dropped),
        "link.sends": _sum_counts(spans, "link"),
        "core.acks": _sum_counts(spans, "core", ".on_ack"),
        "core.epochs": spans.get("core:VerusSender._on_epoch", 0),
        "core.retransmissions": counts.get("core.retransmissions", 0),
        "profile.samples": spans.get("profile:DelayProfiler.add_sample", 0),
        "profile.rebuilds": counts.get("profile.rebuilds", 0),
        "profile.lookups": spans.get(
            "profile:DelayProfiler.window_for_delay", 0),
        "tcp.acks": _sum_counts(spans, "tcp", ".on_ack"),
        "tcp.retransmissions": counts.get("tcp.retransmissions", 0),
        "sprout.ticks": ticks,
        "sprout.censored_frac": ratio(counts.get("sprout.censored", 0),
                                      ticks),
        "sprout.forecast_s": tracer.inclusive_seconds(
            "sprout:SproutForecaster.on_tick"),
        "obs.records": _sum_counts(spans, "obs"),
        "traces.loads": spans.get("traces:Corpus.load_ms", 0),
        "campaign.dispatch_s": tracer.self_seconds("campaign:run_tasks"),
        "campaign.queue_wait_s": extra.get("campaign.queue_wait_s", 0.0),
        "campaign.trace_load_s": extra.get("campaign.trace_load_s", 0.0),
        "campaign.sim_run_s": extra.get("campaign.sim_run_s", 0.0),
        "campaign.store_get_s": tracer.inclusive_seconds(
            "campaign:ResultStore.get"),
        "campaign.store_put_s": tracer.inclusive_seconds(
            "campaign:ResultStore.put"),
        "campaign.cache_hit_frac": extra.get("campaign.cache_hit_frac", 0.0),
        "campaign.retries": extra.get("campaign.retries", 0.0),
        "check.invariant_checks": extra.get("check.invariant_checks", 0.0),
        "check.mutants": extra.get("check.mutants", 0.0),
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": tracer.overhead_seconds(),
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_s"] = seconds
    return {name: float(metrics[name]) for name in PER_LAYER
            if name in metrics}
