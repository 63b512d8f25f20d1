"""Named benchmark suite with content-hashed workloads and compare mode.

Every benchmark is a (setup, run) pair: ``setup`` builds the workload
deterministically from pinned seeds and parameters, the workload is
content-hashed (SHA-256 over canonical bytes, like corpus traces), and
``run`` is what gets timed.  The hash is recorded next to the timing so
a later compare knows whether two numbers measured the same work — a
regression against a *different* workload is not a regression, it is an
incomparable measurement, and the compare mode says so explicitly.

Results are written as schema-versioned ``BENCH_<label>.json`` files
(``repro.bench/1``).  :func:`compare` diffs two result files against
per-benchmark tolerance bands; tolerances live in the result file
itself, so file-vs-file comparison needs no access to this module's
current defaults.

Execution goes through the campaign engine's :func:`run_tasks`, so
``--jobs N`` parallelises benchmarks across processes with the same
crash isolation sweeps get; workload hashes must come out bit-identical
regardless of the job count (setup depends only on pinned seeds, never
on execution order), and the test suite holds us to that.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import __version__ as REPRO_VERSION

BENCH_SCHEMA = "repro.bench/1"

#: Default relative tolerance bands by benchmark kind.  Micro benchmarks
#: time tight loops and jitter less; macro benchmarks run whole
#: simulations and breathe more on shared CI hardware.
DEFAULT_TOLERANCE = {"micro": 0.35, "macro": 0.50}


# ----------------------------------------------------------------------
# Workload hashing
# ----------------------------------------------------------------------
def hash_parts(*parts: Any) -> str:
    """SHA-256 over canonical byte renderings of the workload pieces.

    Arrays contribute dtype + shape + C-order bytes; everything else is
    canonical sorted-key JSON.  The digest identifies workload *content*,
    so equal inputs hash equally across processes, job counts, and runs.
    """
    import numpy as np

    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True,
                                     separators=(",", ":")).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Benchmark definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchmarkDef:
    """One named benchmark: deterministic setup + timed run.

    ``setup(params)`` returns ``(workload, workload_hash)``;
    ``run(workload)`` executes the measured work and returns a
    JSON-safe checksum (result sanity value, also compared across
    repeats).  ``params`` maps mode name -> parameter dict.
    """

    name: str
    kind: str                    # "micro" | "macro"
    summary: str
    setup: Callable[[dict], Tuple[Any, str]]
    run: Callable[[Any], Any]
    params: Dict[str, dict]
    repeats: Dict[str, int]
    tolerance: Optional[float] = None
    #: Optional reference workload run interleaved with ``run`` (pairs:
    #: baseline, measured, baseline, measured...).  The result then also
    #: carries ``baseline_seconds`` and ``overhead_ratio`` — the median
    #: of per-pair ratios, which cancels the machine drift that makes a
    #: ratio of two *separately timed* benchmarks unreliable.
    baseline_run: Optional[Callable[[Any], Any]] = None

    def band(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return DEFAULT_TOLERANCE[self.kind]


def _setup_engine(params: dict) -> Tuple[Any, str]:
    return params, hash_parts("engine.events", params)


def _run_engine(workload: dict) -> int:
    from ..netsim import Simulator
    sim = Simulator()
    counter = [0]

    def tick() -> None:
        counter[0] += 1

    # The data plane schedules through the tuple fast path (call_later),
    # so that is what engine throughput means here; the Event-handle path
    # is covered by sim.verus_direct's timer churn.
    for i in range(workload["events"]):
        sim.call_later(i * 1e-6, tick)
    sim.run()
    return counter[0]


def _setup_droptail(params: dict) -> Tuple[Any, str]:
    return params, hash_parts("queue.droptail", params)


def _run_droptail(workload: dict) -> int:
    from ..netsim import DropTailQueue, Packet
    queue = DropTailQueue()
    for i in range(workload["packets"]):
        queue.push(Packet(flow_id=0, seq=i), 0.0)
    drained = 0
    while queue.pop(0.0) is not None:
        drained += 1
    return drained


def _setup_red(params: dict) -> Tuple[Any, str]:
    return params, hash_parts("queue.red", params)


def _run_red(workload: dict) -> int:
    import numpy as np

    from ..netsim import Packet, REDQueue
    rng = np.random.default_rng(workload["seed"])
    queue = REDQueue(min_th_bytes=2_000_000, max_th_bytes=6_000_000, rng=rng)
    accepted = 0
    for i in range(workload["packets"]):
        if queue.push(Packet(flow_id=0, seq=i), 0.0):
            accepted += 1
    return accepted


def _setup_pchip(params: dict) -> Tuple[Any, str]:
    import numpy as np
    rng = np.random.default_rng(params["seed"])
    x = np.sort(rng.choice(np.arange(1, 2000), size=params["points"],
                           replace=False)).astype(float)
    y = np.cumsum(rng.random(params["points"])) * 0.001 + 0.02
    workload = {"x": x, "y": y, "builds": params["builds"]}
    return workload, hash_parts("interp.pchip", params, x, y)


def _run_pchip(workload: dict) -> float:
    import numpy as np

    from ..interp import PchipInterpolator
    x, y = workload["x"], workload["y"]
    grid = np.linspace(x[0], x[-1], 512)
    total = 0.0
    for _ in range(workload["builds"]):
        spline = PchipInterpolator(x, y)
        total += float(np.sum(spline(grid)))
    return round(total, 6)


def _setup_inverse(params: dict) -> Tuple[Any, str]:
    import numpy as np
    rng = np.random.default_rng(params["seed"])
    x = np.sort(rng.choice(np.arange(1, 2000), size=params["points"],
                           replace=False)).astype(float)
    y = np.cumsum(rng.random(params["points"])) * 0.001 + 0.02
    workload = {"x": x, "y": y, "rounds": params["rounds"],
                "targets": (0.03, 0.08, 0.15, 0.4)}
    return workload, hash_parts("interp.inverse", params, x, y)


def _run_inverse(workload: dict) -> float:
    from ..interp import InverseLookup, PchipInterpolator
    total = 0.0
    for _ in range(workload["rounds"]):
        spline = PchipInterpolator(workload["x"], workload["y"])
        lookup = InverseLookup(spline)
        for target in workload["targets"]:
            total += lookup.largest_below(target)
    return round(total, 6)


def _setup_profile_update(params: dict) -> Tuple[Any, str]:
    import numpy as np
    rng = np.random.default_rng(params["seed"])
    windows = rng.integers(1, 400, size=params["samples"])
    delays = rng.uniform(0.02, 0.3, size=params["samples"])
    workload = {"windows": windows, "delays": delays,
                "rebuild_every": params["rebuild_every"]}
    return workload, hash_parts("profile.update", params, windows, delays)


def _run_profile_update(workload: dict) -> int:
    from ..core import DelayProfiler
    profiler = DelayProfiler()
    windows, delays = workload["windows"], workload["delays"]
    every = workload["rebuild_every"]
    for i in range(windows.size):
        profiler.add_sample(int(windows[i]), float(delays[i]), now=i * 0.001)
        if i % every == every - 1:
            profiler.interpolate(d_min=0.02, now=i * 0.001)
    return profiler.interpolations


def _setup_channel(params: dict) -> Tuple[Any, str]:
    return params, hash_parts("channel.generate", params)


def _run_channel(workload: dict) -> int:
    import numpy as np

    from ..cellular import CellularChannelModel, ChannelParams
    model = CellularChannelModel(
        ChannelParams(mean_rate_bps=workload["rate_bps"]),
        rng=np.random.default_rng(workload["seed"]))
    return model.generate(workload["duration"]).size


def _setup_tracelink(params: dict) -> Tuple[Any, str]:
    import numpy as np

    from ..cellular import CellularChannelModel, ChannelParams
    model = CellularChannelModel(
        ChannelParams(mean_rate_bps=params["rate_bps"]),
        rng=np.random.default_rng(params["seed"]))
    opportunities = model.generate(params["duration"])
    workload = {"opportunities": opportunities, "packets": params["packets"]}
    return workload, hash_parts("tracelink.replay", params, opportunities)


def _run_tracelink(workload: dict) -> int:
    from ..netsim import Packet, Simulator
    from ..netsim.trace_link import TraceLink
    sim = Simulator()
    received = [0]

    def sink(_packet) -> None:
        received[0] += 1

    link = TraceLink(sim, workload["opportunities"], dst=sink, loop=False)
    for i in range(workload["packets"]):
        link.send(Packet(flow_id=0, seq=i))
    sim.run()
    return received[0]


def _setup_verus_direct(params: dict) -> Tuple[Any, str]:
    return params, hash_parts("sim.verus_direct", params)


def _run_verus_direct(workload: dict) -> int:
    from ..core import VerusConfig, VerusReceiver, VerusSender
    from ..netsim import DirectPath, DropTailQueue, Link, Simulator
    sim = Simulator()
    link = Link(sim, rate_bps=workload["rate_bps"], queue=DropTailQueue())
    sender = VerusSender(0, VerusConfig())
    receiver = VerusReceiver(0)
    DirectPath(sim, link, sender, receiver,
               rtt=workload["rtt"], ack_pool=True).run(workload["duration"])
    return receiver.packets_received


def _setup_sprout_forecast(params: dict) -> Tuple[Any, str]:
    import numpy as np
    rng = np.random.default_rng(params["seed"])
    packets = rng.integers(0, params["max_packets"] + 1,
                           size=params["ticks"]).astype(np.int64)
    censored = rng.random(params["ticks"]) < params["censored_frac"]
    workload = {"packets": packets, "censored": censored,
                "rate_cap_bps": params["rate_cap_bps"]}
    return workload, hash_parts("sprout.forecast", params, packets,
                                censored.astype(np.int64))


def _run_sprout_forecast(workload: dict) -> float:
    from ..sprout import SproutForecaster
    # Fresh forecaster per repeat: the belief is stateful, and every
    # repeat must do identical work for the checksum to hold.
    forecaster = SproutForecaster(rate_cap_bps=workload["rate_cap_bps"])
    packets, censored = workload["packets"], workload["censored"]
    total = 0.0
    for i in range(packets.size):
        total += forecaster.on_tick(int(packets[i]),
                                    censored=bool(censored[i]))
    return round(total, 6)


def _setup_sweep_dispatch(params: dict) -> Tuple[Any, str]:
    import os
    import tempfile

    import numpy as np

    from ..campaign.spec import TaskSpec
    from ..traces.corpus import trace_sha256
    from ..traces.formats import write_trace_ms
    rng = np.random.default_rng(params["seed"])
    span_ms = int(params["trace_seconds"] * 1000)
    times_ms = np.sort(rng.integers(
        0, span_ms, size=params["opportunities"])).astype(np.int64)
    # The trace lives in a temp dir, but the workload hash covers its
    # *content* plus the grid parameters — never the path — so runs on
    # different machines/tmpdirs stay comparable.
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-sweep-")
    trace_path = os.path.join(tmpdir, "cell.pps")
    write_trace_ms(trace_path, times_ms, "mahimahi")
    digest = trace_sha256(times_ms)
    payloads = []
    for cell in range(params["cells"]):
        task = TaskSpec(scenario="bench-trace", protocol=params["protocol"],
                        flows=1, duration=params["duration"],
                        seed=1000 + cell, seed_index=cell,
                        rtt=0.05, warmup=params["warmup"],
                        trace_file=trace_path, trace_sha256=digest)
        payloads.append(task.to_dict())
    workload = {"payloads": payloads, "jobs": params["jobs"]}
    return workload, hash_parts("sweep.dispatch", params, times_ms)


def _run_sweep_dispatch(workload: dict) -> float:
    from ..campaign.executor import run_tasks
    from ..campaign.spec import run_simulation_task
    # Cache-cold by construction: no store, and each repeat spawns a
    # fresh worker pool, so per-worker warm state never leaks between
    # repeats — what is measured is dispatch + trace load + simulation.
    run = run_tasks(workload["payloads"], run_simulation_task,
                    jobs=workload["jobs"], retries=0)
    if not run.all_ok:
        bad = next(o for o in run.outcomes if not o.ok)
        raise RuntimeError(f"sweep.dispatch cell {bad.index} "
                           f"{bad.status}: {bad.error}")
    total = 0.0
    for outcome in run.outcomes:
        for flow in outcome.result["flows"]:
            total += flow["stats"]["throughput_bps"]
    return round(total, 3)


def _contention_setup(name: str, params: dict) -> Tuple[Any, str]:
    from ..cellular import generate_scenario_trace
    trace = generate_scenario_trace(params["scenario"],
                                    duration=params["duration"],
                                    technology=params["technology"],
                                    seed=params["seed"])
    workload = dict(params)
    workload["trace"] = trace
    return workload, hash_parts(name, params, trace)


def _setup_contention(params: dict) -> Tuple[Any, str]:
    return _contention_setup("sim.contention", params)


def _run_contention(workload: dict) -> int:
    from ..experiments.runner import repeat_flows, run_trace_contention
    result = run_trace_contention(
        workload["trace"],
        repeat_flows("verus", workload["flows"], r=2.0),
        duration=workload["duration"], warmup=workload["warmup"],
        seed=workload["seed"])
    return sum(r.packets_received for r in result.receivers)


def _setup_contention_telemetry(params: dict) -> Tuple[Any, str]:
    import numpy as np

    from ..cellular import CellularChannelModel, ChannelParams
    model = CellularChannelModel(
        ChannelParams(mean_rate_bps=params["rate_bps"]),
        rng=np.random.default_rng(params["seed"]))
    trace = model.generate(params["duration"])
    workload = dict(params)
    workload["trace"] = trace
    return workload, hash_parts("sim.contention_telemetry", params, trace)


def _run_contention_telemetry(workload: dict) -> int:
    from ..experiments.runner import repeat_flows, run_trace_contention
    from .timeline import TelemetrySession, telemetry
    with telemetry(TelemetrySession()):
        result = run_trace_contention(
            workload["trace"],
            repeat_flows("verus", workload["flows"], r=2.0),
            duration=workload["duration"], warmup=workload["warmup"],
            seed=workload["seed"])
    return sum(r.packets_received for r in result.receivers)


_CONTENTION_PARAMS = {
    "quick": {"scenario": "campus_stationary", "technology": "lte",
              "duration": 4.0, "warmup": 1.0, "flows": 2, "seed": 5},
    "full": {"scenario": "campus_pedestrian", "technology": "lte",
             "duration": 10.0, "warmup": 2.0, "flows": 3, "seed": 5},
}

#: The telemetry pair runs on a saturated LTE-class cell (50 Mbps,
#: ~3800 pkt/s) rather than a named mobility scenario: the cost of a
#: telemetry row is fixed per control epoch, so the relative overhead
#: depends only on how much simulation work each epoch carries.  A fast
#: cell is the regime where performance matters — and the regime the
#: overhead bound is stated for; a starved 3G cell (~500 pkt/s) would
#: multiply the ratio several-fold without a byte of telemetry changing.
#: Legs are kept short (~200 ms) and repeats high so the paired
#: estimator gets many shots at an unpolluted sample of each side.
_TELEMETRY_PARAMS = {
    "quick": {"rate_bps": 50e6, "duration": 1.5, "warmup": 0.5,
              "flows": 2, "seed": 5},
    "full": {"rate_bps": 50e6, "duration": 3.0, "warmup": 1.0,
             "flows": 3, "seed": 5},
}

BENCHMARKS: Dict[str, BenchmarkDef] = {}


def _register(bench: BenchmarkDef) -> None:
    if bench.name in BENCHMARKS:
        raise ValueError(f"duplicate benchmark {bench.name!r}")
    BENCHMARKS[bench.name] = bench


_register(BenchmarkDef(
    name="engine.events", kind="micro",
    summary="heap engine schedule+dispatch throughput (tuple fast path)",
    setup=_setup_engine, run=_run_engine,
    params={"quick": {"events": 30_000}, "full": {"events": 100_000}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="queue.droptail", kind="micro",
    summary="drop-tail queue push/pop cycle",
    setup=_setup_droptail, run=_run_droptail,
    params={"quick": {"packets": 10_000}, "full": {"packets": 10_000}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="queue.red", kind="micro",
    summary="RED EWMA + probabilistic drop path",
    setup=_setup_red, run=_run_red,
    params={"quick": {"packets": 10_000, "seed": 0},
            "full": {"packets": 10_000, "seed": 0}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="interp.pchip", kind="micro",
    summary="PCHIP construction + 512-point grid evaluation",
    setup=_setup_pchip, run=_run_pchip,
    params={"quick": {"points": 256, "builds": 5, "seed": 0},
            "full": {"points": 256, "builds": 20, "seed": 0}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="interp.inverse", kind="micro",
    summary="spline fit + inverse window lookup throughput",
    setup=_setup_inverse, run=_run_inverse,
    params={"quick": {"points": 256, "rounds": 5, "seed": 7},
            "full": {"points": 256, "rounds": 20, "seed": 7}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="profile.update", kind="micro",
    summary="per-ACK delay profiler add_sample + periodic rebuild",
    setup=_setup_profile_update, run=_run_profile_update,
    params={"quick": {"samples": 4_000, "rebuild_every": 1_000, "seed": 1},
            "full": {"samples": 10_000, "rebuild_every": 1_000, "seed": 1}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="channel.generate", kind="micro",
    summary="cellular trace synthesis rate",
    setup=_setup_channel, run=_run_channel,
    params={"quick": {"duration": 20.0, "rate_bps": 10e6, "seed": 2},
            "full": {"duration": 60.0, "rate_bps": 10e6, "seed": 2}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="tracelink.replay", kind="micro",
    summary="trace-link delivery-opportunity replay rate",
    setup=_setup_tracelink, run=_run_tracelink,
    params={"quick": {"duration": 10.0, "rate_bps": 10e6, "seed": 3,
                      "packets": 5_000},
            "full": {"duration": 30.0, "rate_bps": 10e6, "seed": 3,
                     "packets": 20_000}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="sprout.forecast", kind="micro",
    summary="Sprout belief update + cautious horizon budget per tick",
    setup=_setup_sprout_forecast, run=_run_sprout_forecast,
    params={"quick": {"ticks": 300, "max_packets": 40,
                      "censored_frac": 0.3, "rate_cap_bps": 18e6,
                      "seed": 11},
            "full": {"ticks": 1200, "max_packets": 40,
                     "censored_frac": 0.3, "rate_cap_bps": 18e6,
                     "seed": 11}},
    repeats={"quick": 3, "full": 5}))

_register(BenchmarkDef(
    name="sweep.dispatch", kind="macro",
    summary="cache-cold pinned-trace grid through the pooled executor",
    setup=_setup_sweep_dispatch, run=_run_sweep_dispatch,
    params={"quick": {"cells": 8, "protocol": "cubic", "duration": 1.0,
                      "warmup": 0.2, "trace_seconds": 60.0,
                      "opportunities": 120_000, "jobs": 2, "seed": 13},
            "full": {"cells": 24, "protocol": "cubic", "duration": 1.0,
                     "warmup": 0.2, "trace_seconds": 60.0,
                     "opportunities": 120_000, "jobs": 2, "seed": 13}},
    repeats={"quick": 2, "full": 3}))

_register(BenchmarkDef(
    name="sim.verus_direct", kind="macro",
    summary="single Verus flow over a fixed-rate direct path",
    setup=_setup_verus_direct, run=_run_verus_direct,
    params={"quick": {"duration": 5.0, "rate_bps": 10e6, "rtt": 0.05},
            "full": {"duration": 10.0, "rate_bps": 10e6, "rtt": 0.05}},
    repeats={"quick": 2, "full": 3}))

_register(BenchmarkDef(
    name="sim.contention", kind="macro",
    summary="end-to-end multi-flow contention on a pinned scenario trace",
    setup=_setup_contention, run=_run_contention,
    params=_CONTENTION_PARAMS,
    repeats={"quick": 3, "full": 3}))

_register(BenchmarkDef(
    name="sim.contention_telemetry", kind="macro",
    summary="multi-flow contention on a saturated cell, telemetry attached",
    setup=_setup_contention_telemetry, run=_run_contention_telemetry,
    # Paired with the plain run: each repeat interleaves a baseline and
    # an instrumented leg, and overhead_ratio combines two conservative
    # CPU-clock estimators over the interleaved samples (see
    # _bench_task) — immune to drift between separately timed
    # benchmarks.
    baseline_run=_run_contention,
    params=_TELEMETRY_PARAMS,
    repeats={"quick": 16, "full": 16}))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _bench_task(payload: dict) -> dict:
    """Run one named benchmark (module-level so process pools can pickle
    it).  Setup is built once and hashed; only ``run`` is timed."""
    bench = BENCHMARKS[payload["name"]]
    mode = payload["mode"]
    params = bench.params[mode]
    repeats = payload.get("repeats") or bench.repeats[mode]
    workload, workload_hash = bench.setup(params)

    samples: List[float] = []
    baseline_samples: List[float] = []
    cpu_samples: List[float] = []
    cpu_baseline: List[float] = []
    checksum: Any = None
    if bench.baseline_run is not None:
        # One untimed warm-up pair: the first execution of each leg pays
        # import/allocator/cache costs that would otherwise bias
        # whichever leg happens to run first in attempt 0.
        bench.baseline_run(workload)
        bench.run(workload)
    for attempt in range(repeats):
        if bench.baseline_run is not None:
            # Interleave baseline and measured runs so both sides sample
            # the same CPU-frequency/cache weather, alternating which
            # goes first each attempt so within-pair warming effects
            # cancel rather than bias one side.  Each leg is timed on
            # both clocks: wall for the reported seconds, CPU for the
            # overhead ratio (preemption by other processes shows up in
            # wall time but is not cost this code added).
            legs = [("baseline", bench.baseline_run,
                     baseline_samples, cpu_baseline),
                    ("measured", bench.run, samples, cpu_samples)]
            if attempt % 2:
                legs.reverse()
            results = {}
            for leg, fn, wall_sink, cpu_sink in legs:
                wall = time.perf_counter()
                cpu = time.process_time()
                results[leg] = fn(workload)
                cpu_sink.append(time.process_time() - cpu)
                wall_sink.append(time.perf_counter() - wall)
            baseline_result, result = results["baseline"], results["measured"]
        else:
            start = time.perf_counter()
            result = bench.run(workload)
            samples.append(time.perf_counter() - start)
        if attempt == 0:
            checksum = result
        elif result != checksum:
            raise RuntimeError(
                f"benchmark {bench.name!r} is nondeterministic: repeat "
                f"{attempt} returned {result!r}, first run {checksum!r}")
        if bench.baseline_run is not None and baseline_result != result:
            raise RuntimeError(
                f"benchmark {bench.name!r}: measured run returned "
                f"{result!r} but its interleaved baseline returned "
                f"{baseline_result!r} — the instrumented path perturbed "
                f"the workload")
    row = {
        "name": bench.name,
        "kind": bench.kind,
        "summary": bench.summary,
        "mode": mode,
        "params": params,
        "workload_hash": workload_hash,
        "checksum": checksum,
        "repeats": repeats,
        "seconds": min(samples),
        "mean_seconds": sum(samples) / len(samples),
        "samples": [round(s, 6) for s in samples],
        "tolerance": bench.band(),
    }
    if baseline_samples:
        # The overhead ratio is computed on the CPU clock (process_time
        # excludes preemption by unrelated processes; wall-clock noise
        # on a busy host is one-sided and easily 10x the effect being
        # measured) from two estimators of the same quantity:
        #
        #   * median of per-pair deltas — interleaved pairs share
        #     machine weather and differencing cancels additive drift;
        #   * floor-to-floor (best measured leg over best baseline leg)
        #     — each minimum converges on an unpolluted sample of its
        #     side, the timeit best-of-N rationale.
        #
        # Contention noise is strictly additive, so each estimator can
        # only flake *upward*; taking the smaller of the two (clamped
        # at 1.0 — instrumentation cannot make the workload faster)
        # keeps the report honest unless both flake at once.  The
        # wall-clock samples are still reported alongside.
        best_baseline = min(baseline_samples)
        row["baseline_seconds"] = best_baseline
        row["baseline_samples"] = [round(s, 6) for s in baseline_samples]
        best_cpu = min(cpu_baseline)
        if best_cpu > 0:
            deltas = sorted(m - b for m, b in zip(cpu_samples, cpu_baseline))
            median_est = 1.0 + deltas[len(deltas) // 2] / best_cpu
            floor_est = min(cpu_samples) / best_cpu
            row["overhead_ratio"] = round(
                max(1.0, min(median_est, floor_est)), 4)
    return row


def run_bench(names: Optional[Sequence[str]] = None, mode: str = "quick",
              jobs: int = 1, label: str = "local",
              progress: Optional[Callable[[dict], None]] = None) -> dict:
    """Run the named benchmarks (all by default) and return a BENCH doc.

    ``jobs > 1`` distributes benchmarks across worker processes via the
    campaign engine; timings then share cores, so compare same-jobs runs
    against each other.  Workload hashes are execution-order independent
    either way.
    """
    from ..campaign.executor import run_tasks

    if mode not in ("quick", "full"):
        raise ValueError(f"mode must be 'quick' or 'full' (got {mode!r})")
    selected = list(BENCHMARKS) if names is None else list(names)
    for name in selected:
        if name not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {name!r}; choose from "
                             f"{sorted(BENCHMARKS)}")

    def on_progress(outcome, done, total) -> None:
        if progress is not None and outcome.ok:
            progress(outcome.result)

    run = run_tasks([{"name": name, "mode": mode} for name in selected],
                    _bench_task, jobs=jobs, retries=0,
                    progress=on_progress)
    benchmarks: Dict[str, dict] = {}
    failures: Dict[str, str] = {}
    for name, outcome in zip(selected, run.outcomes):
        if outcome.ok:
            benchmarks[outcome.result["name"]] = outcome.result
        else:
            failures[name] = outcome.error or outcome.status
    doc = {
        "schema": BENCH_SCHEMA,
        "label": label,
        "mode": mode,
        "jobs": jobs,
        "repro_version": REPRO_VERSION,
        "benchmarks": benchmarks,
        "failures": failures,
        "derived": _derived(benchmarks),
    }
    return doc


def _derived(benchmarks: Dict[str, dict]) -> dict:
    """Cross-benchmark numbers: rates and the telemetry overhead ratio."""
    derived: dict = {}
    engine = benchmarks.get("engine.events")
    if engine and engine["seconds"] > 0:
        derived["engine_events_per_sec"] = round(
            engine["params"]["events"] / engine["seconds"], 1)
    telem = benchmarks.get("sim.contention_telemetry")
    if telem and "overhead_ratio" in telem:
        # Paired measurement (interleaved baseline/telemetry repeats)
        # beats dividing two independently timed benchmarks, whose
        # separate timing windows see different machine weather.
        derived["telemetry_overhead_ratio"] = telem["overhead_ratio"]
    elif telem and telem.get("baseline_seconds"):
        derived["telemetry_overhead_ratio"] = round(
            telem["seconds"] / telem["baseline_seconds"], 4)
    return derived


def write_bench(doc: dict, path=None, directory=".") -> str:
    """Write ``BENCH_<label>.json``; returns the path written."""
    if path is None:
        path = Path(directory) / f"BENCH_{doc['label']}.json"
    path = Path(path)
    stamped = dict(doc)
    stamped["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    return str(path)


def load_bench(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: unsupported bench schema "
                         f"{doc.get('schema')!r}")
    return doc


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def compare(baseline: dict, current: dict,
            max_regression: Optional[float] = None) -> List[dict]:
    """Diff two BENCH docs benchmark-by-benchmark.

    Statuses: ``ok`` (within band), ``regression`` / ``improved``
    (outside band), ``workload-changed`` (hashes differ — timings are
    incomparable), ``missing`` (in baseline only), ``new`` (in current
    only).  The tolerance comes from the *baseline* file so the gate is
    pinned with the numbers it protects; ``max_regression`` caps every
    benchmark's regression band at that fraction (the CI ratchet: with
    0.10, anything more than 10% slower than the committed baseline is a
    regression no matter how lax the per-benchmark band is).  The
    *improved* threshold keeps using the per-benchmark band so a ratchet
    run doesn't spam "improved" for ordinary machine noise.
    """
    rows: List[dict] = []
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})
    for name in sorted(set(base_benches) | set(cur_benches)):
        base = base_benches.get(name)
        cur = cur_benches.get(name)
        row = {"name": name, "status": "ok",
               "baseline_s": base["seconds"] if base else None,
               "current_s": cur["seconds"] if cur else None,
               "ratio": None, "tolerance": None}
        if base is None:
            row["status"] = "new"
        elif cur is None:
            row["status"] = "missing"
        elif base["workload_hash"] != cur["workload_hash"]:
            row["status"] = "workload-changed"
        else:
            tolerance = float(base.get("tolerance",
                                       DEFAULT_TOLERANCE["micro"]))
            regression_band = tolerance
            if max_regression is not None:
                regression_band = min(regression_band, float(max_regression))
            row["tolerance"] = regression_band
            if base["seconds"] > 0:
                ratio = cur["seconds"] / base["seconds"]
                row["ratio"] = round(ratio, 4)
                if ratio > 1.0 + regression_band:
                    row["status"] = "regression"
                elif ratio < 1.0 - tolerance:
                    row["status"] = "improved"
        rows.append(row)
    return rows


def regressions(rows: Sequence[dict]) -> List[dict]:
    """The rows a perf gate should fail on."""
    return [row for row in rows if row["status"] == "regression"]


def format_compare(rows: Sequence[dict]) -> str:
    """Plain-text compare table (CLI + CI log output)."""
    header = f"{'benchmark':<28s} {'baseline':>10s} {'current':>10s} " \
             f"{'ratio':>7s}  status"
    lines = [header, "-" * len(header)]
    for row in rows:
        base = f"{row['baseline_s'] * 1e3:.2f}ms" \
            if row["baseline_s"] is not None else "-"
        cur = f"{row['current_s'] * 1e3:.2f}ms" \
            if row["current_s"] is not None else "-"
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        lines.append(f"{row['name']:<28s} {base:>10s} {cur:>10s} "
                     f"{ratio:>7s}  {row['status']}")
    return "\n".join(lines)
