"""Declarative grids: channel × protocol × flows × overrides × fault ×
backend × seeds.

:class:`TaskSpec` is the one cell type behind ``repro sweep``, ``repro
chaos`` and ``repro soak``, and :func:`run_simulation_task` the one
worker that runs it.  :func:`expand_grid` turns the axes into cells
(:meth:`CampaignSpec.expand` and :func:`repro.traces.expand_corpus` are
front ends to it).  Each cell is

* **individually hashable** — :meth:`TaskSpec.key` canonicalises the spec
  (sorted-key JSON plus :func:`code_fingerprint`) and hashes it with SHA-256,
  so the result store can address cached cells by content; and
* **deterministically seeded** — per-task seeds are derived with
  ``numpy.random.SeedSequence(base_seed).spawn(n)``, indexed by the task's
  position in the expanded grid.  The seed depends only on the grid cell,
  never on execution order, so a ``--jobs 8`` run is bit-identical to a
  serial one.

A cell without a fault returns the run's ``summary()``; a cell with a
fault preset also runs that schedule and adds the recovery verdict of
:func:`repro.faults.chaos.recovery_verdict`.  A faulted cell on the
simulator runs with the control-law monitors of
:mod:`repro.check.monitors` armed and adds their report as
``invariant``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..cellular import SCENARIO_NAMES
from ..experiments.runner import PROTOCOL_NAMES
from ..faults.spec import BACKENDS, FAULT_PRESETS

#: Options applied to every flow of a protocol unless an override names the
#: same key.  Mirrors the ``r=2.0`` default the experiments layer uses for
#: Verus throughout.
DEFAULT_PROTOCOL_OPTIONS: Dict[str, dict] = {"verus": {"r": 2.0}}

#: Round-trip propagation delay of a simulated cell.  A live cell runs
#: over the live path's fixed delays instead, so it keeps this default.
DEFAULT_RTT = 0.01


def _canonical_json(payload: dict) -> str:
    """Deterministic JSON used for hashing: sorted keys, no whitespace
    drift, floats via repr (shortest round-trip form in py>=3.1)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package's own source, once per process.

    Hashes every ``*.py`` file under the package, in sorted relative-path
    order, path and bytes, so any edit to the simulator yields a new
    fingerprint — wherever the tree is checked out."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for name in sorted(p.relative_to(root).as_posix()
                       for p in root.rglob("*.py")):
        digest.update(name.encode("utf-8") + b"\0")
        digest.update((root / name).read_bytes() + b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class TaskSpec:
    """One fully-resolved grid cell: a single simulation to run.

    ``seed`` is the resolved per-task seed (already derived from the
    campaign's base seed); ``seed_index`` records which repetition this
    cell is, so aggregation can report "mean of N seeds".

    Two trace sources are supported: without ``trace_file`` the worker
    synthesizes ``scenario`` (which must then be a registered scenario
    name); with ``trace_file`` the worker replays that corpus trace and
    ``scenario`` is a free-form label (typically the corpus trace name).
    ``trace_sha256`` pins the trace *content* — the worker refuses a
    file that hashes differently, and the cache key is derived from the
    hash rather than the path, so moving a corpus does not invalidate
    cached results.

    ``backend`` runs the cell on the simulator or the live UDP loopback.
    ``fault`` names a preset of :data:`repro.faults.spec.FAULT_PRESETS`
    (``None``, the default, runs the cell undisturbed); a faulted cell is
    judged on recovery within ``deadline`` seconds of the disruption.
    """

    scenario: str
    protocol: str
    flows: int
    duration: float
    seed: int
    seed_index: int = 0
    technology: str = "3g"
    cell_rate_bps: Optional[float] = None
    rtt: float = DEFAULT_RTT
    warmup: float = 5.0
    label: str = ""
    options: Tuple[Tuple[str, object], ...] = ()
    trace_file: Optional[str] = None
    trace_sha256: Optional[str] = None
    fault: Optional[str] = None
    backend: str = "sim"
    deadline: float = 3.0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"choose from {PROTOCOL_NAMES}")
        if self.fault is not None and self.fault not in FAULT_PRESETS:
            raise ValueError(f"unknown fault preset {self.fault!r}; "
                             f"choose from {FAULT_PRESETS}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.backend == "live" and self.rtt != DEFAULT_RTT:
            raise ValueError(
                f"a live cell takes no rtt (got {self.rtt:g} s): it runs "
                f"over the live path's fixed downlink_delay and "
                f"uplink_delay (see run_live_session), so leave rtt at "
                f"its default {DEFAULT_RTT:g} s")
        if self.trace_file is None and self.scenario not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"choose from {SCENARIO_NAMES} "
                             f"(or provide trace_file)")
        if self.trace_sha256 is not None and self.trace_file is None:
            raise ValueError("trace_sha256 requires trace_file")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.flows < 1:
            raise ValueError("flows must be at least 1")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if not self.label:
            object.__setattr__(self, "label", self.protocol)
        if isinstance(self.options, dict):
            object.__setattr__(self, "options",
                               tuple(sorted(self.options.items())))

    def options_dict(self) -> dict:
        return dict(self.options)

    def to_dict(self) -> dict:
        """JSON-safe payload; also the canonical form used for hashing."""
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "flows": self.flows,
            "duration": self.duration,
            "seed": self.seed,
            "seed_index": self.seed_index,
            "technology": self.technology,
            "cell_rate_bps": self.cell_rate_bps,
            "rtt": self.rtt,
            "warmup": self.warmup,
            "label": self.label,
            "options": {k: v for k, v in self.options},
            "trace_file": self.trace_file,
            "trace_sha256": self.trace_sha256,
            "fault": self.fault,
            "backend": self.backend,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskSpec":
        payload = dict(payload)
        payload["options"] = tuple(sorted(payload.get("options", {}).items()))
        return cls(**payload)

    def key(self) -> str:
        """Content address: SHA-256 of the canonical spec + the code.

        :func:`code_fingerprint` is part of the address, so a cache
        populated by a different simulator source never masks behaviour
        changes.  When the trace content is pinned by ``trace_sha256``,
        the file *path* is dropped from the address — the hash already
        identifies the input, and relocating a corpus must not
        invalidate the cache."""
        body = self.to_dict()
        if self.trace_sha256 is not None:
            body["trace_file"] = None
        body = _canonical_json({"task": body, "code": code_fingerprint()})
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


class Channel(NamedTuple):
    """One entry of a grid's channel axis.

    Without ``trace_file`` the cell synthesises the registered scenario
    ``scenario``; with it the cell replays that pinned corpus trace,
    ``scenario`` is its label and ``duration`` its recorded length (the
    cell's duration when the grid sets none)."""

    scenario: str
    trace_file: Optional[str] = None
    trace_sha256: Optional[str] = None
    duration: Optional[float] = None


def sweep_warmup(duration: float) -> float:
    """The standard 5 s warm-up, shortened to duration/5 so very short
    smoke sweeps still observe packets."""
    return min(5.0, duration / 5.0)


def _check_axes(seeds: int, override_labels: Optional[Sequence[str]],
                **axes: Sequence) -> None:
    if seeds < 1:
        raise ValueError("seeds must be at least 1")
    empty = [name for name, values in axes.items() if not values]
    if empty:
        raise ValueError(f"empty grid axis: {', '.join(empty)}")
    if (override_labels is not None
            and len(override_labels) != len(axes["overrides"])):
        raise ValueError("override_labels must match overrides in length")


def _override_label(protocol: str, index: int, count: int,
                    labels: Optional[Sequence[str]]) -> str:
    if labels is not None:
        return f"{protocol}_{labels[index]}" if labels[index] else protocol
    return f"{protocol}_v{index}" if count > 1 else protocol


def _check_values(channels, protocols, faults, backends) -> None:
    """Reject unknown axis values up front: a drawn grid may never build
    the cell that would."""
    unknown = ([c for c in channels
                if isinstance(c, str) and c not in SCENARIO_NAMES]
               + [p for p in protocols if p not in PROTOCOL_NAMES]
               + [f for f in faults
                  if f is not None and f not in FAULT_PRESETS]
               + [b for b in backends if b not in BACKENDS])
    if unknown:
        raise ValueError("unknown grid axis values: "
                         + ", ".join(map(str, unknown)))


def _drawn_cells(draws: int, base_seed: int, channels, protocols,
                 flow_counts, overrides, faults, backends):
    """``draws`` cells sampled from the axes, with their seeds.

    Draw ``i`` picks its protocol, fault, channel, flow count, override
    and backend, in that order, with one generator seeded
    ``SeedSequence(base_seed, spawn_key=(0, i))``, and takes its seed
    from ``SeedSequence(base_seed, spawn_key=(1, i))``."""
    cells, seeds = [], []
    for i in range(draws):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=base_seed, spawn_key=(0, i)))

        def pick(axis):
            return axis[int(rng.integers(len(axis)))]

        protocol, fault, channel = pick(protocols), pick(faults), \
            pick(channels)
        cells.append((channel, protocol, pick(flow_counts),
                      pick(range(len(overrides))), fault, pick(backends), i))
        seeds.append(np.random.SeedSequence(
            entropy=base_seed, spawn_key=(1, i)).generate_state(1)[0])
    return cells, seeds


def expand_grid(channels: Sequence[Union[str, Channel]],
                protocols: Sequence[str],
                flow_counts: Sequence[int] = (3,), seeds: int = 1, *,
                duration: Optional[float] = None,
                default_duration: float = 30.0,
                warmup: Union[None, float, Callable[[float], float]] = None,
                technology: str = "3g",
                cell_rate_bps: Optional[float] = None, rtt: float = DEFAULT_RTT,
                overrides: Sequence[dict] = ({},),
                override_labels: Optional[Sequence[str]] = None,
                faults: Sequence[Optional[str]] = (None,),
                backends: Sequence[str] = ("sim",),
                deadline: float = 3.0,
                base_seed: int = 0,
                draws: Optional[int] = None) -> List[TaskSpec]:
    """Expand channels × protocols × flow_counts × overrides × faults ×
    backends × seeds into cells, in that nesting order (seeds innermost).

    A channel is a registered scenario name or a :class:`Channel`.
    ``duration=None`` runs each corpus channel for its recorded length
    and every other cell for ``default_duration``.  ``warmup`` is a
    number, a function of the cell's duration, or ``None`` for
    :func:`sweep_warmup`.  Each override dict is merged over the
    protocol's :data:`DEFAULT_PROTOCOL_OPTIONS`.

    ``SeedSequence.spawn`` gives every cell an independent,
    well-separated random stream; the spawn index is the cell's fixed
    position in the grid, so the mapping cell → seed is stable under
    any execution order and under ``--resume``.

    ``draws=N`` samples ``N`` cells from the axes instead of taking
    their product (the ``repro soak`` grid), and replaces the seeds
    axis.  Cell ``i`` (its ``seed_index``) is a pure function of
    ``(base_seed, i)`` — see :func:`_drawn_cells` — so it is the same
    cell whatever ``N`` is.  A drawn cell runs each protocol at its own
    defaults: only the override is its options.
    """
    _check_axes(seeds, override_labels, channels=channels,
                protocols=protocols, flow_counts=flow_counts,
                overrides=overrides, faults=faults, backends=backends)
    if warmup is None:
        warmup = sweep_warmup
    if draws is None:
        cells = list(itertools.product(channels, protocols, flow_counts,
                                       range(len(overrides)), faults,
                                       backends, range(seeds)))
        cell_seeds = [child.generate_state(1)[0] for child in
                      np.random.SeedSequence(base_seed).spawn(len(cells))]
    else:
        if draws < 1 or seeds != 1:
            raise ValueError("draws must be at least 1, with seeds=1")
        _check_values(channels, protocols, faults, backends)
        cells, cell_seeds = _drawn_cells(draws, base_seed, channels,
                                         protocols, flow_counts, overrides,
                                         faults, backends)
    tasks: List[TaskSpec] = []
    for seed, (channel, protocol, flows, o_idx, fault, backend,
               seed_index) in zip(cell_seeds, cells):
        if isinstance(channel, str):
            channel = Channel(channel)
        cell_duration = (duration if duration is not None
                         else channel.duration or default_duration)
        options = (dict(DEFAULT_PROTOCOL_OPTIONS.get(protocol, {}))
                   if draws is None else {})
        options.update(overrides[o_idx])
        tasks.append(TaskSpec(
            scenario=channel.scenario,
            protocol=protocol,
            flows=flows,
            duration=cell_duration,
            seed=int(seed),
            seed_index=seed_index,
            technology=technology,
            cell_rate_bps=cell_rate_bps,
            rtt=rtt,
            warmup=warmup(cell_duration) if callable(warmup) else warmup,
            label=_override_label(protocol, o_idx, len(overrides),
                                  override_labels),
            options=tuple(sorted(options.items())),
            trace_file=channel.trace_file,
            trace_sha256=channel.trace_sha256,
            fault=fault,
            backend=backend,
            deadline=deadline,
        ))
    return tasks


@dataclass
class CampaignSpec:
    """A sweep over synthesised scenarios.  ``expand()`` yields the
    Cartesian product scenarios × protocols × flow_counts × overrides ×
    seeds through :func:`expand_grid`."""

    scenarios: Sequence[str]
    protocols: Sequence[str]
    flow_counts: Sequence[int] = (3,)
    seeds: int = 1
    duration: float = 30.0
    technology: str = "3g"
    cell_rate_bps: Optional[float] = None
    rtt: float = DEFAULT_RTT
    #: None (default) resolves to :func:`sweep_warmup`.
    warmup: Optional[float] = None
    base_seed: int = 0
    #: Config-override variants: each dict is merged over the protocol's
    #: default options and becomes its own grid axis entry.
    overrides: Sequence[dict] = field(default_factory=lambda: [{}])
    #: Optional display labels, one per override variant.
    override_labels: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        _check_axes(self.seeds, self.override_labels,
                    scenarios=self.scenarios, protocols=self.protocols,
                    flow_counts=self.flow_counts, overrides=self.overrides)

    def size(self) -> int:
        return (len(self.scenarios) * len(self.protocols)
                * len(self.flow_counts) * len(self.overrides) * self.seeds)

    def expand(self) -> List[TaskSpec]:
        return expand_grid(self.scenarios, self.protocols, self.flow_counts,
                           self.seeds, duration=self.duration,
                           warmup=self.warmup, technology=self.technology,
                           cell_rate_bps=self.cell_rate_bps, rtt=self.rtt,
                           overrides=self.overrides,
                           override_labels=self.override_labels,
                           base_seed=self.base_seed)


#: Per-worker-process memo of parsed corpus traces, keyed by
#: ``(trace_file, trace_sha256)``.  A sweep hands every cell of a grid
#: the same handful of pinned traces, so each worker parses and
#: hash-verifies a given trace once instead of once per cell.  Entries
#: carry the source file's stat signature: when the file on disk drifts
#: mid-sweep the entry is discarded and the trace re-read and
#: re-verified, so corpus mutation still fails loudly instead of being
#: served from the memo.
_TRACE_MEMO: dict = {}
_TRACE_MEMO_MAX = 256


def _trace_stat_sig(path) -> tuple:
    stat = os.stat(path)
    return (stat.st_mtime_ns, stat.st_size)


def _load_task_trace(spec: "TaskSpec") -> np.ndarray:
    """Replay-source path: read the pinned corpus trace for a task.

    Refuses content that does not match ``trace_sha256`` — a cached
    result must never be attributed to a trace that has since changed.
    """
    from ..traces.corpus import read_pinned_ms
    from ..traces.formats import read_trace_ms

    memo_key = (spec.trace_file, spec.trace_sha256)
    sig = _trace_stat_sig(spec.trace_file)
    entry = _TRACE_MEMO.get(memo_key)
    if entry is not None and entry[0] == sig:
        # Copy so no simulation ever aliases the memoized array.
        return entry[1].copy()
    _TRACE_MEMO.pop(memo_key, None)
    if spec.trace_sha256 is None:
        times_ms = read_trace_ms(spec.trace_file, fmt="mahimahi")
    else:
        times_ms, digest = read_pinned_ms(spec.trace_file,
                                          spec.trace_sha256)
        if digest != spec.trace_sha256:
            raise ValueError(
                f"trace {spec.trace_file} hashes to {digest[:12]}, task "
                f"pinned {spec.trace_sha256[:12]} — corpus content changed")
    trace = times_ms.astype(float) / 1000.0
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.clear()
    _TRACE_MEMO[memo_key] = (sig, trace)
    return trace.copy()


def run_simulation_task(payload: dict) -> dict:
    """Execute one grid cell: load or synthesise its trace, run the
    contention experiment, return the JSON-safe result summary.

    The cell runs on its backend.  Without a fault it returns the run's
    ``summary()``; a faulted cell runs its schedule and returns the
    ``summary()`` keys plus the recovery verdict (``recovery``,
    ``recovered``, ``fault_stats``, ``senders``, ``live_counters``) and,
    on the simulator, the monitors' report
    (:class:`~repro.check.report.InvariantReport`) as
    ``invariant``.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can
    pickle it to worker processes.

    Underscore-prefixed payload keys are runtime directives, not part of
    the task spec: ``_timings`` asks for per-task span timings (queue
    wait, trace generation, simulation run) under ``"timings"`` in the
    summary, and ``_submitted`` carries the wall-clock stamp the executor
    set when it handed this payload over, which the queue wait is
    measured against.
    """
    import time as _time

    from ..cellular import generate_scenario_trace
    from ..experiments.runner import repeat_flows, run_trace_contention

    started = _time.time()
    want_timings = bool(payload.get("_timings"))
    submitted = payload.get("_submitted")
    if any(k.startswith("_") for k in payload):
        payload = {k: v for k, v in payload.items() if not k.startswith("_")}

    spec = TaskSpec.from_dict(payload)
    perf = _time.perf_counter
    t0 = perf()
    if spec.trace_file is not None:
        trace = _load_task_trace(spec)
    else:
        # The run's RED queue draws SeedSequence(seed) itself, so the
        # channel is synthesised from a seed derived from it.
        from ..traces.workload import derive_seed
        trace = generate_scenario_trace(spec.scenario, duration=spec.duration,
                                        technology=spec.technology,
                                        mean_rate_bps=spec.cell_rate_bps,
                                        seed=derive_seed(spec.seed, "trace"))
    trace_seconds = perf() - t0
    flow_specs = repeat_flows(spec.protocol, spec.flows, label=spec.label,
                              **spec.options_dict())
    t1 = perf()
    schedule = None
    if spec.fault is not None:
        from ..faults.spec import make_schedule
        schedule = make_schedule(spec.fault, spec.duration)
    monitors = None
    if spec.backend == "live":
        from ..live.session import run_live_session
        result = run_live_session(flow_specs, trace=trace,
                                  duration=spec.duration, warmup=spec.warmup,
                                  seed=spec.seed, fault_schedule=schedule)
    else:
        armed = contextlib.nullcontext()
        if schedule is not None:
            # A faulted simulated cell runs with the control-law monitors
            # armed, attached through the runner's telemetry seam.
            from ..check.monitors import MonitorSession
            from ..obs.timeline import telemetry
            monitors = MonitorSession()
            armed = telemetry(monitors)
        with armed:
            result = run_trace_contention(trace, flow_specs,
                                          duration=spec.duration,
                                          rtt=spec.rtt, warmup=spec.warmup,
                                          seed=spec.seed, faults=schedule)
    summary = result.summary()
    if schedule is not None:
        from ..faults.chaos import recovery_verdict
        summary.update(recovery_verdict(result, schedule, spec.deadline))
    if monitors is not None:
        summary["invariant"] = monitors.report.to_dict()
    sim_seconds = perf() - t1
    if want_timings:
        timings = {
            "trace_gen_s": round(trace_seconds, 6),
            "sim_run_s": round(sim_seconds, 6),
            "total_s": round(perf() - t0, 6),
        }
        if submitted is not None:
            timings["queue_wait_s"] = round(max(0.0, started - submitted), 6)
        summary["timings"] = timings
    return summary
