"""Declarative campaign grids: scenario × protocol × flows × overrides × seeds.

A :class:`CampaignSpec` describes the whole sweep; :meth:`CampaignSpec.expand`
turns it into one :class:`TaskSpec` per grid cell.  Each task is

* **individually hashable** — :meth:`TaskSpec.key` canonicalises the spec
  (sorted-key JSON plus :func:`code_fingerprint`) and hashes it with SHA-256,
  so the result store can address cached cells by content; and
* **deterministically seeded** — per-task seeds are derived with
  ``numpy.random.SeedSequence(base_seed).spawn(n)``, indexed by the task's
  position in the expanded grid.  The seed depends only on the grid cell,
  never on execution order, so a ``--jobs 8`` run is bit-identical to a
  serial one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cellular import SCENARIO_NAMES
from ..experiments.runner import PROTOCOL_NAMES

#: Options applied to every flow of a protocol unless an override names the
#: same key.  Mirrors the ``r=2.0`` default the experiments layer uses for
#: Verus throughout.
DEFAULT_PROTOCOL_OPTIONS: Dict[str, dict] = {"verus": {"r": 2.0}}


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
    """

    scenario: str
    protocol: str
    flows: int
    duration: float
    seed: int
    seed_index: int = 0
    technology: str = "3g"
    cell_rate_bps: Optional[float] = None
    rtt: float = 0.01
    warmup: float = 5.0
    label: str = ""
    options: Tuple[Tuple[str, object], ...] = ()
    trace_file: Optional[str] = None
    trace_sha256: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"choose from {PROTOCOL_NAMES}")
        if self.trace_file is None and self.scenario not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"choose from {SCENARIO_NAMES} "
                             f"(or provide trace_file)")
        if self.trace_sha256 is not None and self.trace_file is None:
            raise ValueError("trace_sha256 requires trace_file")
        if self.flows < 1:
            raise ValueError("flows must be at least 1")
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


@dataclass
class CampaignSpec:
    """A sweep grid.  ``expand()`` yields the Cartesian product
    scenarios × protocols × flow_counts × overrides × seeds, in that
    nesting order (seeds innermost)."""

    scenarios: Sequence[str]
    protocols: Sequence[str]
    flow_counts: Sequence[int] = (3,)
    seeds: int = 1
    duration: float = 30.0
    technology: str = "3g"
    cell_rate_bps: Optional[float] = None
    rtt: float = 0.01
    #: None (default) resolves to the standard 5 s warm-up, shortened to
    #: duration/5 so very short smoke sweeps still observe packets.
    warmup: Optional[float] = None
    base_seed: int = 0
    #: Config-override variants: each dict is merged over the protocol's
    #: default options and becomes its own grid axis entry.
    overrides: Sequence[dict] = field(default_factory=lambda: [{}])
    #: Optional display labels, one per override variant.
    override_labels: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be at least 1")
        if not self.scenarios or not self.protocols or not self.flow_counts:
            raise ValueError("scenarios, protocols and flow_counts must "
                             "each have at least one entry")
        if (self.override_labels is not None
                and len(self.override_labels) != len(self.overrides)):
            raise ValueError("override_labels must match overrides in length")

    def size(self) -> int:
        return (len(self.scenarios) * len(self.protocols)
                * len(self.flow_counts) * len(self.overrides) * self.seeds)

    def expand(self) -> List[TaskSpec]:
        """Expand the grid into per-cell tasks with derived seeds.

        ``SeedSequence.spawn`` gives every cell an independent,
        well-separated random stream; the spawn index is the cell's fixed
        position in the grid, so the mapping cell → seed is stable under
        any execution order and under ``--resume``."""
        children = np.random.SeedSequence(self.base_seed).spawn(self.size())
        warmup = (self.warmup if self.warmup is not None
                  else min(5.0, self.duration / 5.0))
        tasks: List[TaskSpec] = []
        index = 0
        for scenario in self.scenarios:
            for protocol in self.protocols:
                for flows in self.flow_counts:
                    for o_idx, override in enumerate(self.overrides):
                        options = dict(DEFAULT_PROTOCOL_OPTIONS.get(protocol, {}))
                        options.update(override)
                        label = protocol
                        if self.override_labels is not None:
                            suffix = self.override_labels[o_idx]
                            if suffix:
                                label = f"{protocol}_{suffix}"
                        elif len(self.overrides) > 1:
                            label = f"{protocol}_v{o_idx}"
                        for seed_index in range(self.seeds):
                            seed = int(children[index].generate_state(1)[0])
                            tasks.append(TaskSpec(
                                scenario=scenario,
                                protocol=protocol,
                                flows=flows,
                                duration=self.duration,
                                seed=seed,
                                seed_index=seed_index,
                                technology=self.technology,
                                cell_rate_bps=self.cell_rate_bps,
                                rtt=self.rtt,
                                warmup=warmup,
                                label=label,
                                options=tuple(sorted(options.items())),
                            ))
                            index += 1
        return tasks


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
    """Execute one grid cell: generate the scenario trace, run the
    contention experiment, return the JSON-safe result summary.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can
    pickle it to worker processes.

    Underscore-prefixed payload keys are runtime directives, not part of
    the task spec: ``_timings`` asks for per-task span timings (queue
    wait, trace generation, simulation run) under ``"timings"`` in the
    summary, and ``_submitted`` carries the submission wall-clock stamp
    the queue wait is measured against.
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
        trace = generate_scenario_trace(spec.scenario, duration=spec.duration,
                                        technology=spec.technology,
                                        mean_rate_bps=spec.cell_rate_bps,
                                        seed=spec.seed)
    trace_seconds = perf() - t0
    flow_specs = repeat_flows(spec.protocol, spec.flows, label=spec.label,
                              **spec.options_dict())
    t1 = perf()
    result = run_trace_contention(trace, flow_specs, duration=spec.duration,
                                  rtt=spec.rtt, warmup=spec.warmup,
                                  seed=spec.seed)
    sim_seconds = perf() - t1
    summary = result.summary()
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
