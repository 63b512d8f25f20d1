"""The chaos acceptance matrix: (protocol × fault × seed) grids.

Each cell runs one protocol under one named fault schedule (see
:data:`repro.faults.spec.FAULT_PRESETS`) on either backend — the
discrete-event simulator or the live UDP loopback emulator — and is
judged on *recovery*: did the flow re-inflate its delivery rate within a
deadline after the disruption, and did the session terminate cleanly?

Cells are content-addressed exactly like sweep cells
(:class:`~repro.campaign.spec.TaskSpec`), so the matrix reuses the
campaign result store and executor unchanged: crash isolation, retries,
timeouts and ``--resume`` all come for free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..campaign.executor import ProgressFn, RunResult, run_tasks
from ..campaign.spec import _canonical_json, code_fingerprint
from ..campaign.store import ResultStore
from ..cellular import SCENARIO_NAMES
from ..experiments.runner import PROTOCOL_NAMES
from ..metrics.recovery import recovery_stats
from .spec import FAULT_PRESETS, FaultSchedule, make_schedule

BACKENDS = ("sim", "live")


@dataclass(frozen=True)
class ChaosTask:
    """One chaos-matrix cell: protocol × fault schedule × seed × backend.

    Like :class:`~repro.campaign.spec.TaskSpec`, the channel comes from
    either a synthesized ``scenario`` (the default) or a pinned corpus
    trace (``trace_file`` + ``trace_sha256``), in which case
    ``scenario`` is a free-form label."""

    protocol: str
    fault: str
    duration: float
    seed: int
    seed_index: int = 0
    backend: str = "sim"
    scenario: str = "campus_stationary"
    flows: int = 1
    rtt: float = 0.01
    warmup: float = 1.0
    deadline: float = 3.0
    trace_file: Optional[str] = None
    trace_sha256: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"choose from {PROTOCOL_NAMES}")
        if self.fault not in FAULT_PRESETS:
            raise ValueError(f"unknown fault preset {self.fault!r}; "
                             f"choose from {FAULT_PRESETS}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
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

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "fault": self.fault,
            "duration": self.duration,
            "seed": self.seed,
            "seed_index": self.seed_index,
            "backend": self.backend,
            "scenario": self.scenario,
            "flows": self.flows,
            "rtt": self.rtt,
            "warmup": self.warmup,
            "deadline": self.deadline,
            "trace_file": self.trace_file,
            "trace_sha256": self.trace_sha256,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosTask":
        return cls(**payload)

    def key(self) -> str:
        """Content address, tied to the source like campaign task keys
        (:func:`~repro.campaign.spec.code_fingerprint`).  When a trace
        hash pins the channel, the file path is dropped from the address
        (relocating a corpus must not invalidate the cache)."""
        body = self.to_dict()
        if self.trace_sha256 is not None:
            body["trace_file"] = None
        body = _canonical_json({"chaos_task": body,
                                "code": code_fingerprint()})
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def schedule(self) -> FaultSchedule:
        return make_schedule(self.fault, self.duration)


def expand_chaos(protocols: Sequence[str], faults: Sequence[str],
                 seeds: int = 1, *, duration: float = 20.0,
                 backends: Sequence[str] = ("sim",),
                 scenario: str = "campus_stationary", flows: int = 1,
                 rtt: float = 0.01, warmup: Optional[float] = None,
                 deadline: float = 3.0,
                 base_seed: int = 0) -> List[ChaosTask]:
    """Expand the grid protocols × faults × backends × seeds.

    Seeds are SeedSequence-derived from the cell's grid position, the
    same scheme :meth:`~repro.campaign.spec.CampaignSpec.expand` uses, so
    the cell → seed mapping is stable under any execution order.
    """
    if seeds < 1:
        raise ValueError("seeds must be at least 1")
    if not protocols or not faults or not backends:
        raise ValueError("protocols, faults and backends must be non-empty")
    size = len(protocols) * len(faults) * len(backends) * seeds
    children = np.random.SeedSequence(base_seed).spawn(size)
    if warmup is None:
        warmup = min(1.0, duration / 10.0)
    tasks: List[ChaosTask] = []
    index = 0
    for protocol in protocols:
        for fault in faults:
            for backend in backends:
                for seed_index in range(seeds):
                    seed = int(children[index].generate_state(1)[0])
                    tasks.append(ChaosTask(
                        protocol=protocol, fault=fault, duration=duration,
                        seed=seed, seed_index=seed_index, backend=backend,
                        scenario=scenario, flows=flows, rtt=rtt,
                        warmup=warmup, deadline=deadline))
                    index += 1
    return tasks


def disruption_window(schedule: FaultSchedule
                      ) -> Tuple[Optional[float], Optional[float]]:
    """The span a flow must recover from: the full blackout envelope if
    the schedule goes dark, otherwise the envelope of all fault events
    (a corruption storm disrupts too, just less absolutely)."""
    dark = schedule.outage_windows("both")
    if dark:
        return dark[0][0], dark[-1][1]
    events = list(schedule)
    if events:
        return (min(e.start for e in events), max(e.end for e in events))
    return None, None


def run_chaos_task(payload: dict) -> dict:
    """Execute one chaos cell and return a JSON-safe verdict payload.

    Module-level (not a closure) so the campaign pool can pickle it.
    """
    from ..cellular import generate_scenario_trace
    from ..experiments.runner import repeat_flows, run_trace_contention

    task = ChaosTask.from_dict(payload)
    schedule = task.schedule()
    specs = repeat_flows(task.protocol, task.flows)
    d_start, d_end = disruption_window(schedule)

    def cell_trace():
        if task.trace_file is not None:
            from ..campaign.spec import _load_task_trace
            return _load_task_trace(task)
        return generate_scenario_trace(task.scenario,
                                       duration=task.duration,
                                       seed=task.seed)

    if task.backend == "sim":
        result = run_trace_contention(cell_trace(), specs,
                                      duration=task.duration,
                                      rtt=task.rtt, warmup=task.warmup,
                                      seed=task.seed, faults=schedule)
    else:
        from ..live.session import run_live_session
        result = run_live_session(specs, trace=cell_trace(),
                                  duration=task.duration,
                                  warmup=task.warmup, seed=task.seed,
                                  fault_schedule=schedule)

    # Judge recovery against the time actually run — a degraded session
    # may have ended early.
    ran_until = result.duration
    deadline = task.deadline
    if d_end is not None:
        deadline = max(0.5, min(deadline, ran_until - d_end))
    window = min(0.5, deadline / 2.0)
    recovery = [
        recovery_stats(result.receivers[i].deliveries, d_start, d_end,
                       flow_id=i, label=specs[i].label,
                       window=window, deadline=deadline)
        for i in range(len(specs))
    ]
    senders = [
        {name: int(getattr(s, name)) for name in
         ("timeouts", "retransmissions", "losses_detected", "abandoned")
         if hasattr(s, name)}
        for s in result.senders
    ]
    return {
        "task": task.to_dict(),
        "summary": result.summary(),
        "fault_stats": result.fault_stats,
        "live_counters": getattr(result, "live_counters", None),
        "recovery": [r.to_dict() for r in recovery],
        "senders": senders,
        "recovered": all(r.recovered for r in recovery),
        "degraded": bool(result.degraded),
        "degraded_reason": result.degraded_reason,
        "degraded_code": result.degraded_code,
    }


@dataclass
class ChaosResult:
    """The expanded grid plus per-cell outcomes and engine accounting."""

    tasks: List[ChaosTask]
    run: RunResult
    store: Optional[ResultStore] = None

    @property
    def outcomes(self):
        return self.run.outcomes

    @property
    def stats(self):
        return self.run.stats

    @property
    def all_ok(self) -> bool:
        return self.run.all_ok

    @property
    def all_recovered(self) -> bool:
        """True iff every cell executed and its flows recovered."""
        return all(o.ok and o.result.get("recovered")
                   for o in self.outcomes)

    def rows(self) -> List[dict]:
        """Aggregate verdicts per (protocol, fault, backend) group."""
        grouped: Dict[Tuple[str, str, str], List[dict]] = {}
        for task, outcome in zip(self.tasks, self.outcomes):
            key = (task.protocol, task.fault, task.backend)
            grouped.setdefault(key, []).append(
                outcome.result if outcome.ok else None)
        rows = []
        for (protocol, fault, backend), cells in sorted(grouped.items()):
            ok = [c for c in cells if c is not None]
            times = [r["recovery_time"] for c in ok
                     for r in c["recovery"]
                     if r["recovery_time"] is not None]
            rows.append({
                "protocol": protocol,
                "fault": fault,
                "backend": backend,
                "cells": len(cells),
                "failed": len(cells) - len(ok),
                "recovered": sum(1 for c in ok if c["recovered"]),
                "degraded": sum(1 for c in ok if c["degraded"]),
                "mean_recovery_s": (sum(times) / len(times)
                                    if times else None),
            })
        return rows


def run_chaos_matrix(tasks: Sequence[ChaosTask], *, jobs: int = 1,
                     store: Optional[ResultStore] = None,
                     cache_dir: Optional[str] = None, resume: bool = True,
                     timeout: Optional[float] = None, retries: int = 1,
                     progress: Optional[ProgressFn] = None) -> ChaosResult:
    """Run the matrix through the campaign engine (cache, retries,
    crash isolation included).  Live-backend cells are ordinary
    picklable payloads too: each pool worker runs its own event loop and
    loopback socket pair via ``asyncio.run``."""
    tasks = list(tasks)
    if store is None and cache_dir is not None:
        store = ResultStore(cache_dir)
    run = run_tasks([t.to_dict() for t in tasks], run_chaos_task,
                    jobs=jobs, timeout=timeout, retries=retries,
                    store=store, keys=[t.key() for t in tasks],
                    resume=resume, progress=progress)
    return ChaosResult(tasks=tasks, run=run, store=store)
