"""The soak harness: budgeted, reproducible endurance runs.

A soak run keeps drawing random scenario cells — protocol × fault
schedule × channel (synth scenario or corpus trace) — and pushing them
through the campaign executor under a :class:`WorkerWatchdog`, until a
wall-clock or cell budget elapses.  *Random* here never means
*unrepeatable*: draw ``i`` of base seed ``s`` is produced by dedicated
``SeedSequence(s, spawn_key=...)`` streams keyed on ``i`` alone, so two
runs with the same seed draw bit-identical cells regardless of batching,
job count or how far the budget let each run get.  ``repro soak`` prints
a ``scenario draw <sha256>`` digest over the drawn cells so CI can
assert exactly that.

Every outcome is appended to a JSONL ledger in the state directory and
classified by :mod:`.triage`; cells that die for executable reasons
(crash / hang / oom) after exhausting retries land in the
:class:`~repro.resilience.watchdog.Quarantine` with a ready-to-run
reproduction command, and crash bundles land in ``bundles/`` via
:mod:`.blackbox`.  A re-run over the same state dir redraws the same
sequence: previously-ok cells come back cached from the result store,
poisoned cells are skipped without burning retries, and a larger budget
extends the window with new work; ``--fresh`` clears the ledger and the
poison list.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..campaign.executor import run_tasks
from ..campaign.spec import (Channel, TaskSpec, _canonical_json,
                             run_simulation_task)
from ..campaign.store import ResultStore
from ..cellular import SCENARIO_NAMES
from ..experiments.runner import PROTOCOL_NAMES
from ..faults.chaos import chaos_warmup
from ..faults.spec import FAULT_PRESETS
from .blackbox import ArmedSession, dump_bundle, normalize_traceback
from .triage import (
    POISON_KINDS,
    SoakRecord,
    SoakReport,
    classify,
    failure_detail,
    signature_of,
)

SOAK_SCHEMA = "repro.soak/1"
LEDGER_NAME = "ledger.jsonl"
QUARANTINE_NAME = "quarantine.json"

#: Fault presets a soak draws from: every named schedule.  "none" stays
#: in so a fraction of cells exercise the undisturbed path too.
SOAK_FAULTS = tuple(FAULT_PRESETS)

_INJECT_MODES = ("crash", "hang", "oom")


def _sized_injection(inject: Optional[dict],
                     rss_limit_mb: Optional[int]) -> Optional[dict]:
    """Resolve an injection directive against the run's budgets: an
    ``oom`` injection without an explicit size allocates just past the
    active RSS budget, so it trips the watchdog rather than idling under
    the ceiling.  Deterministic in the spec, so same-spec runs salt
    their cell keys identically."""
    if not inject:
        return inject
    if inject.get("mode") == "oom" and "mb" not in inject:
        inject = dict(inject)
        inject["mb"] = (rss_limit_mb or 128) + 128
    return inject

#: Worker-raised crash markers the parent parses back out of the
#: executor's ``error`` string (see :func:`run_soak_cell`).
_SIG_RE = re.compile(r"sig=([0-9a-f]{12})")
_BUNDLE_RE = re.compile(r"bundle=([^\s']+)")


@dataclass
class SoakSpec:
    """Everything one soak run needs, JSON-safe for the ledger header."""

    seed: int = 0
    budget_cells: Optional[int] = 50
    budget_seconds: Optional[float] = None
    protocols: Sequence[str] = ("verus", "sprout", "cubic", "newreno")
    faults: Sequence[str] = SOAK_FAULTS
    scenarios: Sequence[str] = tuple(SCENARIO_NAMES)
    corpus: Optional[str] = None        # corpus dir: traces replace scenarios
    duration: float = 4.0
    flows: int = 1
    rtt: float = 0.01
    deadline: float = 1.5
    jobs: int = 2
    timeout: Optional[float] = 60.0
    retries: int = 1
    stall_after: float = 2.0
    rss_limit_mb: Optional[int] = 1024
    state_dir: str = ".repro-soak"
    #: draw index -> injection directive (test/acceptance hook), e.g.
    #: ``{0: {"mode": "hang"}, 2: {"mode": "crash"}}``.
    inject: Dict[int, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for protocol in self.protocols:
            if protocol not in PROTOCOL_NAMES:
                raise ValueError(f"unknown protocol {protocol!r}")
        for fault in self.faults:
            if fault not in FAULT_PRESETS:
                raise ValueError(f"unknown fault preset {fault!r}")
        if self.budget_cells is None and self.budget_seconds is None:
            raise ValueError("need a cell or wall-clock budget")
        for draw, directive in self.inject.items():
            if directive.get("mode") not in _INJECT_MODES:
                raise ValueError(f"injection at draw {draw}: mode must be "
                                 f"one of {_INJECT_MODES}")


# ----------------------------------------------------------------------
# Drawing cells
# ----------------------------------------------------------------------
@dataclass
class SoakAxes:
    """The resolved grid axes one run draws from."""

    protocols: Tuple[str, ...]
    faults: Tuple[str, ...]
    channels: Tuple[Channel, ...]


def build_axes(spec: SoakSpec) -> SoakAxes:
    if spec.corpus is not None:
        from ..traces.corpus import load_corpus
        from ..traces.workload import corpus_channels
        corpus = load_corpus(spec.corpus)
        corpus.materialize()
        channels = tuple(corpus_channels(corpus))
        if not channels:
            raise ValueError(f"corpus {spec.corpus} has no traces")
    else:
        channels = tuple(Channel(name) for name in spec.scenarios)
    return SoakAxes(protocols=tuple(spec.protocols),
                    faults=tuple(spec.faults), channels=channels)


def draw_cell(spec: SoakSpec, axes: SoakAxes, draw: int) -> TaskSpec:
    """Cell for draw index ``draw`` — a pure function of (seed, axes,
    draw), independent of batching and of every other draw."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(0, draw)))
    protocol = axes.protocols[int(rng.integers(len(axes.protocols)))]
    fault = axes.faults[int(rng.integers(len(axes.faults)))]
    channel = axes.channels[int(rng.integers(len(axes.channels)))]
    seed = int(np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(1, draw)).generate_state(1)[0])
    return TaskSpec(
        scenario=channel.scenario, protocol=protocol, flows=spec.flows,
        duration=spec.duration, seed=seed, seed_index=draw, rtt=spec.rtt,
        warmup=chaos_warmup(spec.duration),
        trace_file=channel.trace_file, trace_sha256=channel.trace_sha256,
        fault=fault, deadline=spec.deadline)


def cell_key(cell: TaskSpec, inject: Optional[dict]) -> str:
    """Quarantine/cache key: the cell's content address, salted with the
    injection directive when one is active (an injected cell is a
    different task from its clean twin and must never share its cache
    entry or poison-list slot)."""
    if not inject:
        return cell.key()
    body = _canonical_json({"soak_inject": inject, "cell": cell.key()})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def draw_digest(cells: Sequence[TaskSpec]) -> str:
    """SHA-256 over the canonical JSON of all drawn cells — the value CI
    asserts is bit-identical across same-seed runs."""
    body = _canonical_json({"schema": SOAK_SCHEMA,
                            "cells": [c.to_dict() for c in cells]})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The worker side
# ----------------------------------------------------------------------
def _run_injection(directive: dict, heartbeat) -> dict:
    """Deterministic misbehaviour for acceptance tests and CI smoke."""
    mode = directive["mode"]
    if mode == "crash":
        raise RuntimeError("injected deterministic crash "
                           f"({directive.get('tag', 'soak')})")
    seconds = float(directive.get("seconds", 120.0))
    if mode == "hang":
        # A hung worker stops making progress *and* stops heartbeating.
        if heartbeat is not None:
            heartbeat.stop()
        time.sleep(seconds)
        return {"injected": "hang", "survived": True}
    # oom: allocate real memory and keep heartbeating so the supervisor
    # sees the RSS *climb* rather than a stall.  Chunked with sleeps —
    # one giant memset would hold the GIL long enough to starve the
    # heartbeat thread and read as a hang instead.
    target = int(directive.get("mb", 96))
    ballast: List[bytearray] = []
    allocated = 0
    deadline = time.monotonic() + seconds
    while allocated < target and time.monotonic() < deadline:
        chunk = min(16, target - allocated)
        ballast.append(bytearray(chunk << 20))
        allocated += chunk
        time.sleep(0.02)
    while time.monotonic() < deadline:
        time.sleep(0.05)
    return {"injected": "oom", "survived": True, "mb": allocated}


def run_soak_cell(payload: dict) -> dict:
    """Execute one soak cell under the armed flight recorder.

    Module-level so the pool can pickle it.  Underscore keys are runtime
    directives: ``_heartbeat`` (from the watchdog's ``wrap``), ``_soak``
    (bundle dir, repro line, optional injection).  On a catchable crash
    the worker dumps its own bundle — it still holds the timeline — and
    re-raises with the signature and bundle path embedded in the message
    for the parent to parse back out.
    """
    from .watchdog import Heartbeat

    heartbeat = None
    directive = payload.get("_heartbeat")
    if directive:
        heartbeat = Heartbeat.from_directive(directive).start()
    soak = payload.get("_soak") or {}
    clean = {k: v for k, v in payload.items() if not k.startswith("_")}
    try:
        inject = soak.get("inject")
        if inject:
            return _run_injection(inject, heartbeat)
        session = ArmedSession()
        from ..obs.timeline import telemetry
        try:
            with telemetry(session):
                result = run_simulation_task(clean)
        except Exception as exc:
            bundles = soak.get("bundles")
            if bundles:
                frames = normalize_traceback(exc)
                signature = signature_of("crash", "\n".join(frames))
                bundle = dump_bundle(
                    bundles, kind="crash", signature=signature,
                    task=clean, seed=clean.get("seed"), error=repr(exc),
                    frames=frames, session=session,
                    repro=soak.get("repro"))
                raise RuntimeError(
                    f"[crash] sig={signature} bundle={bundle} "
                    f"{type(exc).__name__}: {exc}") from exc
            raise
        result["invariant"] = session.report.to_dict()
        bundles = soak.get("bundles")
        if bundles and not session.report.ok:
            monitors = ",".join(session.report.monitors_violated())
            signature = signature_of("invariant", f"invariant:{monitors}")
            result["signature"] = signature
            result["bundle"] = dump_bundle(
                bundles, kind="invariant", signature=signature,
                task=clean, seed=clean.get("seed"),
                invariant=result["invariant"], session=session,
                repro=soak.get("repro"))
        elif bundles and result.get("degraded"):
            code = (result.get("degraded_code")
                    or result.get("degraded_reason") or "")
            signature = signature_of("degraded", f"degraded:{code}")
            result["signature"] = signature
            result["bundle"] = dump_bundle(
                bundles, kind="degraded", signature=signature,
                task=clean, seed=clean.get("seed"),
                error=result.get("degraded_reason"), session=session,
                repro=soak.get("repro"))
        return result
    finally:
        if heartbeat is not None:
            heartbeat.stop()


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
@dataclass
class SoakResult:
    """One run's worth of records plus the rollup and draw digest."""

    records: List[SoakRecord]
    report: SoakReport
    digest: str
    draws: int
    skipped: int
    stats: dict


def _repro_line(spec: SoakSpec, key: str) -> str:
    return (f"repro soak --state-dir {spec.state_dir} "
            f"--seed {spec.seed} --replay {key[:12]}")


def _ledger_path(state_dir) -> Path:
    return Path(state_dir) / LEDGER_NAME


def load_ledger(state_dir) -> List[SoakRecord]:
    """The ledger, deduplicated to the latest record per draw (a re-run
    over the same state dir appends fresh records for the same draws —
    cached, quarantined, or re-executed — and the latest verdict wins)."""
    latest: Dict[int, SoakRecord] = {}
    try:
        with _ledger_path(state_dir).open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    record = SoakRecord.from_dict(json.loads(line))
                    latest[record.draw] = record
    except OSError:
        pass
    return [latest[d] for d in sorted(latest)]


def _append_ledger(state_dir, records: Sequence[SoakRecord]) -> None:
    path = _ledger_path(state_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), sort_keys=True,
                                separators=(",", ":")) + "\n")


def _parse_worker_markers(error: Optional[str]
                          ) -> Tuple[Optional[str], Optional[str]]:
    if not error:
        return None, None
    sig = _SIG_RE.search(error)
    bundle = _BUNDLE_RE.search(error)
    return (sig.group(1) if sig else None,
            bundle.group(1) if bundle else None)


def _record_outcome(spec: SoakSpec, draw: int, cell: TaskSpec, key: str,
                    inject: Optional[dict], outcome,
                    bundles_dir: Path) -> SoakRecord:
    """Classify one executor outcome; dump a parent-side bundle when the
    worker could not (killed, timed out, died uncleanly)."""
    result = outcome.result if outcome.ok else None
    kind = classify(outcome.status, outcome.error, result,
                    attempts=outcome.attempts)
    repro = _repro_line(spec, key)
    if kind in ("ok",):
        return SoakRecord(
            draw=draw, key=key, status=outcome.status, kind="ok",
            signature=None, cell={"task": cell.to_dict(), "inject": inject},
            attempts=outcome.attempts, seconds=outcome.seconds,
            recovered=bool(result and result.get("recovered")))
    signature, bundle = _parse_worker_markers(outcome.error)
    if signature is None:
        if result is not None and result.get("signature"):
            signature = result["signature"]
            bundle = result.get("bundle")
        else:
            signature = signature_of(
                kind, failure_detail(kind, outcome.error, result))
    if bundle is None and kind in POISON_KINDS:
        # The worker is gone (watchdog kill, timeout, hard death): the
        # parent writes the bundle from what it still knows.
        bundle = dump_bundle(
            bundles_dir, kind=kind, signature=signature,
            task=cell.to_dict(), seed=cell.seed, error=outcome.error,
            repro=repro)
    return SoakRecord(
        draw=draw, key=key, status=outcome.status, kind=kind,
        signature=signature, cell={"task": cell.to_dict(), "inject": inject},
        error=outcome.error, attempts=outcome.attempts,
        seconds=outcome.seconds,
        recovered=bool(result and result.get("recovered")),
        bundle=bundle, repro=repro)


def run_soak(spec: SoakSpec, *, fresh: bool = False,
             progress=None, log=None) -> SoakResult:
    """Run one budgeted soak; returns this run's records and rollup.

    ``progress(outcome, done, total)`` is forwarded to the executor per
    batch; ``log(str)`` receives one line per batch and the final draw
    digest line.
    """
    from .watchdog import Quarantine, WorkerWatchdog

    state = Path(spec.state_dir)
    state.mkdir(parents=True, exist_ok=True)
    quarantine = Quarantine(state / QUARANTINE_NAME)
    if fresh:
        quarantine.clear()
        try:
            _ledger_path(state).unlink()
        except OSError:
            pass
    bundles_dir = state / "bundles"
    store = ResultStore(str(state / "cache"))

    # Every run draws the same sequence from draw 0: the draw is a pure
    # function of (seed, draw index), so a re-run over the same state
    # dir redraws identical cells — previously-ok ones come back cached
    # from the result store, poisoned ones are skipped by the
    # quarantine, and only genuinely new work executes.
    next_draw = 0
    axes = build_axes(spec)
    started = time.monotonic()
    batch_size = max(4, spec.jobs * 4)
    all_cells: List[TaskSpec] = []
    records: List[SoakRecord] = []
    skipped = 0
    agg: Dict[str, int] = {"executed": 0, "cached": 0, "failed": 0,
                           "timeouts": 0, "retries": 0, "pool_restarts": 0}
    draws_done = 0

    def over_budget() -> bool:
        if spec.budget_cells is not None and draws_done >= spec.budget_cells:
            return True
        if spec.budget_seconds is not None and \
                time.monotonic() - started >= spec.budget_seconds:
            return True
        return False

    while not over_budget():
        count = batch_size
        if spec.budget_cells is not None:
            count = min(count, spec.budget_cells - draws_done)
        draws = list(range(next_draw, next_draw + count))
        next_draw += count
        draws_done += count
        cells = [draw_cell(spec, axes, d) for d in draws]
        all_cells.extend(cells)
        injections = [_sized_injection(spec.inject.get(d), spec.rss_limit_mb)
                      for d in draws]
        keys = [cell_key(c, inj) for c, inj in zip(cells, injections)]

        batch_records: Dict[int, SoakRecord] = {}
        run_draws, run_cells, run_keys, run_payloads = [], [], [], []
        run_injs: List[Optional[dict]] = []
        for d, cell, inj, key in zip(draws, cells, injections, keys):
            entry = quarantine.get(key)
            if entry is not None:
                # Known poison: skip without submitting (and without
                # burning retries); count the sighting.
                quarantine.add(key, kind=entry["kind"],
                               signature=entry["signature"],
                               repro=entry["repro"], cell=entry["cell"])
                skipped += 1
                batch_records[d] = SoakRecord(
                    draw=d, key=key, status="quarantined",
                    kind=entry["kind"], signature=entry["signature"],
                    cell={"task": cell.to_dict(), "inject": inj},
                    error=entry.get("error"), attempts=0,
                    repro=entry["repro"], )
                continue
            payload = cell.to_dict()
            payload["_soak"] = {"bundles": str(bundles_dir),
                                "repro": _repro_line(spec, key)}
            if inj:
                payload["_soak"]["inject"] = inj
            run_draws.append(d)
            run_cells.append(cell)
            run_keys.append(key)
            run_payloads.append(payload)
            run_injs.append(inj)

        if run_payloads:
            watchdog = WorkerWatchdog(
                state / "hb", stall_after=spec.stall_after,
                rss_limit_bytes=(None if spec.rss_limit_mb is None
                                 else spec.rss_limit_mb << 20))
            run = run_tasks(run_payloads, run_soak_cell, jobs=spec.jobs,
                            timeout=spec.timeout, retries=spec.retries,
                            store=store, keys=run_keys, resume=True,
                            progress=progress, supervisor=watchdog)
            for stat in agg:
                agg[stat] += getattr(run.stats, stat)
            for d, cell, key, inj, outcome in zip(run_draws, run_cells,
                                                  run_keys, run_injs,
                                                  run.outcomes):
                record = _record_outcome(spec, d, cell, key, inj,
                                         outcome, bundles_dir)
                batch_records[d] = record
                if record.kind in POISON_KINDS and \
                        record.status in ("failed", "timeout"):
                    quarantine.add(key, kind=record.kind,
                                   signature=record.signature or "",
                                   repro=record.repro or "",
                                   cell={"task": cell.to_dict(),
                                         "inject": inj},
                                   error=record.error)

        ordered = [batch_records[d] for d in draws]
        records.extend(ordered)
        _append_ledger(state, ordered)
        if log is not None:
            report_so_far = SoakReport(records)
            log(f"soak: {draws_done} cells drawn, "
                f"{len(report_so_far.signatures)} signatures, "
                f"{skipped} quarantined-skips")

    digest = draw_digest(all_cells)
    if log is not None:
        log(f"scenario draw {digest}")
    return SoakResult(records=records, report=SoakReport(records),
                      digest=digest, draws=draws_done, skipped=skipped,
                      stats=agg)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def find_cell(state_dir, key_prefix: str) -> Optional[dict]:
    """Look up one recorded cell by key prefix, poison list first."""
    from .watchdog import Quarantine

    quarantine = Quarantine(Path(state_dir) / QUARANTINE_NAME)
    for key, entry in quarantine.entries.items():
        if key.startswith(key_prefix):
            return {"key": key, "cell": entry["cell"]}
    for record in load_ledger(state_dir):
        if record.key.startswith(key_prefix):
            return {"key": record.key, "cell": record.cell}
    return None


def replay_cell(spec: SoakSpec, key_prefix: str,
                progress=None) -> SoakRecord:
    """Re-run one recorded cell under full supervision.

    Runs through the pooled executor with the watchdog armed (jobs=1
    would run serial and could not preempt a replayed hang), bypassing
    the result cache so the cell actually executes.
    """
    from .watchdog import WorkerWatchdog

    found = find_cell(spec.state_dir, key_prefix)
    if found is None:
        raise KeyError(f"no soaked cell with key prefix {key_prefix!r} "
                       f"in {spec.state_dir}")
    cell = TaskSpec.from_dict(found["cell"]["task"])
    inject = found["cell"].get("inject")
    state = Path(spec.state_dir)
    payload = cell.to_dict()
    payload["_soak"] = {"bundles": str(state / "bundles"),
                        "repro": _repro_line(spec, found["key"])}
    if inject:
        payload["_soak"]["inject"] = inject
    watchdog = WorkerWatchdog(
        state / "hb", stall_after=spec.stall_after,
        rss_limit_bytes=(None if spec.rss_limit_mb is None
                         else spec.rss_limit_mb << 20))
    run = run_tasks([payload], run_soak_cell, jobs=2,
                    timeout=spec.timeout, retries=spec.retries,
                    progress=progress, supervisor=watchdog)
    return _record_outcome(spec, -1, cell, found["key"], inject,
                           run.outcomes[0], state / "bundles")
