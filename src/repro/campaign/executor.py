"""Campaign execution: a crash-isolated process pool with caching.

:func:`run_tasks` is the generic engine — it takes picklable payloads
plus a module-level task function and returns one :class:`TaskOutcome`
per payload, in input order, regardless of completion order.  On top of
it, :func:`run_campaign` wires in the sweep-specific pieces: task
hashing, the :class:`~repro.campaign.store.ResultStore`, and the
simulation task function.

Failure semantics
-----------------
* **Worker exception** — the task is retried up to ``retries`` times
  with linear backoff, then marked ``failed`` with the repr of the last
  exception.  Other tasks are unaffected.
* **Worker death** (segfault, OOM-kill, ``os._exit``) — Python's
  :class:`~concurrent.futures.ProcessPoolExecutor` poisons the whole
  pool when a worker dies.  The engine catches the broken pool, rebuilds
  it, and requeues every in-flight task with one attempt consumed, so a
  deterministically-crashing cell exhausts its retries and is marked
  failed while its innocent neighbours complete on the fresh pool.
* **Timeout** — enforced in pooled mode only (a serial in-process run
  cannot preempt itself).  Each future carries exactly one task, and
  in-flight occupancy is capped at ``jobs``, so every submitted task
  starts immediately and its deadline is measured from submission.  A
  timed-out future is abandoned (its late result, if any, is
  discarded) and the cell is marked ``timeout``
  without retry — a deterministic hang would only burn workers again.
* **Supervised kill** — a ``supervisor`` (e.g. the resilience
  subsystem's :class:`~repro.resilience.watchdog.WorkerWatchdog`) may
  SIGKILL a hung or over-budget worker.  That breaks the pool like any
  worker death, but the supervisor *attributes* the kill: only the
  offending task consumes an attempt (with capped exponential backoff
  before requeue, or its kill reason as the final error); innocent
  in-flight siblings are requeued without burning a retry.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .spec import CampaignSpec, TaskSpec, run_simulation_task
from .store import ResultStore

ProgressFn = Callable[["TaskOutcome", int, int], None]

#: Ceiling on the backoff applied before requeueing a task whose worker
#: the supervisor shot (hang / RSS breach).
KILL_BACKOFF_CAP = 2.0


@dataclass
class TaskOutcome:
    """What happened to one task."""

    index: int
    key: Optional[str] = None
    status: str = "failed"          # ok | cached | failed | timeout
    result: Any = None
    error: Optional[str] = None
    attempts: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class ExecutorStats:
    """Aggregate accounting for one engine run."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    timeouts: int = 0
    retries: int = 0
    pool_restarts: int = 0
    #: Wall time spent probing the result store for cached cells.
    cache_lookup_seconds: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RunResult:
    """Outcomes (in input order) plus run accounting."""

    outcomes: List[TaskOutcome]
    stats: ExecutorStats

    @property
    def all_ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


@dataclass
class _InFlight:
    index: int
    attempts: int
    submitted: float


def _run_one(task_fn: Callable[[Any], Any], payload: Any) -> tuple:
    """Worker-side wrapper: run one payload, timing it and catching its
    exception inside the worker, so ``TaskOutcome.seconds`` is the
    task's own run time rather than time since submission.
    Module-level so :class:`ProcessPoolExecutor` can pickle it."""
    started = time.monotonic()
    try:
        result = task_fn(payload)
    except Exception as exc:
        return "err", repr(exc), time.monotonic() - started
    return "ok", result, time.monotonic() - started


def _handed_off(payload: Any) -> Any:
    """Stamp a payload that asks for span timings (``_timings``) with the
    wall-clock moment it is handed to a worker, or called on the serial
    path, as ``_submitted``: the worker's ``queue_wait_s`` is then its
    hand-off wait, not its position in the backlog.  Each attempt is
    stamped afresh, so a retry's wait starts at its own hand-off."""
    if isinstance(payload, dict) and payload.get("_timings"):
        payload = dict(payload, _submitted=time.time())
    return payload


def run_tasks(payloads: Sequence[Any], task_fn: Callable[[Any], Any], *,
              jobs: int = 1, timeout: Optional[float] = None,
              retries: int = 1, backoff: float = 0.25,
              store: Optional[ResultStore] = None,
              keys: Optional[Sequence[Optional[str]]] = None,
              resume: bool = True,
              progress: Optional[ProgressFn] = None,
              supervisor: Optional[Any] = None) -> RunResult:
    """Run ``task_fn`` over ``payloads`` and return per-task outcomes.

    ``task_fn`` must be a module-level callable (picklable) when
    ``jobs > 1``.  When ``store`` and ``keys`` are given, tasks whose key
    is already stored are returned as ``cached`` without executing
    (unless ``resume`` is False), and fresh successes are persisted —
    their results must then be JSON-serializable.

    ``supervisor`` (pooled mode only) is a duck-typed worker watchdog:
    ``wrap(index, attempts, payload)`` is called at submission and may
    return an augmented payload, ``poll()`` runs once per engine loop
    iteration and may kill misbehaving workers, ``take_kills()`` returns
    ``{index: reason}`` for kills since the last call (consumed when the
    pool breaks, to attribute the break), and ``release(index)`` is
    called whenever a task leaves flight.

    In pooled mode every future carries exactly one payload, so each
    task has its own deadline (``timeout`` seconds from submission), its
    own worker-side timing and its own supervisor registration.
    """
    n = len(payloads)
    if keys is None:
        keys = [None] * n
    if len(keys) != n:
        raise ValueError("keys must match payloads in length")
    stats = ExecutorStats(total=n)
    outcomes: List[Optional[TaskOutcome]] = [None] * n
    done_count = 0

    def finish(outcome: TaskOutcome) -> None:
        nonlocal done_count
        if outcomes[outcome.index] is not None:
            raise RuntimeError(
                f"task {outcome.index} finished twice "
                f"({outcomes[outcome.index].status} then {outcome.status}) — "
                f"executor accounting bug")
        outcomes[outcome.index] = outcome
        done_count += 1
        if outcome.status == "cached":
            stats.cached += 1
        elif outcome.status == "timeout":
            stats.timeouts += 1
        elif outcome.status == "failed":
            stats.failed += 1
        else:
            stats.executed += 1
        if outcome.ok and outcome.status == "ok" and store is not None \
                and outcome.key is not None:
            task_dict = payloads[outcome.index]
            if not isinstance(task_dict, dict):
                task_dict = {"payload": repr(task_dict)}
            else:
                # Underscore keys are runtime directives (telemetry,
                # submission stamps), not part of the task's identity —
                # keep the stored spec canonical.
                task_dict = {k: v for k, v in task_dict.items()
                             if not k.startswith("_")}
            store.put(outcome.key, task_dict, outcome.result,
                      seconds=outcome.seconds)
        if progress is not None:
            progress(outcome, done_count, n)

    pending = deque()
    for index in range(n):
        key = keys[index]
        if resume and store is not None and key is not None:
            lookup_started = time.monotonic()
            record = store.get(key)
            stats.cache_lookup_seconds += time.monotonic() - lookup_started
            if record is not None:
                finish(TaskOutcome(index=index, key=key, status="cached",
                                   result=record["result"]))
                continue
        pending.append((index, 0))

    if not pending:
        return RunResult([o for o in outcomes if o is not None], stats)

    if jobs <= 1:
        _run_serial(pending, payloads, keys, task_fn, retries, backoff,
                    stats, finish)
    else:
        _run_pool(pending, payloads, keys, task_fn, jobs, timeout, retries,
                  backoff, stats, finish, supervisor)
    return RunResult([o for o in outcomes if o is not None], stats)


def _run_serial(pending, payloads, keys, task_fn, retries, backoff,
                stats, finish) -> None:
    while pending:
        index, attempts = pending.popleft()
        started = time.monotonic()
        try:
            result = task_fn(_handed_off(payloads[index]))
        except Exception as exc:
            if attempts < retries:
                stats.retries += 1
                time.sleep(backoff * (attempts + 1))
                pending.appendleft((index, attempts + 1))
                continue
            finish(TaskOutcome(index=index, key=keys[index], status="failed",
                               error=repr(exc), attempts=attempts + 1,
                               seconds=time.monotonic() - started))
            continue
        finish(TaskOutcome(index=index, key=keys[index], status="ok",
                           result=result, attempts=attempts + 1,
                           seconds=time.monotonic() - started))


def _run_pool(pending, payloads, keys, task_fn, jobs, timeout, retries,
              backoff, stats, finish, supervisor=None) -> None:
    pool = ProcessPoolExecutor(max_workers=jobs)
    inflight: Dict[Any, _InFlight] = {}
    abandoned = 0   # timed-out futures whose workers are still busy
    freed: deque = deque()   # signalled (thread-safe) when one finishes late
    # Pool generation, stamped on every abandoned future's done-callback.
    # A rebuild discards the abandoned workers along with the old pool, so
    # a *stale* callback (an old-pool worker finally returning) must not
    # decrement the new pool's abandoned count — that would over-submit
    # and mark cells timed out that never got a worker.
    generation = 0

    def release(index: int) -> None:
        if supervisor is not None:
            supervisor.release(index)

    def settle_freed() -> None:
        nonlocal abandoned
        while freed:
            if freed.popleft() == generation:
                abandoned = max(0, abandoned - 1)

    finished = False
    try:
        while pending or inflight:
            settle_freed()
            # In-flight is capped at the worker count (minus any workers
            # still burning on abandoned tasks), so a submitted task
            # starts at once and its deadline runs from submission.
            while pending and len(inflight) + abandoned < jobs:
                index, attempts = pending.popleft()
                payload = _handed_off(payloads[index])
                if supervisor is not None:
                    payload = supervisor.wrap(index, attempts, payload)
                future = pool.submit(_run_one, task_fn, payload)
                inflight[future] = _InFlight(index, attempts,
                                             time.monotonic())
            if not inflight:
                # Every worker is burning on an abandoned task; idle
                # until one frees up rather than busy-spinning.
                time.sleep(0.02)
                continue
            if supervisor is not None:
                supervisor.poll()
            done, _ = wait(list(inflight), timeout=0.05,
                           return_when=FIRST_COMPLETED)
            pool_broken = False
            # Kill attribution is consumed lazily, once per loop pass, and
            # only on the pool-broken paths — reasons stay queued in the
            # supervisor until the break they caused is actually observed.
            kills: Optional[Dict[int, str]] = None

            def attributed_kills() -> Dict[int, str]:
                nonlocal kills
                if kills is None:
                    kills = (supervisor.take_kills()
                             if supervisor is not None else {})
                return kills

            def casualty(info: _InFlight) -> None:
                """One in-flight task lost to a broken pool."""
                index, attempts = info.index, info.attempts
                elapsed = time.monotonic() - info.submitted
                release(index)
                blame = attributed_kills()
                if index in blame:
                    # The supervisor shot this task's worker: it alone
                    # consumes an attempt, with capped backoff.
                    if attempts < retries:
                        stats.retries += 1
                        time.sleep(min(backoff * (2 ** attempts),
                                       KILL_BACKOFF_CAP))
                        pending.append((index, attempts + 1))
                    else:
                        finish(TaskOutcome(
                            index=index, key=keys[index],
                            status="failed", error=blame[index],
                            attempts=attempts + 1, seconds=elapsed))
                elif blame:
                    # Attributed break, innocent sibling: requeue free.
                    pending.append((index, attempts))
                else:
                    _requeue_or_fail(index, attempts, pending, keys,
                                     retries, stats, finish, elapsed,
                                     "worker process died")

            for future in done:
                info = inflight.pop(future)
                index, attempts = info.index, info.attempts
                try:
                    status, value, seconds = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    casualty(info)
                    continue
                except CancelledError:
                    # Only reachable when a breaking pool cancelled queued
                    # siblings; treat like any other casualty.
                    release(index)
                    _requeue_or_fail(index, attempts, pending, keys,
                                     retries, stats, finish,
                                     time.monotonic() - info.submitted,
                                     "cancelled by pool")
                    continue
                release(index)
                if status == "ok":
                    finish(TaskOutcome(
                        index=index, key=keys[index], status="ok",
                        result=value, attempts=attempts + 1,
                        seconds=seconds))
                elif attempts < retries:
                    stats.retries += 1
                    time.sleep(backoff * (attempts + 1))
                    pending.append((index, attempts + 1))
                else:
                    finish(TaskOutcome(
                        index=index, key=keys[index], status="failed",
                        error=value, attempts=attempts + 1,
                        seconds=seconds))
            if pool_broken:
                # Every sibling in flight is poisoned too: requeue them
                # (the attributed offender — or, unattributed, each one,
                # since any could be the killer — consumes an attempt)
                # and rebuild the pool.
                for info in inflight.values():
                    casualty(info)
                inflight.clear()
                abandoned = 0
                generation += 1
                stats.pool_restarts += 1
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=jobs)
                continue
            if timeout is not None:
                now = time.monotonic()
                for future, info in list(inflight.items()):
                    if now - info.submitted > timeout \
                            and not future.cancel():
                        # Still running: abandon it. The worker frees up
                        # whenever the task eventually returns; its late
                        # result is discarded with the future.
                        del inflight[future]
                        abandoned += 1
                        future.add_done_callback(
                            lambda f, q=freed, g=generation:
                                (_noteless(f), q.append(g)))
                        release(info.index)
                        finish(TaskOutcome(
                            index=info.index, key=keys[info.index],
                            status="timeout",
                            error=f"timed out after {timeout:g}s",
                            attempts=info.attempts + 1,
                            seconds=now - info.submitted))
        finished = True
    finally:
        settle_freed()
        # Wait for the workers to exit, so none outlives the run and the
        # pool's wakeup pipe is closed only once its manager thread is
        # done with it.  Waiting is unsafe only after an error or while a
        # timed-out task still occupies a worker: it would block on it.
        pool.shutdown(wait=finished and not abandoned, cancel_futures=True)


def _requeue_or_fail(index: int, attempts: int, pending, keys, retries,
                     stats, finish, elapsed: float, reason: str) -> None:
    if attempts < retries:
        stats.retries += 1
        pending.append((index, attempts + 1))
    else:
        finish(TaskOutcome(index=index, key=keys[index],
                           status="failed", error=reason,
                           attempts=attempts + 1, seconds=elapsed))


def _noteless(future) -> None:
    """Swallow the late result/exception of an abandoned future."""
    try:
        future.exception()
    except Exception:
        pass


@dataclass
class CampaignResult:
    """Everything a sweep produced: the expanded grid, per-task
    outcomes, engine accounting, and (if used) the store."""

    tasks: List[TaskSpec]
    outcomes: List[TaskOutcome]
    stats: ExecutorStats
    store: Optional[ResultStore] = None

    @property
    def all_ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def summaries(self) -> List[Optional[dict]]:
        """Per-task result summaries (None where a task failed)."""
        return [o.result if o.ok else None for o in self.outcomes]


def run_campaign(spec, *, jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 cache_dir: Optional[str] = None,
                 resume: bool = True,
                 timeout: Optional[float] = None,
                 retries: int = 1, backoff: float = 0.25,
                 collect_timings: bool = False,
                 progress: Optional[ProgressFn] = None) -> CampaignResult:
    """Expand a :class:`CampaignSpec` (or take a pre-expanded task list)
    and run every cell through the engine.

    With neither ``store`` nor ``cache_dir`` the sweep runs uncached;
    passing ``cache_dir`` creates a :class:`ResultStore` there.

    ``collect_timings`` asks each worker for per-task span timings
    (queue wait, trace generation, simulation run) in the result summary
    under ``"timings"``.  The directive rides in underscore-prefixed
    payload keys, which are stripped before hashing and storage, so
    cache keys — and therefore resumability — are unaffected.
    """
    if isinstance(spec, CampaignSpec):
        tasks = spec.expand()
    else:
        tasks = list(spec)
    if store is None and cache_dir is not None:
        store = ResultStore(cache_dir)
    payloads = [t.to_dict() for t in tasks]
    if collect_timings:
        for payload in payloads:
            payload["_timings"] = True
    run = run_tasks(payloads, run_simulation_task,
                    jobs=jobs, timeout=timeout, retries=retries,
                    backoff=backoff, store=store,
                    keys=[t.key() for t in tasks], resume=resume,
                    progress=progress)
    return CampaignResult(tasks=tasks, outcomes=run.outcomes,
                          stats=run.stats, store=store)
