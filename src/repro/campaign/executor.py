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
  pool when a worker dies.  The engine shuts the broken pool down,
  books every in-flight task that had already returned, requeues the
  rest with one attempt consumed and rebuilds the pool, so a
  deterministically-crashing cell exhausts its retries and is marked
  failed while its innocent neighbours complete on the fresh pool.
* **Timeout** — enforced in pooled mode only (a serial in-process run
  cannot preempt itself).  Each future carries exactly one task, and
  in-flight occupancy is capped at ``jobs``, so every submitted task
  starts immediately and its deadline is measured from submission.  A
  task past its deadline is marked ``timeout`` without retry — a
  deterministic hang would only burn workers again.  A future does not
  know which worker runs it, so the engine then SIGKILLs every worker
  of the pool, waits for the pool to shut down, requeues the siblings
  that were still in flight without consuming an attempt, and rebuilds
  the pool.  No hung worker outlives :func:`run_tasks`, and the
  interpreter never waits on one at exit.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .spec import CampaignSpec, TaskSpec, run_simulation_task
from .store import ResultStore

ProgressFn = Callable[["TaskOutcome", int, int], None]

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
              progress: Optional[ProgressFn] = None) -> RunResult:
    """Run ``task_fn`` over ``payloads`` and return per-task outcomes.

    ``task_fn`` must be a module-level callable (picklable) when
    ``jobs > 1``.  When ``store`` and ``keys`` are given, tasks whose key
    is already stored are returned as ``cached`` without executing
    (unless ``resume`` is False), and fresh successes are persisted —
    their results must then be JSON-serializable.

    In pooled mode every future carries exactly one payload, so each
    task has its own deadline (``timeout`` seconds from submission) and
    its own worker-side timing.
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
                  backoff, stats, finish)
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
              backoff, stats, finish) -> None:
    pool = ProcessPoolExecutor(max_workers=jobs)
    inflight: Dict[Any, _InFlight] = {}

    def settle(info: _InFlight, status: str, value: Any,
               seconds: float) -> None:
        """Book one task its worker returned: done, retried or failed."""
        index, attempts = info.index, info.attempts
        if status == "ok":
            finish(TaskOutcome(index=index, key=keys[index], status="ok",
                               result=value, attempts=attempts + 1,
                               seconds=seconds))
        elif attempts < retries:
            stats.retries += 1
            time.sleep(backoff * (attempts + 1))
            pending.append((index, attempts + 1))
        else:
            finish(TaskOutcome(index=index, key=keys[index], status="failed",
                               error=value, attempts=attempts + 1,
                               seconds=seconds))

    finished = False
    try:
        while pending or inflight:
            # In-flight is capped at the worker count, so a submitted task
            # starts at once and its deadline runs from submission.
            while pending and len(inflight) < jobs:
                index, attempts = pending.popleft()
                future = pool.submit(_run_one, task_fn,
                                     _handed_off(payloads[index]))
                inflight[future] = _InFlight(index, attempts,
                                             time.monotonic())
            done, _ = wait(list(inflight), timeout=0.05,
                           return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                returned = _returned(future)
                if returned is None:
                    # Lost with its pool: it stays in flight and is
                    # booked below, once the pool is down.
                    broken = True
                    continue
                settle(inflight.pop(future), *returned)
            expired = []
            if timeout is not None:
                now = time.monotonic()
                expired = [future for future, info in inflight.items()
                           if not future.done()
                           and now - info.submitted > timeout]
                for future in expired:
                    info = inflight.pop(future)
                    finish(TaskOutcome(
                        index=info.index, key=keys[info.index],
                        status="timeout",
                        error=f"timed out after {timeout:g}s",
                        attempts=info.attempts + 1,
                        seconds=now - info.submitted))
            if not (broken or expired):
                continue
            # A future does not know its worker, so a hung task is stopped
            # by killing the whole pool.  Once it is down every sibling
            # still in flight has either returned (and is booked as such)
            # or been lost with the pool.  A task lost to a worker death
            # uses an attempt (any of them could have been the one that
            # died); one lost only to a timeout kill is requeued free.
            _kill_workers(pool)
            for future, info in inflight.items():
                returned = _returned(future)
                if returned is not None:
                    settle(info, *returned)
                elif broken:
                    _requeue_or_fail(info.index, info.attempts, pending,
                                     keys, retries, stats, finish,
                                     time.monotonic() - info.submitted,
                                     "worker process died")
                else:
                    pending.append((info.index, info.attempts))
            inflight.clear()
            stats.pool_restarts += 1
            pool = ProcessPoolExecutor(max_workers=jobs)
        finished = True
    finally:
        # Wait for the workers to exit, so none outlives the run and the
        # pool's wakeup pipe is closed only once its manager thread is
        # done with it.  After an error a worker may still be busy: kill
        # it rather than wait on it.
        if finished:
            pool.shutdown(wait=True)
        else:
            _kill_workers(pool)


def _returned(future) -> Optional[tuple]:
    """``_run_one``'s ``(status, value, seconds)`` for a future whose
    task came back, or None for one lost with its pool (its worker died,
    or the breaking pool cancelled it).  An exception the pool raised
    for the task itself (an unpicklable result, say) is a task error."""
    if future.cancelled() or not future.done():
        return None
    exc = future.exception()
    if isinstance(exc, BrokenProcessPool):
        return None
    if exc is not None:
        return "err", repr(exc), 0.0
    return future.result()


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of ``pool`` and wait for it to shut down.

    The pool's own manager thread notices the deaths, fails the futures
    still in flight with :class:`BrokenProcessPool` and reaps the
    workers; waiting for it leaves no worker process behind."""
    for process in list((pool._processes or {}).values()):
        process.kill()
    pool.shutdown(wait=True, cancel_futures=True)


def _requeue_or_fail(index: int, attempts: int, pending, keys, retries,
                     stats, finish, elapsed: float, reason: str) -> None:
    if attempts < retries:
        stats.retries += 1
        pending.append((index, attempts + 1))
    else:
        finish(TaskOutcome(index=index, key=keys[index],
                           status="failed", error=reason,
                           attempts=attempts + 1, seconds=elapsed))


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
