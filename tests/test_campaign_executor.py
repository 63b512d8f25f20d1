"""Failure-mode tests for the campaign executor: timeouts, worker
exceptions, flaky-task retries, worker death, and cache-hit skipping.

Task functions live at module level so ``ProcessPoolExecutor`` can
pickle them into worker processes; flaky/crash behaviour is keyed off
sentinel files because pool workers share no Python state with the
test process.
"""

import os
import time
from pathlib import Path

from repro.campaign import ResultStore, run_tasks


def echo_task(payload):
    return payload["value"]


def sleep_task(payload):
    time.sleep(payload["sleep"])
    return "slept"


def boom_task(payload):
    raise ValueError(f"boom:{payload['value']}")


def flaky_task(payload):
    """Fails on the first call, succeeds once the sentinel exists."""
    sentinel = Path(payload["sentinel"])
    if not sentinel.exists():
        sentinel.touch()
        raise RuntimeError("transient failure")
    return "recovered"


def crashy_task(payload):
    """Kills its worker process outright — after a short delay, so
    innocent neighbours finish their (faster) tasks first."""
    if payload.get("crash"):
        time.sleep(0.4)
        os._exit(17)
    time.sleep(0.05)
    return payload["value"]


def heartbeat_sleep_task(payload):
    """Heartbeats while it sleeps and silences the beacon on the way
    out, like ``run_soak_cell``."""
    from repro.resilience.watchdog import Heartbeat

    heartbeat = Heartbeat.from_directive(payload["_heartbeat"]).start()
    try:
        time.sleep(payload["sleep"])
    finally:
        heartbeat.stop()
    return payload["value"]


def counting_task(payload):
    """Appends to a ledger file so executions are observable across
    processes, then returns a JSON-safe result."""
    with open(payload["ledger"], "a") as fh:
        fh.write("x")
    return {"value": payload["value"]}


class TestSerialExecution:
    def test_results_in_input_order(self):
        run = run_tasks([{"value": i} for i in range(5)], echo_task)
        assert [o.result for o in run.outcomes] == list(range(5))
        assert run.all_ok
        assert run.stats.executed == 5

    def test_worker_exception_marks_task_failed(self):
        run = run_tasks([{"value": 1}, {"value": 2}], boom_task, retries=0)
        assert [o.status for o in run.outcomes] == ["failed", "failed"]
        assert "boom:1" in run.outcomes[0].error
        assert run.stats.failed == 2

    def test_failure_does_not_stop_siblings(self):
        run = run_tasks([{"value": 1}], boom_task, retries=0)
        ok = run_tasks([{"value": 7}], echo_task)
        assert not run.outcomes[0].ok
        assert ok.outcomes[0].result == 7

    def test_retry_then_succeed(self, tmp_path):
        payload = {"sentinel": str(tmp_path / "s1")}
        run = run_tasks([payload], flaky_task, retries=1, backoff=0.01)
        assert run.outcomes[0].status == "ok"
        assert run.outcomes[0].result == "recovered"
        assert run.outcomes[0].attempts == 2
        assert run.stats.retries == 1

    def test_retries_exhausted(self, tmp_path):
        run = run_tasks([{"value": 9}], boom_task, retries=2, backoff=0.01)
        assert run.outcomes[0].status == "failed"
        assert run.outcomes[0].attempts == 3
        assert run.stats.retries == 2


class TestPooledExecution:
    def test_results_in_input_order(self):
        run = run_tasks([{"value": i} for i in range(6)], echo_task, jobs=3)
        assert [o.result for o in run.outcomes] == list(range(6))
        assert run.stats.executed == 6

    def test_task_timeout(self):
        run = run_tasks([{"sleep": 5.0}, {"sleep": 0.01}], sleep_task,
                        jobs=2, timeout=0.5)
        by_status = {o.status for o in run.outcomes}
        assert run.outcomes[0].status == "timeout"
        assert run.outcomes[1].status == "ok"
        assert "timed out" in run.outcomes[0].error
        assert run.stats.timeouts == 1
        assert by_status == {"timeout", "ok"}

    def test_seconds_is_the_task_run_time(self):
        # Four ~0.3 s tasks on two workers.  The second wave starts
        # ~0.3 s into the run, so a clock started any earlier than the
        # task itself (at the run's start, say) would read ~0.6 s.
        run = run_tasks([{"sleep": 0.3}] * 4, sleep_task, jobs=2)
        assert run.all_ok
        assert all(0.25 < o.seconds < 0.5 for o in run.outcomes)

    def test_worker_exception_is_isolated(self):
        payloads = [{"value": 1}, {"value": 2}, {"value": 3}]
        run = run_tasks(payloads, boom_task, jobs=2, retries=0)
        assert all(o.status == "failed" for o in run.outcomes)
        assert run.stats.failed == 3

    def test_retry_then_succeed_across_processes(self, tmp_path):
        payloads = [{"sentinel": str(tmp_path / f"s{i}")} for i in range(3)]
        run = run_tasks(payloads, flaky_task, jobs=2, retries=1, backoff=0.01)
        assert all(o.status == "ok" for o in run.outcomes)
        assert all(o.attempts == 2 for o in run.outcomes)
        assert run.stats.retries == 3

    def test_worker_death_fails_one_task_not_the_campaign(self):
        payloads = [{"crash": True, "value": 0}] + \
                   [{"value": i} for i in range(1, 4)]
        run = run_tasks(payloads, crashy_task, jobs=2, retries=1,
                        backoff=0.01)
        assert run.outcomes[0].status == "failed"
        assert "died" in run.outcomes[0].error
        assert [o.result for o in run.outcomes[1:]] == [1, 2, 3]
        assert run.stats.pool_restarts >= 1


class TestCaching:
    def test_cache_hit_skips_execution(self, tmp_path):
        ledger = tmp_path / "ledger"
        ledger.touch()
        store = ResultStore(tmp_path / "cache")
        payloads = [{"ledger": str(ledger), "value": i} for i in range(3)]
        keys = [f"{i:02d}" * 32 for i in range(3)]

        first = run_tasks(payloads, counting_task, store=store, keys=keys)
        assert first.stats.executed == 3
        assert ledger.read_text() == "xxx"

        second = run_tasks(payloads, counting_task, store=store, keys=keys)
        assert second.stats.cached == 3
        assert second.stats.executed == 0
        assert ledger.read_text() == "xxx"   # no re-execution
        assert [o.result for o in second.outcomes] == \
               [{"value": i} for i in range(3)]

    def test_failed_tasks_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_tasks([{"value": 1}], boom_task, store=store,
                        keys=["aa" * 32], retries=0)
        assert not run.outcomes[0].ok
        assert len(store) == 0


def stuck_task(payload):
    """Sleeps far past any test deadline unless told otherwise."""
    if payload.get("stuck"):
        time.sleep(30.0)
        return "woke"
    time.sleep(0.05)
    return payload["value"]


def crash_once_task(payload):
    """Kills its worker on the first call only (sentinel file), so the
    rebuilt pool survives and in-flight siblings get a clean retry."""
    sentinel = Path(payload["sentinel"])
    if not sentinel.exists():
        sentinel.touch()
        time.sleep(0.4)
        os._exit(17)
    time.sleep(0.05)
    return payload["value"]


class TestTimeoutAcrossPoolRecovery:
    """Regression: a worker stuck inside a task must still be timed out
    after a BrokenProcessPool rebuild, the pool must resume with the
    surviving pending set, and no cell may be double-counted."""

    def test_stuck_worker_survives_pool_break_and_times_out(self, tmp_path):
        # Task 0 kills its worker (breaking the pool, once) while task 1
        # is stuck inside the other worker; tasks 2-4 are queued behind.
        # The break consumes one attempt from both in-flight tasks, so
        # with one retry the stuck task is *requeued onto the rebuilt
        # pool* — where the wall deadline must still catch it.
        payloads = [{"sentinel": str(tmp_path / "c0"), "value": 0},
                    {"stuck": True, "value": 1}] + \
                   [{"value": i} for i in range(2, 5)]
        run = run_tasks(payloads, _mixed_task, jobs=2, retries=1,
                        timeout=2.0, backoff=0.01)
        by_index = {o.index: o for o in run.outcomes}
        assert by_index[0].status == "ok"
        assert by_index[0].result == 0
        assert by_index[0].attempts == 2
        assert by_index[1].status == "timeout"
        assert by_index[1].attempts == 2
        assert [by_index[i].result for i in range(2, 5)] == [2, 3, 4]
        assert run.stats.pool_restarts >= 1
        assert run.stats.timeouts == 1

        # Exactly one outcome per cell, and the stats ledger balances.
        assert sorted(by_index) == list(range(5))
        stats = run.stats
        assert stats.executed + stats.cached + stats.failed \
            + stats.timeouts == stats.total == 5

    def test_no_double_count_after_repeated_breaks(self):
        # Two crashers with a retry each force several pool rebuilds
        # while echo tasks flow through; the executor's double-finish
        # guard raises if any cell is finished twice.
        payloads = [{"crash": True, "value": 0},
                    {"crash": True, "value": 1}] + \
                   [{"value": i} for i in range(2, 8)]
        run = run_tasks(payloads, crashy_task, jobs=2, retries=1,
                        backoff=0.01)
        by_index = {o.index: o for o in run.outcomes}
        assert sorted(by_index) == list(range(8))
        assert by_index[0].status == "failed"
        assert by_index[1].status == "failed"
        assert [by_index[i].result for i in range(2, 8)] == list(range(2, 8))
        stats = run.stats
        assert stats.executed + stats.failed + stats.timeouts \
            + stats.cached == stats.total == 8


def _mixed_task(payload):
    """Module-level dispatcher so the pool can pickle it."""
    if "sentinel" in payload:
        return crash_once_task(payload)
    return stuck_task(payload)


def pid_stuck_task(payload):
    """Writes its worker pid for the test supervisor, then hangs (or
    completes quickly when not the designated offender)."""
    if payload.get("stuck"):
        with open(payload["pidfile"], "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(30.0)
        return "woke"
    time.sleep(0.05)
    return payload["value"]


class _PidKillSupervisor:
    """Minimal duck-typed supervisor: SIGKILLs whichever worker wrote
    the pidfile and attributes the kill to ``offender`` — enough to
    exercise the executor's blame-aware casualty path without the
    full watchdog."""

    def __init__(self, pidfile, offender):
        self.pidfile = pidfile
        self.offender = offender
        self._kills = {}
        self._shot = set()

    def wrap(self, index, attempts, payload):
        return payload

    def poll(self):
        import signal
        try:
            pid = int(open(self.pidfile).read())
        except (OSError, ValueError):
            return
        if pid in self._shot:
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        self._shot.add(pid)
        self._kills[self.offender] = "[hang] shot by test supervisor"

    def take_kills(self):
        kills, self._kills = self._kills, {}
        return kills

    def release(self, index):
        pass


class TestSupervisedRecovery:
    """Pool breaks with several tasks in flight: retries, blame and
    heartbeats stay per task."""

    def test_one_shot_crasher_recovers_on_retry(self, tmp_path):
        innocents = []
        for i in range(1, 6):
            sentinel = tmp_path / f"ok{i}"
            sentinel.touch()              # pre-armed: never crashes
            innocents.append({"sentinel": str(sentinel), "value": i})
        payloads = [{"sentinel": str(tmp_path / "c0"), "value": 0}] \
            + innocents
        run = run_tasks(payloads, crash_once_task, jobs=2,
                        retries=1, backoff=0.01)
        by_index = {o.index: o for o in run.outcomes}
        assert [by_index[i].result for i in range(6)] == list(range(6))
        assert by_index[0].attempts == 2
        # The crasher's retry, plus one per sibling still in flight when
        # the unattributed break hit.
        assert run.stats.retries >= 1
        assert run.stats.pool_restarts >= 1
        stats = run.stats
        assert stats.executed + stats.failed + stats.timeouts \
            + stats.cached == stats.total == 6

    def test_supervisor_kill_blames_only_the_offender(self, tmp_path):
        # The offender hangs on one worker while an innocent sibling is
        # in flight on the other; each kill requeues that sibling
        # without burning its attempt, and the offender alone burns both
        # of its attempts.
        pidfile = str(tmp_path / "pid")
        supervisor = _PidKillSupervisor(pidfile, offender=0)
        payloads = [{"stuck": True, "pidfile": pidfile, "value": 0}] + \
                   [{"value": i} for i in range(1, 4)]
        run = run_tasks(payloads, pid_stuck_task, jobs=2,
                        retries=1, timeout=30.0, backoff=0.01,
                        supervisor=supervisor)
        by_index = {o.index: o for o in run.outcomes}
        assert by_index[0].status == "failed"
        assert "shot by test supervisor" in by_index[0].error
        assert by_index[0].attempts == 2          # offender burned both
        for i in (1, 2, 3):
            assert by_index[i].status == "ok"
            assert by_index[i].result == i
            assert by_index[i].attempts == 1      # innocents never burned
        assert run.stats.retries == 1             # only the offender's
        assert run.stats.pool_restarts >= 2

    def test_watchdog_spares_workers_between_back_to_back_tasks(
            self, tmp_path):
        # One slow task among many quick ones, under a real watchdog.
        # Every task stops its heartbeat when it returns, as soak cells
        # do; a finished task must leave the watchdog's books at once,
        # or its silent beacon reads as a hang while the same worker is
        # still busy and the worker is shot.
        from repro.resilience.watchdog import WorkerWatchdog

        dog = WorkerWatchdog(tmp_path / "hb", stall_after=0.3,
                             poll_interval=0.05)
        payloads = [{"sleep": 0.8 if i == 1 else 0.01, "value": i}
                    for i in range(40)]
        run = run_tasks(payloads, heartbeat_sleep_task, jobs=2,
                        retries=1, backoff=0.01, supervisor=dog)
        assert [o.status for o in run.outcomes] == ["ok"] * 40
        assert [o.result for o in run.outcomes] == list(range(40))
        assert dog.kills == []
        assert run.stats.pool_restarts == 0
