"""Tests for the campaign engine: grid expansion, the content-addressed
store, aggregation, and the end-to-end determinism/caching guarantees."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    TaskSpec,
    aggregate_campaign,
    mean_ci,
    rows_as_json,
    run_campaign,
    run_simulation_task,
)


def tiny_spec(**overrides) -> CampaignSpec:
    defaults = dict(scenarios=["campus_pedestrian"],
                    protocols=["verus", "cubic"], flow_counts=[2],
                    seeds=2, duration=3.0, base_seed=11)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestTaskSpec:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            TaskSpec(scenario="city_driving", protocol="quic", flows=1,
                     duration=5.0, seed=1)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            TaskSpec(scenario="the_moon", protocol="verus", flows=1,
                     duration=5.0, seed=1)

    def test_label_defaults_to_protocol(self):
        task = TaskSpec(scenario="city_driving", protocol="cubic", flows=1,
                        duration=5.0, seed=1)
        assert task.label == "cubic"

    def test_dict_round_trip(self):
        task = TaskSpec(scenario="city_driving", protocol="verus", flows=3,
                        duration=5.0, seed=42, label="verus_r2",
                        options={"r": 2.0, "epoch": 0.005})
        assert TaskSpec.from_dict(task.to_dict()) == task

    def test_key_is_stable_and_content_sensitive(self):
        task = TaskSpec(scenario="city_driving", protocol="verus", flows=3,
                        duration=5.0, seed=42, options={"r": 2.0})
        same = TaskSpec.from_dict(task.to_dict())
        assert task.key() == same.key()
        other = TaskSpec(scenario="city_driving", protocol="verus", flows=3,
                         duration=5.0, seed=43, options={"r": 2.0})
        assert task.key() != other.key()

    def test_option_order_does_not_change_key(self):
        a = TaskSpec(scenario="city_driving", protocol="verus", flows=1,
                     duration=5.0, seed=1, options={"r": 2.0, "epoch": 0.01})
        b = TaskSpec(scenario="city_driving", protocol="verus", flows=1,
                     duration=5.0, seed=1, options={"epoch": 0.01, "r": 2.0})
        assert a.key() == b.key()

    def test_keys_follow_the_code(self, tmp_path):
        """A copy of the package keys cells like the original; editing one
        of its source files moves every sweep and chaos key."""
        script = ("from repro.campaign import TaskSpec\n"
                  "from repro.faults.chaos import ChaosTask\n"
                  "print(TaskSpec(scenario='city_driving', protocol='cubic',"
                  " flows=1, duration=5.0, seed=1).key(),"
                  " ChaosTask('verus', 'blackout', 10.0, 42).key())")

        def keys(src):
            return subprocess.run([sys.executable, "-c", script], cwd=src,
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, text=True,
                                  check=True).stdout.split()

        copy = tmp_path / "src"
        shutil.copytree(Path(repro.__file__).parent, copy / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        original = keys(Path(repro.__file__).parents[1])
        assert keys(copy) == original
        with open(copy / "repro" / "tcp" / "cubic.py", "a") as fh:
            fh.write("\n# edited\n")
        edited = keys(copy)
        assert edited[0] != original[0] and edited[1] != original[1]


class TestCampaignSpec:
    def test_expansion_size(self):
        spec = CampaignSpec(scenarios=["campus_pedestrian", "city_driving"],
                            protocols=["verus", "cubic"], flow_counts=[1, 3],
                            seeds=3)
        tasks = spec.expand()
        assert len(tasks) == spec.size() == 2 * 2 * 2 * 3

    def test_seeds_are_deterministic_and_distinct(self):
        tasks_a = tiny_spec().expand()
        tasks_b = tiny_spec().expand()
        assert [t.seed for t in tasks_a] == [t.seed for t in tasks_b]
        assert len({t.seed for t in tasks_a}) == len(tasks_a)

    def test_base_seed_changes_all_task_seeds(self):
        seeds_a = {t.seed for t in tiny_spec(base_seed=1).expand()}
        seeds_b = {t.seed for t in tiny_spec(base_seed=2).expand()}
        assert seeds_a.isdisjoint(seeds_b)

    def test_verus_gets_default_r(self):
        task = next(t for t in tiny_spec().expand() if t.protocol == "verus")
        assert task.options_dict()["r"] == 2.0

    def test_override_variants_get_labels(self):
        spec = tiny_spec(protocols=["verus"],
                         overrides=[{"epoch": 0.005}, {"epoch": 0.05}],
                         override_labels=["e5", "e50"])
        labels = {t.label for t in spec.expand()}
        assert labels == {"verus_e5", "verus_e50"}

    def test_override_labels_length_checked(self):
        with pytest.raises(ValueError):
            tiny_spec(overrides=[{}, {"r": 4.0}], override_labels=["only"])

    def test_short_duration_gets_adaptive_warmup(self):
        task = tiny_spec(duration=4.0).expand()[0]
        assert task.warmup == pytest.approx(0.8)
        long = tiny_spec(duration=60.0).expand()[0]
        assert long.warmup == 5.0


class TestResultStore:
    def test_round_trip_and_accounting(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        assert store.get("ab" * 32) is None
        assert store.misses == 1
        path = store.put("ab" * 32, {"scenario": "x"}, {"value": 3})
        assert path.is_file()
        record = store.get("ab" * 32)
        assert record["result"] == {"value": 3}
        assert record["task"] == {"scenario": "x"}
        assert store.stats() == {"hits": 1, "misses": 1, "writes": 1}
        assert ("ab" * 32) in store
        assert len(store) == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("cd" * 32, {}, {"v": 1})
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put(key, {}, {"v": 1})
        store._path(key).write_text("{not json")
        assert store.get(key) is None

    def test_format_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "01" * 32
        store.put(key, {}, {"v": 1})
        record = json.loads(store._path(key).read_text())
        record["store_format"] = 999
        store._path(key).write_text(json.dumps(record))
        assert store.get(key) is None

    def test_index_ledger_appended(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("23" * 32, {"scenario": "a", "protocol": "verus"}, {})
        store.put("45" * 32, {"scenario": "b", "protocol": "cubic"}, {})
        lines = (tmp_path / "index.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["scenario"] == "b"

    def test_get_sees_records_another_store_wrote(self, tmp_path):
        # Two stores on one root stand in for two processes sharing a
        # cache: a record B writes after A's first lookup must be a hit
        # for A, consistent with ``in``.
        a, b = ResultStore(tmp_path), ResultStore(tmp_path)
        k1, k2 = "67" * 32, "89" * 32
        assert a.get(k1) is None
        b.put(k2, {"scenario": "x"}, {"value": 2})
        assert k2 in a
        record = a.get(k2)
        assert record is not None
        assert record["result"] == {"value": 2}
        assert a.stats() == {"hits": 1, "misses": 1, "writes": 0}


class TestAggregation:
    def test_mean_ci_single_observation(self):
        mean, half = mean_ci([3.0])
        assert mean == 3.0 and half == 0.0

    def test_mean_ci_known_values(self):
        mean, half = mean_ci([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert half == pytest.approx(1.96 * np.std([1, 2, 3], ddof=1)
                                     / np.sqrt(3))

    def test_failures_reported_not_dropped(self):
        tasks = tiny_spec(protocols=["verus"], seeds=2).expand()
        ok_summary = run_simulation_task(tasks[0].to_dict())
        from repro.campaign import TaskOutcome
        outcomes = [
            TaskOutcome(index=0, status="ok", result=ok_summary),
            TaskOutcome(index=1, status="failed", error="boom"),
        ]
        rows = aggregate_campaign(tasks, outcomes)
        assert len(rows) == 1
        assert rows[0]["seeds"] == 2
        assert rows[0]["failures"] == 1
        assert rows[0]["mean_throughput_mbps"] > 0


class TestCampaignEndToEnd:
    """The acceptance guarantees: parallel == serial byte-for-byte, and a
    repeated run is pure cache hits with zero re-execution."""

    def test_parallel_matches_serial_and_resume_is_all_hits(self, tmp_path):
        spec = tiny_spec()
        serial_store = ResultStore(tmp_path / "serial")
        serial = run_campaign(spec, jobs=1, store=serial_store)
        assert serial.all_ok
        assert serial.stats.executed == spec.size()

        parallel_store = ResultStore(tmp_path / "parallel")
        parallel = run_campaign(spec, jobs=4, store=parallel_store)
        assert parallel.all_ok
        serial_rows = rows_as_json(
            aggregate_campaign(serial.tasks, serial.outcomes))
        parallel_rows = rows_as_json(
            aggregate_campaign(parallel.tasks, parallel.outcomes))
        assert serial_rows == parallel_rows   # byte-identical artefact

        resumed = run_campaign(spec, jobs=4, store=serial_store)
        assert resumed.stats.executed == 0
        assert resumed.stats.cached == spec.size()
        assert serial_store.hits == spec.size()
        resumed_rows = rows_as_json(
            aggregate_campaign(resumed.tasks, resumed.outcomes))
        assert resumed_rows == serial_rows

    def test_fresh_ignores_cache(self, tmp_path):
        spec = tiny_spec(protocols=["cubic"], seeds=1)
        store = ResultStore(tmp_path)
        run_campaign(spec, store=store)
        rerun = run_campaign(spec, store=store, resume=False)
        assert rerun.stats.cached == 0
        assert rerun.stats.executed == spec.size()
