"""The paired benchmark gate's decision rule, on synthetic result lines."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "paired_gate.py"
_spec = importlib.util.spec_from_file_location("paired_gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = gate
_spec.loader.exec_module(gate)


def line(wall_s, failed=0):
    """The last line ``perfbench/run.py`` prints, after its metric table."""
    return "wall_s  1.0 s\n" + json.dumps({
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}})


BASE = [line(1.0), line(1.02), line(0.98), line(1.01), line(0.99)]


def test_every_workload_runs_at_its_default_seed():
    from perfbench.workloads import WORKLOADS

    assert gate.SEEDS == {name: workload.default_seed
                          for name, workload in WORKLOADS.items()}


def test_slower_in_every_pair_fails():
    head = [line(1.15 * value) for value in (1.0, 1.02, 0.98, 1.01, 0.99)]
    verdict = gate.decide(BASE, head)
    assert verdict.ratio == pytest.approx(1.15)
    assert verdict.head_slower == 5
    assert not verdict.ok


def test_slower_median_but_few_pairs_passes():
    # Head's median is 1.15x base's, but it is slower in only 2 of 5 pairs.
    base = [line(1.0), line(1.0), line(1.0), line(2.0), line(2.0)]
    head = [line(0.9), line(1.15), line(1.15), line(1.5), line(1.5)]
    verdict = gate.decide(base, head)
    assert verdict.ratio == pytest.approx(1.15)
    assert verdict.head_slower == 2
    assert verdict.ok, verdict.problems


def test_small_slowdown_in_every_pair_passes():
    head = [line(1.05 * value) for value in (1.0, 1.02, 0.98, 1.01, 0.99)]
    verdict = gate.decide(BASE, head)
    assert verdict.head_slower == 5
    assert verdict.ok, verdict.problems


def test_head_failing_an_operation_fails():
    head = list(BASE)
    head[3] = line(1.01, failed=1)
    verdict = gate.decide(BASE, head)
    assert verdict.head_failed == 1 and verdict.base_failed == 0
    assert not verdict.ok


def test_failures_both_sides_share_do_not_fail():
    base = [line(1.0, failed=1)] * 5
    assert gate.decide(base, list(base)).ok


@pytest.mark.parametrize("bad", [
    None,                                   # the run exited non-zero
    "",                                     # it printed nothing
    "wall_s  1.0 s\n",                      # no JSON line
    '{"correct": true, "failed": 0}',       # no metrics
    '{"failed": 0, "metrics": {"wall_s": {"value": "x"}}}',
])
def test_missing_or_malformed_result_fails(bad):
    head = list(BASE)
    head[2] = bad
    verdict = gate.decide(BASE, head)
    assert not verdict.ok
    assert "head" in verdict.problems[0]
