"""Tests of the benchmark itself, at tiny sizes.

Run from the checkout root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from perfbench import harness, workloads
from perfbench.fingerprint import fingerprint, incomparable
from perfbench.harness import END_TO_END, PER_LAYER, Harness
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]

#: Per-workload scale for the smoke runs: a few simulated seconds each.
TINY = {"fig10-verus": 0.25, "fig8-baselines": 0.6, "corpus-sweep": 0.5,
        "conformance": 1.0}


def tiny_harness(name: str, seed: int = 3) -> Harness:
    # Tiny sizes have no pinned digests; the checks fall back to
    # pass-against-pass agreement.
    h = Harness(ROOT, name, seed, scale=TINY[name], check_pins=False)
    h.import_program()
    return h


@pytest.fixture(scope="module", params=sorted(TINY))
def timed_and_traced(request):
    name = request.param
    timed = tiny_harness(name).run(seconds=0.0, trace=False)
    traced = tiny_harness(name).run(seconds=0.0, trace=True)
    return name, timed, traced


def test_every_end_to_end_metric_present_with_unit(timed_and_traced):
    _, timed, _ = timed_and_traced
    assert set(timed["metrics"]) == set(END_TO_END)
    assert timed["units"] == END_TO_END
    for name, value in timed["metrics"].items():
        assert value > 0, name


def test_every_per_layer_metric_present_with_unit(timed_and_traced):
    _, _, traced = timed_and_traced
    assert set(traced["metrics"]) == set(PER_LAYER)
    assert traced["units"] == PER_LAYER


def test_digests_agree_across_passes_and_with_tracing(timed_and_traced):
    _, timed, traced = timed_and_traced
    for run in (timed, traced):
        assert run["verdict"].failed == 0, run["verdict"].errors
        assert run["verdict"].attempted >= 2 * len(run["first_pass"].ops)
    assert ({op.label: op.digest for op in timed["first_pass"].ops}
            == {op.label: op.digest for op in traced["first_pass"].ops})


def test_idle_layers_read_zero(timed_and_traced):
    name, _, traced = timed_and_traced
    metrics = traced["metrics"]
    if name != "conformance":
        assert metrics["check.self_s"] == 0.0
        assert metrics["check.mutants"] == 0.0
    if name == "fig8-baselines":
        assert metrics["core.self_s"] == 0.0
        assert metrics["sprout.ticks"] > 0
        assert metrics["obs.records"] > 0
    if name == "fig10-verus":
        assert metrics["sprout.forecast_s"] == 0.0
        assert metrics["core.epochs"] > 0
        assert metrics["profile.lookups"] > 0
    if name == "corpus-sweep":
        assert metrics["campaign.cache_hit_frac"] == pytest.approx(0.5)
        assert metrics["campaign.sim_run_s"] > 0


def test_self_times_sum_to_wall_minus_unattributed():
    h = tiny_harness("fig10-verus")
    with tempfile.TemporaryDirectory(dir=h.scratch) as tmp:
        ctx, _ = h.setup(Path(tmp))
        tracer = Tracer()
        with tracer:
            with tracer.span("bench:pass"):
                measured = h.measure_pass(ctx, Path(tmp), tracer)
    layers, unattributed, root = tracer.layer_self_times()
    assert sum(layers.values()) == pytest.approx(root - unattributed)
    assert root == pytest.approx(measured.wall_s, rel=0.01)
    assert 0 < tracer.overhead_seconds() <= unattributed < root
    assert min(layers.values()) >= 0


def test_tracer_bookkeeping_is_not_charged_to_the_parent():
    # A span whose only work is dispatching empty callbacks: once the
    # bookkeeping is taken out, its self time is a small share of it.
    tracer = Tracer()
    with tracer:
        with tracer.span("engine:loop"):
            for _ in range(20000):
                tracer._call(tracer.intern("core:noop"), lambda: None, ())
    table = tracer.span_table()
    loop = table["name_id"] == tracer.intern("engine:loop")
    assert table["overhead"][loop].sum() > 0.5 * table["duration"][loop].sum()
    assert table["self"][loop].sum() == pytest.approx(
        table["duration"][loop].sum() - table["overhead"][loop].sum()
        - table["duration"][~loop].sum())


def test_tracer_restores_the_program():
    from repro.netsim.engine import Simulator
    from repro.sprout.forecast import SproutForecaster

    before = (Simulator.call_later, Simulator.run, SproutForecaster.on_tick)
    with Tracer():
        assert Simulator.call_later is not before[0]
    assert (Simulator.call_later, Simulator.run,
            SproutForecaster.on_tick) == before


def test_pinned_digest_mismatch_counts_as_failure():
    ops = [workloads.Op("a", 1.0, digest="x"), workloads.Op("b", 1.0,
                                                            error="boom")]
    verdict = harness.Verdict()
    verdict.check([workloads.PassResult(ops, 1)], {"a": "y", "b": "z"})
    assert (verdict.attempted, verdict.failed) == (2, 2)


def test_missing_operations_count_as_failures():
    def passing(*labels):
        return workloads.PassResult(
            [workloads.Op(label, 1.0, digest=label) for label in labels], 1)

    # Pinned: an operation the pass left out fails.
    verdict = harness.Verdict()
    verdict.check([passing("a"), passing("a")], {"a": "a", "b": "b"})
    assert (verdict.attempted, verdict.failed) == (4, 2)
    # Unpinned: the benchmark's own list of operations decides.
    verdict = harness.Verdict()
    verdict.check([passing("a"), passing("a")], None, ["a", "b"])
    assert (verdict.attempted, verdict.failed) == (4, 2)
    # Neither: every pass must attempt what the first one did.
    verdict = harness.Verdict()
    verdict.check([passing("a", "b"), passing("a"), passing("a", "b", "c")],
                  None)
    assert (verdict.attempted, verdict.failed) == (7, 2)


def test_corpus_sweep_expects_the_whole_grid():
    labels = workloads.CorpusSweep(ROOT).expected_labels()
    assert len(labels) == 48
    pins = harness.load_pins()["corpus-sweep"]
    assert all(set(labels) == set(pinned) for pinned in pins.values())


def test_seed_free_workloads_match_the_default_pins_at_any_seed():
    pins = harness.load_pins()
    for name, cls in workloads.WORKLOADS.items():
        pinned = Harness(ROOT, name, 12345).pinned()
        assert pinned == (pins[name][str(cls.default_seed)]
                          if cls.seed_free else None)


def test_quantiles_stay_within_the_samples():
    p50, p75, beyond = harness.op_quantiles([1.0, 3.0])
    assert p50 == pytest.approx(2.0)
    assert 2.0 < p75 < 3.0 and beyond == 1
    cells = [float(i) for i in range(48)]
    assert harness.op_quantiles(cells)[2] >= 10


def test_median_does_not_jump_across_a_gap():
    # Two clusters meeting at the median, as corpus-sweep's 3G and LTE
    # cells do: one cell crossing over moves the sample median by the
    # whole gap, and the estimate by a small share of it.
    even = [1.0] * 24 + [2.0] * 24
    moved = [1.0] * 25 + [2.0] * 23
    shift = harness.op_quantiles(even)[0] - harness.op_quantiles(moved)[0]
    assert 0 < shift < 0.2


def test_fingerprints_with_other_scipy_are_refused():
    here = fingerprint(ROOT)
    other = dict(here, scipy="absent" if here["scipy"] != "absent" else "1")
    assert incomparable(here, here) == []
    assert incomparable(here, other) == [
        f"scipy: {here['scipy']!r} != {other['scipy']!r}"]


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conformance",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_default_and_held_out_seeds_are_pinned():
    pins = harness.load_pins()
    for name, cls in workloads.WORKLOADS.items():
        assert set(pins[name]) == {str(cls.default_seed),
                                   str(cls.held_out_seed)}
