"""Workload generation: augmentation recipes and campaign expansion.

Covers the corpus → sweep path end-to-end: derived-seed determinism,
regenerable augment provenance, and TaskSpec cells whose cache keys pin
trace content (not location).
"""

import shutil

import numpy as np
import pytest

from repro.campaign.spec import run_simulation_task
from repro.traces import (
    AUGMENT_OPS,
    apply_augment,
    augment_corpus,
    build_corpus,
    derive_seed,
    expand_corpus,
    load_corpus,
    splice_traces,
)


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus") / "mini"
    return build_corpus(root, preset="mini").corpus


def parent_trace():
    rng = np.random.default_rng(3)
    return np.sort(rng.integers(0, 10_000, size=500)).astype(np.int64)


class TestAugmentOps:
    def test_registry_complete(self):
        assert set(AUGMENT_OPS) == {"scale", "splice", "resample"}

    def test_derive_seed_deterministic_and_separated(self):
        assert derive_seed(0, "a", "op") == derive_seed(0, "a", "op")
        assert derive_seed(0, "a", "op") != derive_seed(0, "b", "op")
        assert derive_seed(0, "a", "op") != derive_seed(1, "a", "op")

    @pytest.mark.parametrize("op,params", [
        ("scale", {"factor": 1.5}),
        ("splice", {"segments": 4}),
        ("resample", {"duration_ms": 5000, "block_ms": 500}),
    ])
    def test_ops_are_seed_deterministic(self, op, params):
        parent = parent_trace()
        a = apply_augment(op, parent, params, seed=9)
        b = apply_augment(op, parent, params, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.size > 0

    def test_scale_changes_density_not_duration(self):
        parent = parent_trace()
        doubled = apply_augment("scale", parent, {"factor": 2.0}, seed=1)
        assert doubled.size == 2 * parent.size
        assert doubled[0] == parent[0] and doubled[-1] == parent[-1]
        thinned = apply_augment("scale", parent, {"factor": 0.5}, seed=1)
        assert 0.3 * parent.size < thinned.size < 0.7 * parent.size

    def test_splice_preserves_opportunity_count(self):
        parent = parent_trace()
        spliced = apply_augment("splice", parent, {"segments": 5}, seed=2)
        assert spliced.size == parent.size
        assert np.all(np.diff(spliced) >= 0)

    def test_resample_hits_target_duration(self):
        parent = parent_trace()
        out = apply_augment("resample", parent,
                            {"duration_ms": 30_000, "block_ms": 1000},
                            seed=4)
        assert 25_000 <= out[-1] < 31_000

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown augmentation op"):
            apply_augment("warp", parent_trace(), {}, 0)

    def test_splice_traces_concatenates(self):
        a = np.array([0, 10], dtype=np.int64)
        b = np.array([5, 7], dtype=np.int64)
        np.testing.assert_array_equal(splice_traces(a, b, gap_ms=1),
                                      [0, 10, 11, 13])


class TestAugmentCorpus:
    def test_augment_records_regenerable_provenance(self, tmp_path):
        corpus = build_corpus(tmp_path / "c", preset="mini").corpus
        parent = corpus.names()[0]
        entry = augment_corpus(corpus, "boosted", "scale", parent,
                               params={"factor": 2.0})
        assert entry.source["kind"] == "augment"
        expected = corpus.load_ms("boosted").copy()
        corpus.trace_path("boosted").unlink()
        np.testing.assert_array_equal(corpus.load_ms("boosted"), expected)

    def test_augment_is_rerun_stable(self, tmp_path):
        corpus = build_corpus(tmp_path / "c", preset="mini").corpus
        parent = corpus.names()[0]
        first = augment_corpus(corpus, "x", "splice", parent,
                               params={"segments": 3})
        second = augment_corpus(corpus, "x", "splice", parent,
                                params={"segments": 3}, overwrite=True)
        assert first.sha256 == second.sha256


class TestExpandCorpus:
    def test_cells_cover_grid_with_pinned_hashes(self, mini_corpus):
        tasks = expand_corpus(mini_corpus, protocols=["verus", "cubic"],
                              flow_counts=[1, 3], seeds=2)
        assert len(tasks) == 2 * 2 * 2 * 2
        for task in tasks:
            entry = mini_corpus.entry(task.scenario)
            assert task.trace_sha256 == entry.sha256
            assert task.duration == pytest.approx(
                entry.stats["duration_s"])
        # Distinct cells, deterministic expansion.
        keys = [t.key() for t in tasks]
        assert len(set(keys)) == len(keys)
        again = expand_corpus(mini_corpus, protocols=["verus", "cubic"],
                              flow_counts=[1, 3], seeds=2)
        assert [t.key() for t in again] == keys

    def test_key_stable_under_corpus_relocation(self, mini_corpus,
                                                tmp_path):
        tasks = expand_corpus(mini_corpus, protocols=["verus"])
        moved_root = tmp_path / "moved"
        shutil.copytree(mini_corpus.root, moved_root)
        moved = load_corpus(moved_root)
        moved_tasks = expand_corpus(moved, protocols=["verus"])
        assert [t.key() for t in moved_tasks] == [t.key() for t in tasks]
        assert moved_tasks[0].trace_file != tasks[0].trace_file

    def test_cell_runs_end_to_end(self, mini_corpus):
        task = expand_corpus(mini_corpus, protocols=["verus"],
                             flow_counts=[1], duration=3.0,
                             names=[mini_corpus.names()[0]])[0]
        summary = run_simulation_task(task.to_dict())
        assert summary["flows"][0]["stats"]["throughput_bps"] > 0

    def test_tampered_trace_refused_at_run_time(self, tmp_path):
        corpus = build_corpus(tmp_path / "c", preset="mini").corpus
        task = expand_corpus(corpus, protocols=["verus"], duration=2.0,
                             names=[corpus.names()[0]])[0]
        path = corpus.trace_path(task.scenario)
        path.write_text(path.read_text() + "99999\n")
        with pytest.raises(ValueError, match="pinned"):
            run_simulation_task(task.to_dict())

    def test_unknown_trace_name_rejected_early(self, mini_corpus):
        from repro.traces import CorpusError
        with pytest.raises(CorpusError, match="no trace named"):
            expand_corpus(mini_corpus, protocols=["verus"],
                          names=["ghost"])

    def test_chaos_expansion(self, mini_corpus):
        tasks = expand_corpus(mini_corpus, protocols=["verus"],
                              flow_counts=[1], duration=5.0,
                              faults=["blackout"])
        assert len(tasks) == len(mini_corpus.names())
        for task in tasks:
            assert task.trace_sha256 == \
                mini_corpus.entry(task.scenario).sha256
            assert task.fault == "blackout" and task.backend == "sim"
        assert len({t.key() for t in tasks}) == len(tasks)


class TestWorkerTraceMemo:
    """The per-worker parsed-trace memo in ``campaign.spec`` must speed
    repeated loads up without ever weakening the sha-256 content pin."""

    @pytest.fixture(autouse=True)
    def _clean_memo(self):
        from repro.campaign import spec as campaign_spec
        campaign_spec._TRACE_MEMO.clear()
        yield
        campaign_spec._TRACE_MEMO.clear()

    @staticmethod
    def _pinned_task(path):
        from types import SimpleNamespace

        from repro.traces.corpus import trace_sha256
        from repro.traces.formats import read_trace_ms
        times_ms = read_trace_ms(str(path), fmt="mahimahi")
        return SimpleNamespace(trace_file=str(path),
                               trace_sha256=trace_sha256(times_ms))

    @staticmethod
    def _write(path, step):
        from repro.traces.formats import write_trace_ms
        write_trace_ms(path, np.arange(0, 2000, step, dtype=np.int64),
                       "mahimahi")

    def test_memo_hit_skips_reparse_and_never_aliases(self, tmp_path,
                                                      monkeypatch):
        from repro.campaign.spec import _load_task_trace
        from repro.traces import formats
        path = tmp_path / "t.trace"
        self._write(path, 10)
        task = self._pinned_task(path)
        first = _load_task_trace(task)

        def _boom(*a, **k):
            raise AssertionError("memo hit must not re-read the file")

        monkeypatch.setattr(formats, "read_trace_ms", _boom)
        second = _load_task_trace(task)
        np.testing.assert_array_equal(first, second)
        assert second is not first
        # A caller scribbling on its copy must not poison later loads.
        second[:] = -1.0
        third = _load_task_trace(task)
        np.testing.assert_array_equal(first, third)

    def test_mutated_file_refused_despite_memo(self, tmp_path):
        from repro.campaign.spec import _load_task_trace
        path = tmp_path / "t.trace"
        self._write(path, 10)
        task = self._pinned_task(path)
        _load_task_trace(task)          # seed the memo
        self._write(path, 25)           # corpus drifts mid-sweep
        with pytest.raises(ValueError, match="corpus content changed"):
            _load_task_trace(task)

    def test_memo_keyed_by_pin_not_just_path(self, tmp_path):
        from types import SimpleNamespace

        from repro.campaign.spec import _load_task_trace
        path = tmp_path / "t.trace"
        self._write(path, 10)
        good = self._pinned_task(path)
        _load_task_trace(good)          # memo holds the good pin
        bad = SimpleNamespace(trace_file=str(path),
                              trace_sha256="0" * 64)
        with pytest.raises(ValueError, match="pinned"):
            _load_task_trace(bad)
        # ...and the good pin still serves correctly afterwards.
        np.testing.assert_array_equal(
            _load_task_trace(good),
            np.arange(0, 2000, 10, dtype=np.int64).astype(float) / 1000.0)
