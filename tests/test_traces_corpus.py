"""Corpus registry: deterministic builds, integrity, provenance, CLI.

The tentpole guarantees under test: ``repro corpus build`` is
bit-identical across runs and across ``--jobs`` values; every trace is
content-addressed and verifiable; regenerable traces survive file loss.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.traces import (
    CORPUS_PRESETS,
    CorpusError,
    SynthSpec,
    build_corpus,
    characterize,
    import_trace,
    load_corpus,
    read_trace_ms,
    trace_sha256,
    write_trace_ms,
)
from repro.traces.corpus import encode_canonical, read_pinned_ms

MINI = CORPUS_PRESETS["mini"]

#: The committed corpus the Fig 8 benchmark replays.
FIG8_MANIFEST = (Path(__file__).resolve().parents[1] / "benchmarks"
                 / "corpora" / "fig8" / "manifest.json")


def corpus_fingerprint(root):
    """Every byte that matters: the manifest and all trace files."""
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return files


class TestDeterministicBuild:
    def test_two_builds_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        build_corpus(a, preset="mini")
        build_corpus(b, preset="mini")
        fa, fb = corpus_fingerprint(a), corpus_fingerprint(b)
        assert fa.keys() == fb.keys()
        assert fa == fb

    def test_jobs_independent(self, tmp_path):
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        build_corpus(serial, preset="mini", jobs=1)
        build_corpus(pooled, preset="mini", jobs=2)
        assert corpus_fingerprint(serial) == corpus_fingerprint(pooled)

    def test_rebuild_is_noop(self, tmp_path):
        root = tmp_path / "c"
        first = build_corpus(root, preset="mini")
        assert sorted(first.built) == sorted(s.default_name() for s in MINI)
        before = corpus_fingerprint(root)
        second = build_corpus(root, preset="mini")
        assert second.built == []
        assert sorted(second.unchanged) == sorted(first.built)
        assert corpus_fingerprint(root) == before

    def test_force_rebuilds_but_content_stable(self, tmp_path):
        root = tmp_path / "c"
        build_corpus(root, preset="mini")
        before = corpus_fingerprint(root)
        report = build_corpus(root, preset="mini", force=True)
        assert sorted(report.built) == sorted(s.default_name() for s in MINI)
        assert corpus_fingerprint(root) == before

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(CorpusError, match="unknown corpus preset"):
            build_corpus(tmp_path / "c", preset="nope")


class TestIntegrity:
    @pytest.fixture
    def corpus(self, tmp_path):
        return build_corpus(tmp_path / "c", preset="mini").corpus

    def test_verify_ok(self, corpus):
        assert set(corpus.verify().values()) == {"ok"}

    def test_verify_detects_tamper(self, corpus):
        name = corpus.names()[0]
        path = corpus.trace_path(name)
        path.write_text(path.read_text() + "999999\n")
        report = corpus.verify()
        assert report[name].startswith("mismatch")
        with pytest.raises(CorpusError, match="hash"):
            corpus.load_ms(name)

    def test_missing_regenerable_trace_regenerates(self, corpus):
        name = corpus.names()[0]
        expected = corpus.load_ms(name).copy()
        corpus.trace_path(name).unlink()
        assert corpus.verify()[name] == "missing"
        regenerated = corpus.load_ms(name)
        np.testing.assert_array_equal(regenerated, expected)
        assert corpus.verify()[name] == "ok"   # file rewritten on load

    def test_materialize_restores_all(self, corpus):
        for name in corpus.names():
            corpus.trace_path(name).unlink()
        written = corpus.materialize()
        assert sorted(written) == corpus.names()
        assert set(corpus.verify().values()) == {"ok"}

    def test_materialize_regenerates_unreadable_trace(self, corpus):
        name = corpus.names()[0]
        expected = corpus.load_ms(name).copy()
        corpus.trace_path(name).write_text("12\nnot-a-number\n")
        assert corpus.verify()[name].startswith("mismatch: unreadable")
        assert corpus.materialize() == [name]
        np.testing.assert_array_equal(corpus.load_ms(name), expected)
        assert set(corpus.verify().values()) == {"ok"}

    def test_load_missing_name(self, corpus):
        with pytest.raises(CorpusError, match="no trace named"):
            corpus.load_ms("nonexistent")

    def test_load_corpus_requires_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="manifest.json not found"):
            load_corpus(tmp_path / "empty")


def _strict_pinned(path, pin):
    """What ``read_pinned_ms`` must match whatever the pin: the strict
    parse, then the canonical hash of its result."""
    times_ms = read_trace_ms(path, fmt="mahimahi")
    return times_ms, trace_sha256(times_ms)


def _outcome(read, path, pin):
    try:
        times_ms, digest = read(path, pin)
    except Exception as exc:   # the paths must raise the same type
        return type(exc)
    assert times_ms.dtype == np.int64
    return times_ms.tolist(), digest


def _encodings(values, index, big):
    """Ways to write ``values``: the canonical bytes, and variants the
    strict reader accepts or refuses that must never take the fast path."""
    lines = [b"%d" % v for v in values]
    at = index % max(1, len(lines))

    def body(rows, end=b"\n"):
        return b"".join(row + end for row in rows)

    def prefixed(prefix):
        return body(prefix + row if i == at else row
                    for i, row in enumerate(lines))

    return {
        "canonical": body(lines),
        "comment": b"# pinned\n" + body(lines),
        "blank": body(lines[:at] + [b""] + lines[at:]),
        "crlf": body(lines, b"\r\n"),
        "leading_zero": prefixed(b"0"),
        "plus": prefixed(b"+"),
        "no_final_newline": b"\n".join(lines),
        "unsorted": body(lines[::-1]),
        "negative": body(lines + [b"-1"]),
        "big": body(lines + [b"%d" % big]),
    }


class TestPinnedRead:
    """``read_pinned_ms`` (raw-byte hash, numpy parse) must accept and
    refuse exactly the files the strict path does, with equal results."""

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**6),
                           max_size=40).map(sorted),
           index=st.integers(min_value=0, max_value=40),
           big=st.sampled_from([10**18 - 1, 10**18, 2**63 - 1, 2**63,
                                10**19 - 1, 10**20]))
    @example(values=[], index=0, big=2**63)
    @example(values=[0], index=0, big=2**63)
    @example(values=[7, 7, 7], index=1, big=10**18)
    def test_matches_strict_path(self, values, index, big,
                                 tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        encodings = _encodings(values, index, big)
        encodings.update(empty=b"", newline=b"\n", blank_only=b"\n\n",
                         zero=b"0\n")
        for label, data in encodings.items():
            path = root / f"{label}.pps"
            path.write_bytes(data)
            strict = _outcome(_strict_pinned, path, None)
            pins = {hashlib.sha256(data).hexdigest(), "0" * 64}
            if isinstance(strict, tuple):
                pins.add(strict[1])
            for pin in sorted(pins):
                assert _outcome(read_pinned_ms, path, pin) == strict, \
                    (label, data, pin)

    def test_canonical_file_takes_the_fast_path(self, tmp_path,
                                                monkeypatch):
        from repro.traces import corpus as corpus_mod
        times_ms = np.array([0, 3, 3, 1000, 98765], dtype=np.int64)
        path = tmp_path / "t.pps"
        path.write_bytes(encode_canonical(times_ms))

        def _boom(*a, **k):
            raise AssertionError("a canonical pinned file must not be "
                                 "re-read by the strict parser")

        monkeypatch.setattr(corpus_mod, "read_trace_ms", _boom)
        got, digest = read_pinned_ms(path, trace_sha256(times_ms))
        np.testing.assert_array_equal(got, times_ms)
        assert digest == trace_sha256(times_ms)


class TestCommittedCorpusPins:
    def test_fig8_manifest_regenerates_to_its_pins(self):
        """Synthesis drift would silently change every trace-driven
        result; the committed Fig 8 manifest pins it."""
        traces = json.loads(FIG8_MANIFEST.read_text())["traces"]
        assert len(traces) == 4
        for name, row in sorted(traces.items()):
            times_ms = SynthSpec.from_dict(row["source"]).generate_ms()
            assert times_ms.size == row["opportunities"], name
            assert trace_sha256(times_ms) == row["sha256"], name


class TestImportAndProvenance:
    def test_import_any_format(self, tmp_path):
        corpus = build_corpus(tmp_path / "c", preset="mini").corpus
        times_ms = np.array([5, 6, 6, 40], dtype=np.int64)
        src = tmp_path / "capture.csv"
        write_trace_ms(src, times_ms, "csv")
        entry = import_trace(corpus, src)
        assert entry.name == "capture"
        assert entry.source["kind"] == "import"
        assert entry.source["format"] == "csv"
        assert entry.sha256 == trace_sha256(times_ms)
        np.testing.assert_array_equal(corpus.load_ms("capture"), times_ms)
        # An imported trace's file cannot be regenerated from provenance.
        corpus.trace_path("capture").unlink()
        with pytest.raises(CorpusError, match="cannot"):
            corpus.load_ms("capture")

    def test_import_survives_preset_rebuild(self, tmp_path):
        root = tmp_path / "c"
        corpus = build_corpus(root, preset="mini").corpus
        src = tmp_path / "cap.pps"
        write_trace_ms(src, np.array([1, 2, 3], dtype=np.int64))
        import_trace(corpus, src, name="cap")
        report = build_corpus(root, preset="mini")
        assert "cap" in report.corpus.names()   # imports are user data

    def test_duplicate_import_needs_overwrite(self, tmp_path):
        corpus = build_corpus(tmp_path / "c", preset="mini").corpus
        src = tmp_path / "cap.pps"
        write_trace_ms(src, np.array([1, 2], dtype=np.int64))
        import_trace(corpus, src, name="cap")
        with pytest.raises(CorpusError, match="already exists"):
            import_trace(corpus, src, name="cap")
        import_trace(corpus, src, name="cap", overwrite=True)

    def test_stats_recorded_in_manifest(self, tmp_path):
        corpus = build_corpus(tmp_path / "c", preset="mini").corpus
        for name in corpus.names():
            entry = corpus.entry(name)
            expected = characterize(corpus.load_ms(name)).to_dict()
            assert entry.stats == expected
            assert entry.stats["duration_s"] > 0


class TestCorpusCli:
    def test_build_verify_stats_list(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        assert main(["corpus", "build", "--dir", root,
                     "--preset", "mini"]) == 0
        out = capsys.readouterr().out
        assert "built: 2" in out and "unchanged: 0" in out

        assert main(["corpus", "build", "--dir", root,
                     "--preset", "mini"]) == 0
        assert "built: 0  unchanged: 2" in capsys.readouterr().out

        assert main(["corpus", "verify", "--dir", root]) == 0
        assert "mismatched: 0" in capsys.readouterr().out

        assert main(["corpus", "stats", "--dir", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == sorted(s.default_name() for s in MINI)
        for stats in payload.values():
            assert stats["opportunities"] > 0

        assert main(["corpus", "list", "--dir", root]) == 0
        assert "synth" in capsys.readouterr().out

    def test_verify_fails_on_tamper(self, tmp_path, capsys):
        root = tmp_path / "c"
        corpus = build_corpus(root, preset="mini").corpus
        path = corpus.trace_path(corpus.names()[0])
        path.write_text(path.read_text() + "12345\n")
        assert main(["corpus", "verify", "--dir", str(root)]) == 1

    def test_import_and_convert(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        main(["corpus", "build", "--dir", root, "--preset", "mini"])
        src = tmp_path / "cap.sec"
        write_trace_ms(src, np.array([10, 20], dtype=np.int64), "seconds")
        assert main(["corpus", "import", str(src), "--dir", root]) == 0
        assert "imported 'cap'" in capsys.readouterr().out
        dst = tmp_path / "cap.csv"
        assert main(["corpus", "convert", str(src), str(dst)]) == 0
        assert dst.read_text().startswith("time_ms,packets")

    def test_missing_corpus_is_an_error(self, tmp_path, capsys):
        assert main(["corpus", "verify",
                     "--dir", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSynthSpec:
    def test_round_trips_through_manifest_dict(self):
        spec = SynthSpec(regime="driving", technology="lte",
                         duration=12.5, seed=7, mean_rate_bps=20e6)
        assert SynthSpec.from_dict(spec.to_dict()) == spec

    def test_generation_is_seed_deterministic(self):
        spec = SynthSpec(regime="walking", duration=5.0, seed=11)
        np.testing.assert_array_equal(spec.generate_ms(),
                                      spec.generate_ms())

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            SynthSpec(regime="teleporting")
