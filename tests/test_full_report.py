"""Tests for the one-shot reproduction report generator."""

from dataclasses import replace

import pytest

from repro.experiments.full_report import generate_report
from repro.experiments.registry import ITEMS


class TestGenerateReport:
    def test_unknown_item_rejected(self):
        with pytest.raises(ValueError):
            generate_report(items=["fig99"])

    def test_single_item_report_structure(self):
        text = generate_report(duration=20.0, items=["fig4"])
        assert text.startswith("# Verus reproduction report")
        assert "| fig4 |" in text
        assert "## fig4" in text
        assert "Shape checks passed" in text

    def test_report_marks_pass_fail(self):
        text = generate_report(duration=30.0, items=["fig4"])
        assert "✓" in text or "✗" in text

    def test_registry_nonempty_and_callable(self):
        assert len(ITEMS) == 19
        for item in ITEMS.values():
            assert callable(item.call) and callable(item.checks)

    def test_two_item_report_counts(self):
        text = generate_report(duration=20.0, items=["fig4", "fig1"])
        header = [l for l in text.splitlines()
                  if l.startswith("Shape checks passed")][0]
        assert "**2/2**" in header

    def test_parallel_jobs_match_serial(self):
        serial = generate_report(duration=20.0, items=["fig4", "fig1"])
        parallel = generate_report(duration=20.0, items=["fig4", "fig1"],
                                   jobs=2)
        # runtimes differ between runs; compare everything else
        def strip_runtime(text):
            return [l.rsplit("|", 2)[0] for l in text.splitlines()]
        assert strip_runtime(serial) == strip_runtime(parallel)


class TestFailurePath:
    def test_crashed_item_becomes_error_row(self, monkeypatch):
        def kaboom(**kwargs):
            raise RuntimeError("figure exploded")
        monkeypatch.setitem(ITEMS, "fig4", replace(ITEMS["fig4"], call=kaboom))
        text = generate_report(duration=5.0, items=["fig4", "fig1"])
        assert "ERROR: RuntimeError('figure exploded')" in text
        # the crash did not abort the report: fig1 still reported
        assert "## fig1" in text
        header = [l for l in text.splitlines()
                  if l.startswith("Shape checks passed")][0]
        assert "**1/2**" in header

    def test_failed_check_is_named(self, monkeypatch):
        monkeypatch.setitem(ITEMS, "fig4", replace(
            ITEMS["fig4"], checks=lambda result: {"always_fails": False}))
        text = generate_report(duration=20.0, items=["fig4"])
        assert "| fig4 | throughput variability across windows | ✗ |" in text
        assert "- failed check: always_fails" in text
