"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.registry import ITEMS


class TestParsing:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig1" in out and "table1" in out and "fig15" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_registry_covers_all_paper_items(self, capsys):
        expected = {f"fig{i}" for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12,
                                        13, 14, 15)}
        expected |= {"table1", "sensitivity", "shortflows", "uplink",
                     "landscape"}
        assert set(ITEMS) == expected
        assert main(["list"]) == 0
        assert capsys.readouterr().out.split() == sorted(ITEMS)


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "verus" in out and "cubic" in out

    def test_trace_generation(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        code = main(["trace", "--scenario", "city_driving",
                     "--duration", "5", "--out", str(out_file)])
        assert code == 0
        from repro.traces import read_trace_seconds
        trace = read_trace_seconds(out_file)
        assert trace.size > 100
        assert np.all(np.diff(trace) >= 0)

    def test_run_fig3_prints_table(self, capsys):
        assert main(["run", "fig3", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "avg_delay_on_ms" in out

    def test_run_fig13_prints_jain(self, capsys):
        assert main(["run", "fig13", "--duration", "30"]) == 0
        assert "Jain index" in capsys.readouterr().out


class TestSweep:
    def test_dry_run_prints_grid(self, capsys):
        code = main(["sweep", "--scenario", "city_driving",
                     "--protocol", "verus", "--protocol", "cubic",
                     "--seeds", "2", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 tasks" in out
        assert "seed_index" in out
        assert out.count("city_driving") == 4

    def test_sweep_runs_then_resumes_from_cache(self, tmp_path, capsys):
        argv = ["sweep", "--scenario", "campus_pedestrian",
                "--protocol", "cubic", "--duration", "4", "--seeds", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "executed: 2" in first and "cached: 0" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "executed: 0" in second and "cached: 2" in second
        assert "2 hits" in second

    def test_bad_duration_exits_2_before_any_cell_runs(self, capsys):
        code = main(["sweep", "--scenario", "campus_pedestrian",
                     "--protocol", "verus", "--duration", "0", "--no-cache"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: duration must be positive" in captured.err
        assert "[1/1]" not in captured.err and captured.out == ""

    def test_sweep_writes_rows_json(self, tmp_path, capsys):
        import json
        out_file = tmp_path / "rows.json"
        code = main(["sweep", "--scenario", "campus_pedestrian",
                     "--protocol", "cubic", "--duration", "4",
                     "--no-cache", "--out", str(out_file)])
        assert code == 0
        rows = json.loads(out_file.read_text())
        assert rows[0]["protocol"] == "cubic"
        assert rows[0]["mean_throughput_mbps"] > 0

    def test_report_accepts_jobs_flag(self, capsys):
        assert main(["report", "--duration", "10", "--items", "fig4",
                     "--jobs", "2"]) == 0
        assert "# Verus reproduction report" in capsys.readouterr().out


class TestSeedFlag:
    def test_run_seed_reproducible_from_shell(self, capsys):
        assert main(["run", "fig2", "--duration", "20", "--seed", "123"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "fig2", "--duration", "20", "--seed", "123"]) == 0
        assert capsys.readouterr().out == first

    def test_run_seed_changes_channel(self, capsys):
        assert main(["run", "fig2", "--duration", "20", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "fig2", "--duration", "20", "--seed", "2"]) == 0
        assert capsys.readouterr().out != first

    def test_landscape_prints_every_protocol_and_honours_seed(self, capsys):
        outputs = []
        for seed in ("3", "4"):
            assert main(["run", "landscape", "--duration", "6",
                         "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out)
        for protocol in ("verus", "cubic", "newreno", "vegas", "sprout",
                         "pcc", "ledbat", "compound", "binomial"):
            assert all(f"\n{protocol} " in out for out in outputs)
        assert outputs[0] != outputs[1]

    def test_quickstart_accepts_seed(self, capsys):
        assert main(["quickstart", "--duration", "10", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert "verus" in first
        assert main(["quickstart", "--duration", "10", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
