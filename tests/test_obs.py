"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.netsim.flow import SenderProtocol
from repro.obs import (
    MeterRegistry,
    TelemetrySession,
    TimelineRecorder,
    current_session,
    export_timeline_csv,
    export_timeline_jsonl,
    telemetry,
    write_session,
)


# ----------------------------------------------------------------------
# Meters
# ----------------------------------------------------------------------
class TestRegistry:
    def test_snapshot_layout(self):
        """Telemetry summaries carry this snapshot."""
        reg = MeterRegistry()
        reg.counter("engine.events").inc(3)
        reg.gauge("engine.sim_seconds").set(2.5)
        assert json.dumps(reg.snapshot(), sort_keys=True) == (
            '{"counters": {"engine.events": {"value": 3}}, '
            '"gauges": {"engine.sim_seconds": {"max": 2.5, "min": 2.5, '
            '"updates": 1, "value": 2.5}}, "schema": "repro.meters/1"}')

    def test_name_type_collision_rejected(self):
        reg = MeterRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
class _Endpoint:
    flow_id = 9


class TestTimelineRecorder:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TimelineRecorder(capacity=0)

    def test_no_wrap(self):
        rec = TimelineRecorder(capacity=4)
        for i in range(3):
            rec.record_event(_Endpoint(), "on_epoch", {"time": float(i)})
        assert [row["time"] for row in rec.rows()] == [0.0, 1.0, 2.0]
        assert rec.dropped == 0

    def test_wraparound_keeps_most_recent(self):
        rec = TimelineRecorder(capacity=3)
        for i in range(7):
            rec.record_event(_Endpoint(), "on_epoch", {"time": float(i)})
        assert [row["time"] for row in rec.rows()] == [4.0, 5.0, 6.0]
        assert rec.dropped == 4
        assert rec.appended == 7
        assert len(rec) == 3

    def test_record_event_fast_path(self):
        rec = TimelineRecorder(capacity=8, source="f0")
        rec.record_event(_Endpoint(), "on_epoch", {"time": 1.5, "window": 4.0})
        [row] = rec.rows()
        assert row == {"time": 1.5, "window": 4.0, "event": "epoch",
                       "source": "f0", "flow": 9}

    def test_named_handlers_match_fast_path(self):
        rec = TimelineRecorder(capacity=8)
        rec.on_loss(_Endpoint(), time=2.0, kind="rto")
        [row] = rec.rows()
        assert row["event"] == "loss"
        assert row["kind"] == "rto"

    def test_missing_time_filled_with_none(self):
        rec = TimelineRecorder(capacity=8)
        rec.record_event(_Endpoint(), "on_window", {"cwnd": 10})
        assert rec.rows()[0]["time"] is None

    def test_sender_notify_reaches_recorder(self):
        sender = SenderProtocol(flow_id=3)
        rec = TimelineRecorder(capacity=8, source="s")
        sender.observers.append(rec)
        sender.notify("on_epoch", time=0.5, window=2.0)
        assert rec.rows()[0]["flow"] == 3

    def test_plain_handler_observer_still_works(self):
        seen = []

        class Monitor:
            def on_epoch(self, sender, *, time, window, **extra):
                seen.append((time, window))

        sender = SenderProtocol(flow_id=0)
        sender.observers.append(Monitor())
        sender.notify("on_epoch", time=0.5, window=2.0)
        assert seen == [(0.5, 2.0)]


class TestTelemetrySession:
    def test_nesting_rejected(self):
        with telemetry():
            with pytest.raises(RuntimeError):
                with telemetry():
                    pass
        assert current_session() is None

    def test_end_to_end_capture(self, tmp_path):
        from repro.cellular import generate_scenario_trace
        from repro.experiments import repeat_flows, run_trace_contention

        trace = generate_scenario_trace("campus_stationary", duration=2.0,
                                        technology="3g", seed=1)
        with telemetry(TelemetrySession()) as session:
            run_trace_contention(trace, repeat_flows("verus", 1, r=2.0),
                                 duration=2.0, seed=1)
        rows = session.rows()
        assert rows, "telemetry captured nothing"
        events = {row["event"] for row in rows}
        assert "epoch" in events
        assert session.registry.counter("engine.events").value > 0
        times = [row["time"] for row in rows if row["time"] is not None]
        assert times == sorted(times)

        from pathlib import Path
        paths = write_session(session, tmp_path, csv_too=True)
        for path in paths:
            assert Path(path).exists()
        summary = json.loads((tmp_path / "telemetry_summary.json").read_text())
        assert summary["timeline_rows"] == len(rows)

    def test_notify_never_called_without_observers(self, monkeypatch):
        """Telemetry off must cost only the falsy guard: no emit site may
        call notify when the observers list is empty."""
        from repro.cellular import generate_scenario_trace
        from repro.experiments import repeat_flows, run_trace_contention

        def boom(self, event, **fields):
            raise AssertionError(f"notify({event!r}) despite no observers")

        monkeypatch.setattr(SenderProtocol, "notify", boom)
        trace = generate_scenario_trace("campus_stationary", duration=1.0,
                                        technology="3g", seed=1)
        run_trace_contention(trace, repeat_flows("verus", 1, r=2.0),
                             duration=1.0, seed=1)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
class TestExport:
    ROWS = [
        {"time": 0.5, "event": "epoch", "source": "f0", "flow": 0, "window": 2.0},
        {"time": 1.0, "event": "loss", "source": "f0", "flow": 0, "kind": "rto"},
    ]

    def test_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert export_timeline_jsonl(self.ROWS, path) == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["event"] == "epoch"

    def test_csv_union_header(self, tmp_path):
        path = tmp_path / "t.csv"
        export_timeline_csv(self.ROWS, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:4] == ["time", "event", "source", "flow"]
        assert set(header[4:]) == {"kind", "window"}


# ----------------------------------------------------------------------
# Campaign timings rollup
# ----------------------------------------------------------------------
class TestTimingsRollup:
    def test_aggregate_timings(self):
        from repro.campaign import aggregate_timings
        from repro.campaign.executor import TaskOutcome

        outcomes = [
            TaskOutcome(index=0, key="k0", status="ok",
                        result={"timings": {"sim_run_s": 1.0,
                                            "total_s": 1.5}}),
            TaskOutcome(index=1, key="k1", status="cached",
                        result={}),                      # cached, no timings
            TaskOutcome(index=2, key="k2", status="ok",
                        result={"timings": {"sim_run_s": 3.0,
                                            "total_s": 3.5}}),
        ]
        rollup = aggregate_timings(outcomes)
        assert rollup["tasks"] == 3
        assert rollup["tasks_with_timings"] == 2
        assert rollup["mean"]["sim_run_s"] == pytest.approx(2.0)
        assert rollup["total"]["total_s"] == pytest.approx(5.0)
        assert rollup["max"]["sim_run_s"] == pytest.approx(3.0)

    def test_aggregate_timings_none_when_absent(self):
        from repro.campaign import aggregate_timings
        from repro.campaign.executor import TaskOutcome

        outcomes = [TaskOutcome(index=0, key="k", status="ok", result={})]
        assert aggregate_timings(outcomes) is None
