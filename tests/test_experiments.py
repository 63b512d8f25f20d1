"""Integration tests for the experiment harness (short durations)."""

import numpy as np
import pytest

from repro.cellular import generate_scenario_trace
from repro.experiments import (
    FlowSpec,
    format_series,
    format_table,
    make_endpoints,
    repeat_flows,
    run_fixed_dumbbell,
    run_trace_contention,
    run_variable_dumbbell,
)
from repro.experiments.micro import rapid_change_schedule
from repro.metrics import aggregate_stats


class TestFlowSpec:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec(protocol="quic")

    def test_label_defaults_to_protocol(self):
        assert FlowSpec(protocol="cubic").label == "cubic"

    def test_repeat_flows_staggered(self):
        specs = repeat_flows("verus", 3, start_stagger=10.0, r=4.0)
        assert [s.start_at for s in specs] == [0.0, 10.0, 20.0]
        assert all(s.options == {"r": 4.0} for s in specs)

    def test_repeat_flows_count_validated(self):
        with pytest.raises(ValueError):
            repeat_flows("verus", 0)

    @pytest.mark.parametrize("protocol", ["verus", "cubic", "newreno",
                                          "vegas", "sprout"])
    def test_make_endpoints_all_protocols(self, protocol):
        sender, receiver = make_endpoints(FlowSpec(protocol=protocol), 3,
                                          np.random.SeedSequence(0))
        assert sender.flow_id == 3
        assert receiver.flow_id == 3

    def test_verus_options_forwarded(self):
        sender, _ = make_endpoints(
            FlowSpec(protocol="verus", options={"r": 6.0}), 0,
            np.random.SeedSequence(0))
        assert sender.config.r == 6.0

    def test_verus_config_object_accepted(self):
        from repro.core import VerusConfig
        config = VerusConfig(r=4.0)
        sender, _ = make_endpoints(
            FlowSpec(protocol="verus", options={"config": config}), 0,
            np.random.SeedSequence(0))
        assert sender.config is config

    def test_verus_transfer_bytes_forwarded(self):
        sender, _ = make_endpoints(
            FlowSpec(protocol="verus",
                     options={"r": 4.0, "transfer_bytes": 50_000}), 0,
            np.random.SeedSequence(0))
        assert sender.config.r == 4.0
        assert sender.transfer_packets is not None


class TestRunners:
    def test_trace_contention_basic(self):
        trace = generate_scenario_trace("campus_stationary", duration=15.0,
                                        technology="3g", seed=1)
        result = run_trace_contention(trace, repeat_flows("verus", 2),
                                      duration=15.0, warmup=3.0)
        stats = result.all_stats()
        assert len(stats) == 2
        assert all(s.throughput_bps > 0 for s in stats)

    def test_stats_by_label_groups(self):
        trace = generate_scenario_trace("campus_stationary", duration=10.0,
                                        seed=1)
        specs = repeat_flows("verus", 1) + repeat_flows("cubic", 2)
        result = run_trace_contention(trace, specs, duration=10.0,
                                      warmup=2.0)
        grouped = result.stats_by_label()
        assert len(grouped["verus"]) == 1
        assert len(grouped["cubic"]) == 2

    def test_fixed_dumbbell_fills_link(self):
        result = run_fixed_dumbbell(20e6, repeat_flows("cubic", 2),
                                    duration=15.0, queue_bytes=300_000,
                                    warmup=5.0)
        agg = aggregate_stats(result.all_stats())
        assert agg["total_throughput_mbps"] > 15.0

    def test_variable_dumbbell_runs(self):
        schedule = rapid_change_schedule(20.0, 5e6, 20e6, seed=1)
        result = run_variable_dumbbell(schedule,
                                       [FlowSpec(protocol="verus")],
                                       duration=20.0, warmup=5.0)
        assert result.stats(0).throughput_bps > 1e6

    def test_reproducible_with_seed(self):
        trace = generate_scenario_trace("city_driving", duration=10.0,
                                        seed=2)
        def run():
            result = run_trace_contention(
                trace, repeat_flows("newreno", 2), duration=10.0, seed=5)
            return [r.bytes_received for r in result.receivers]
        assert run() == run()

    def test_per_flow_deliveries_keyed_by_flow(self):
        trace = generate_scenario_trace("campus_stationary", duration=8.0,
                                        seed=1)
        result = run_trace_contention(trace, repeat_flows("verus", 2),
                                      duration=8.0)
        mapping = result.per_flow_deliveries()
        assert set(mapping) == {0, 1}

    def test_summary_round_trips_through_json(self):
        import json

        from repro.experiments.runner import summary_stats
        trace = generate_scenario_trace("campus_stationary", duration=10.0,
                                        seed=1)
        specs = repeat_flows("verus", 1) + repeat_flows("cubic", 1)
        result = run_trace_contention(trace, specs, duration=10.0,
                                      warmup=2.0)
        summary = json.loads(json.dumps(result.summary()))
        assert summary["duration"] == 10.0
        assert [f["protocol"] for f in summary["flows"]] == ["verus", "cubic"]
        restored = summary_stats(summary)
        assert restored == result.all_stats()


class TestHeadlineResult:
    def test_verus_vs_cubic_delay_gap(self):
        """The paper's core claim, end to end: on the same cellular trace
        under contention, Verus delivers comparable throughput at a small
        fraction of Cubic's delay."""
        trace = generate_scenario_trace("campus_pedestrian", duration=40.0,
                                        technology="3g",
                                        mean_rate_bps=8e6, seed=11)
        verus = run_trace_contention(trace, repeat_flows("verus", 3, r=2.0),
                                     duration=40.0, warmup=10.0)
        cubic = run_trace_contention(trace, repeat_flows("cubic", 3),
                                     duration=40.0, warmup=10.0)
        verus_agg = aggregate_stats(verus.all_stats())
        cubic_agg = aggregate_stats(cubic.all_stats())
        assert verus_agg["mean_delay_ms"] < cubic_agg["mean_delay_ms"] / 2.5
        assert (verus_agg["mean_throughput_mbps"]
                > 0.4 * cubic_agg["mean_throughput_mbps"])


class TestReport:
    def test_format_table_aligns_columns(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_union_of_keys(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text

    def test_format_series_subsamples(self):
        text = format_series("s", range(1000), range(1000), max_points=10)
        assert text.count("(") <= 26

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1, 2])
