#!/usr/bin/env python
"""Scenario: record → save → reload → replay a channel trace.

Demonstrates the trace workflow a researcher would use with real
measurements: generate (or import) a Mahimahi-style delivery-opportunity
trace, inspect its burst structure (§3 analysis), persist it, and replay
it through the simulator under a protocol of choice.

Run with::

    python examples/trace_workflow.py
"""

import tempfile
from pathlib import Path

from repro.cellular import (
    compare_predictors,
    detect_bursts,
    generate_scenario_trace,
    trace_rate_bps,
)
from repro.experiments import FlowSpec, format_table, run_trace_contention
from repro.metrics import flow_stats, windowed_throughput
from repro.traces.formats import (as_milliseconds, read_trace_seconds,
                                  write_mahimahi)

DURATION = 40.0


def main() -> None:
    # 1. Record (here: synthesise) a channel trace.
    trace = generate_scenario_trace("highway_driving", duration=DURATION,
                                    technology="lte", mean_rate_bps=15e6,
                                    seed=23)
    print(f"Generated {trace.size} delivery opportunities "
          f"({trace_rate_bps(trace) / 1e6:.1f} Mbps average).")

    # 2. Inspect burst structure (the paper's §3 analysis).
    bursts = detect_bursts(trace)
    print(format_table([bursts.summary()], title="\nburst structure"))

    # 3. Quantify predictability of the windowed throughput.
    deliveries = [(t, i, 0.0, 1400) for i, t in enumerate(trace)]
    _, series = windowed_throughput(deliveries, 0.020, end=DURATION)
    scores = compare_predictors(series)
    print(format_table(
        [{"predictor": s.name, "rmse_mbps": round(s.rmse / 1e6, 2),
          "vs_naive": round(s.rmse_vs_naive, 2)} for s in scores],
        title="\npredictability of 20 ms windows"))

    # 4. Persist and reload in the Mahimahi-compatible format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "highway_lte.trace"
        write_mahimahi(path, as_milliseconds(trace))
        reloaded = read_trace_seconds(path)
        print(f"\nsaved + reloaded {path.name}: {reloaded.size} opportunities,"
              f" {path.stat().st_size} bytes on disk")

    # 5. Replay under Verus and report flow statistics.
    result = run_trace_contention(
        reloaded, [FlowSpec(protocol="verus", options={"r": 2.0})],
        duration=DURATION, use_red=False, seed=23)
    stats = flow_stats(result.deliveries(0), start=5.0, end=DURATION)
    print(f"\nVerus over the replayed trace: "
          f"{stats.throughput_mbps:.2f} Mbps at "
          f"{stats.mean_delay_ms:.0f} ms mean delay "
          f"(p95 {stats.p95_delay * 1e3:.0f} ms).")


if __name__ == "__main__":
    main()
