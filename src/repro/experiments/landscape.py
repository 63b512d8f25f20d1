"""Beyond the paper: the full §2 protocol landscape on one cellular cell.

Runs every implemented congestion controller (Verus, Cubic, NewReno,
Vegas, Sprout, PCC, LEDBAT, Compound, Binomial-SQRT) over the same 3G
trace and reports each one's throughput/delay operating point.
"""

from __future__ import annotations

from typing import Dict, List

from ..cellular import generate_scenario_trace
from ..metrics import aggregate_stats
from .runner import repeat_flows, run_trace_contention

LANDSCAPE_PROTOCOLS = (
    ("verus", {"r": 2.0}),
    ("cubic", {}),
    ("newreno", {}),
    ("vegas", {}),
    ("sprout", {}),
    ("pcc", {}),
    ("ledbat", {}),
    ("compound", {}),
    ("binomial", {}),
)


def run_landscape(duration: float = 60.0, flows: int = 3,
                  seed: int = 21) -> List[Dict]:
    """Per-protocol mean throughput/delay of ``flows`` same-protocol
    flows on one 10 Mbps city_stationary 3G cell."""
    trace = generate_scenario_trace("city_stationary", duration=duration,
                                    technology="3g", mean_rate_bps=10e6,
                                    seed=seed)
    rows = []
    for protocol, options in LANDSCAPE_PROTOCOLS:
        specs = repeat_flows(protocol, flows, **options)
        result = run_trace_contention(trace, specs, duration=duration,
                                      seed=seed)
        agg = aggregate_stats(result.all_stats())
        rows.append({
            "protocol": protocol,
            "throughput_mbps": agg["mean_throughput_mbps"],
            "mean_delay_ms": agg["mean_delay_ms"],
        })
    return rows
