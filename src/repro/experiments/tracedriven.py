"""§6.2 trace-driven contention evaluation: Fig 10, Table 1 and Fig 15.

Flows contend through a shared RED queue (paper parameters: 3/9 Mbit,
drop probability 10%) in front of a replayed cellular channel trace; the
traces come from the synthetic channel model's seven named scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..cellular import EVALUATION_SCENARIOS, generate_scenario_trace
from ..metrics import FlowStats, aggregate_stats, windowed_jain_index
from .runner import FlowSpec, repeat_flows, run_trace_contention

#: Fig 10's three mobility patterns, paper captions (a)–(c).
FIG10_SCENARIOS = ("campus_pedestrian", "city_driving", "highway_driving")

#: Fig 10's protocol line-up.
FIG10_PROTOCOLS = (
    ("cubic", {}),
    ("newreno", {}),
    ("verus", {"r": 2.0}),
    ("verus", {"r": 4.0}),
    ("verus", {"r": 6.0}),
)


def _label(protocol: str, options: dict) -> str:
    if protocol == "verus":
        return f"verus_r{int(options.get('r', 2))}"
    return protocol


@dataclass
class ScatterPoint:
    """One flow's (delay, throughput) scatter point (Fig 10 axes)."""

    scenario: str
    protocol: str
    flow: int
    throughput_mbps: float
    mean_delay_ms: float

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "flow": self.flow,
            "throughput_mbps": round(self.throughput_mbps, 3),
            "delay_ms": round(self.mean_delay_ms, 1),
        }


def fig10_mobility(flows: int = 10, duration: float = 60.0,
                   scenarios: Sequence[str] = FIG10_SCENARIOS,
                   technology: str = "3g",
                   cell_rate_bps: float = 16e6,
                   seed: int = 5) -> List[ScatterPoint]:
    """Fig 10: per-flow delay/throughput scatter, 10 flows, 3 mobility
    patterns, Cubic vs NewReno vs Verus (R ∈ {2, 4, 6})."""
    points: List[ScatterPoint] = []
    for s_idx, scenario in enumerate(scenarios):
        trace = generate_scenario_trace(scenario, duration=duration,
                                        technology=technology,
                                        mean_rate_bps=cell_rate_bps,
                                        seed=seed + s_idx)
        for protocol, options in FIG10_PROTOCOLS:
            label = _label(protocol, options)
            specs = repeat_flows(protocol, flows, label=label, **options)
            result = run_trace_contention(trace, specs, duration=duration,
                                          seed=seed)
            for stat in result.all_stats():
                points.append(ScatterPoint(
                    scenario=scenario, protocol=label, flow=stat.flow_id,
                    throughput_mbps=stat.throughput_mbps,
                    mean_delay_ms=stat.mean_delay_ms))
    return points


def summarize_fig10(points: List[ScatterPoint]) -> List[dict]:
    """Per (scenario, protocol) means and throughput spread."""
    rows = []
    keys = sorted({(p.scenario, p.protocol) for p in points})
    for scenario, protocol in keys:
        chunk = [p for p in points
                 if p.scenario == scenario and p.protocol == protocol]
        tputs = [p.throughput_mbps for p in chunk]
        delays = [p.mean_delay_ms for p in chunk]
        rows.append({
            "scenario": scenario,
            "protocol": protocol,
            "mean_throughput_mbps": float(np.mean(tputs)),
            "throughput_std": float(np.std(tputs)),
            "mean_delay_ms": float(np.nanmean(delays)),
        })
    return rows


# ----------------------------------------------------------------------
# Table 1 — Jain's fairness index
# ----------------------------------------------------------------------
TABLE1_USER_COUNTS = (2, 5, 10, 15, 20)
TABLE1_PROTOCOLS = (
    ("cubic", {}),
    ("newreno", {}),
    ("verus", {"r": 2.0}),
)


def table1_fairness(user_counts: Sequence[int] = TABLE1_USER_COUNTS,
                    scenarios: Sequence[str] = tuple(EVALUATION_SCENARIOS),
                    duration: float = 60.0,
                    technology: str = "3g",
                    cell_rate_bps: float = 16e6,
                    seed: int = 9) -> List[dict]:
    """Table 1: windowed Jain's index per protocol and user count,
    averaged across the five evaluation scenarios."""
    rows = []
    for users in user_counts:
        row: Dict[str, object] = {"users": users}
        for protocol, options in TABLE1_PROTOCOLS:
            label = _label(protocol, options)
            indices = []
            for s_idx, scenario in enumerate(scenarios):
                trace = generate_scenario_trace(
                    scenario, duration=duration, technology=technology,
                    mean_rate_bps=cell_rate_bps, seed=seed + s_idx)
                specs = repeat_flows(protocol, users, label=label, **options)
                result = run_trace_contention(trace, specs,
                                              duration=duration, seed=seed)
                indices.append(windowed_jain_index(
                    result.per_flow_deliveries(), window=1.0, start=5.0,
                    end=duration))
            row[label] = float(np.mean(indices))
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fig 15 — static vs updating delay profile
# ----------------------------------------------------------------------
def fig15_static_profile(scenarios: Sequence[str] = tuple(EVALUATION_SCENARIOS),
                         flows: int = 5, duration: float = 60.0,
                         technology: str = "3g",
                         cell_rate_bps: float = 16e6,
                         seed: int = 13) -> List[dict]:
    """Fig 15: Verus R=2 with the 1 s profile update vs a frozen first
    profile, across the five collected traces."""
    rows = []
    for s_idx, scenario in enumerate(scenarios):
        trace = generate_scenario_trace(scenario, duration=duration,
                                        technology=technology,
                                        mean_rate_bps=cell_rate_bps,
                                        seed=seed + s_idx)
        for label, options in (
                ("updating", {"r": 2.0}),
                ("static", {"r": 2.0, "profile_update_interval": None})):
            specs = repeat_flows("verus", flows, label=label, **options)
            result = run_trace_contention(trace, specs, duration=duration,
                                          seed=seed)
            agg = aggregate_stats(result.all_stats())
            rows.append({
                "scenario": scenario,
                "profile": label,
                "mean_throughput_mbps": agg["mean_throughput_mbps"],
                "mean_delay_ms": agg["mean_delay_ms"],
            })
    return rows


def _fig15_ratio(rows: List[dict], key: str) -> float:
    """Geometric-mean updating/static ratio of ``key`` across scenarios."""
    by_scenario: Dict[str, Dict[str, float]] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], {})[row["profile"]] = row[key]
    ratios = []
    for pair in by_scenario.values():
        if "updating" in pair and "static" in pair and pair["static"] > 0:
            ratios.append(pair["updating"] / pair["static"])
    return float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")


def fig15_gain(rows: List[dict]) -> float:
    """Geometric-mean updating/static throughput ratio across scenarios."""
    return _fig15_ratio(rows, "mean_throughput_mbps")


def fig15_delay_ratio(rows: List[dict]) -> float:
    """Geometric-mean updating/static delay ratio (< 1: updating keeps the
    operating point honest as the channel changes — the paper's claim)."""
    return _fig15_ratio(rows, "mean_delay_ms")
