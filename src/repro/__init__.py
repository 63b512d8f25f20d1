"""Verus reproduction: Adaptive Congestion Control for Unpredictable
Cellular Networks (Zaki et al., SIGCOMM 2015).

Package layout
--------------
``repro.core``
    The Verus protocol (delay estimator, delay profiler, window estimator,
    loss handler, sender/receiver endpoints).
``repro.netsim``
    Discrete-event network simulator: links, queues (drop-tail, RED,
    CoDel), trace-driven and schedule-driven bottlenecks, dumbbells.
``repro.cellular``
    Synthetic bursty cellular channel model, named measurement scenarios,
    burst analytics, channel predictors and trace I/O.
``repro.tcp``
    TCP baselines: NewReno, Cubic, Vegas, plus the other §2-cited
    designs (LEDBAT, Compound, Binomial).
``repro.sprout``
    Sprout-style stochastic-forecast baseline.
``repro.pcc``
    PCC Allegro utility-driven rate control baseline.
``repro.metrics``
    Flow statistics and Jain's fairness index.
``repro.analysis``
    Fluid model of Verus steady state (the paper's future work).
``repro.viz``
    Dependency-free terminal plots for the CLI.
``repro.experiments``
    One entry point per paper figure/table (Figs 1-15, Table 1, and the
    §5.3 sensitivity sweeps).
``repro.obs``
    Observability: meters and protocol timelines behind ``--telemetry``
    (lazy import, like ``repro.campaign``).  Speed is measured by the
    repository benchmark in ``perfbench/``.

Quickstart
----------
>>> from repro import quick_comparison
>>> rows = quick_comparison(duration=30.0)   # Verus vs Cubic on a 3G trace
"""

from typing import List

from . import (
    analysis,
    cellular,
    core,
    experiments,
    interp,
    metrics,
    netsim,
    pcc,
    sprout,
    tcp,
    viz,
)
from .core import VerusConfig, VerusReceiver, VerusSender
from .experiments import FlowSpec, repeat_flows, run_trace_contention

__version__ = "1.3.0"

__all__ = [
    "FlowSpec",
    "VerusConfig",
    "VerusReceiver",
    "VerusSender",
    "analysis",
    "cellular",
    "core",
    "experiments",
    "interp",
    "metrics",
    "netsim",
    "pcc",
    "quick_comparison",
    "viz",
    "repeat_flows",
    "run_trace_contention",
    "sprout",
    "tcp",
]


def quick_comparison(duration: float = 30.0, scenario: str = "campus_pedestrian",
                     technology: str = "3g", flows: int = 3,
                     seed: int = 1) -> List[dict]:
    """Run Verus and TCP Cubic over the same cellular trace and return
    per-protocol mean throughput/delay rows -- a one-call demonstration of
    the paper's headline result."""
    from .cellular import generate_scenario_trace
    from .metrics import aggregate_stats

    trace = generate_scenario_trace(scenario, duration=duration,
                                    technology=technology, seed=seed)
    rows = []
    for protocol, options in (("verus", {"r": 2.0}), ("cubic", {})):
        specs = repeat_flows(protocol, flows, **options)
        result = run_trace_contention(trace, specs, duration=duration,
                                      seed=seed)
        agg = aggregate_stats(result.all_stats())
        rows.append({
            "protocol": protocol,
            "mean_throughput_mbps": round(agg["mean_throughput_mbps"], 3),
            "mean_delay_ms": round(agg["mean_delay_ms"], 1),
        })
    return rows
