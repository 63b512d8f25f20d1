"""§7 "Short Flows": flow-completion time for finite transfers.

The paper argues Verus naturally handles short flows: a transfer that
never leaves slow start behaves like legacy TCP, and one that does gets
the delay profile's fast adaptation.  This experiment quantifies that as
flow-completion time (FCT) over a range of transfer sizes on a cellular
channel, for Verus vs the TCP baselines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cellular import generate_scenario_trace
from ..traces.workload import derive_seed
from .runner import FlowSpec, run_trace_contention

#: Transfer sizes swept by default: a small web object up to a video chunk.
DEFAULT_SIZES_BYTES = (50_000, 200_000, 1_000_000, 5_000_000)


def measure_fct(protocol: str, size_bytes: int, trace: np.ndarray,
                rtt: float = 0.05, timeout: float = 120.0,
                seed: int = 0) -> Optional[float]:
    """Flow-completion time of one finite transfer over a trace, on the
    §6.2 dumbbell of :func:`~repro.experiments.runner.run_trace_contention`.

    Returns None when the transfer does not finish within ``timeout``.
    """
    result = run_trace_contention(
        trace, [FlowSpec(protocol, options={"transfer_bytes": size_bytes})],
        duration=timeout, rtt=rtt, warmup=0.0, seed=seed)
    return result.senders[0].completion_time


def fct_sweep(sizes: Sequence[int] = DEFAULT_SIZES_BYTES,
              protocols: Sequence[str] = ("verus", "cubic", "newreno"),
              scenario: str = "campus_pedestrian",
              technology: str = "3g",
              cell_rate_bps: float = 10e6,
              duration: float = 120.0,
              repetitions: int = 3,
              seed: int = 37) -> List[Dict]:
    """FCT per (protocol, size), averaged over repetitions.  Repetition
    ``rep`` runs at seed ``seed + rep`` over a trace synthesised from a
    seed derived from that run seed."""
    rows: List[Dict] = []
    for size in sizes:
        row: Dict[str, object] = {"size_kb": size // 1000}
        for protocol in protocols:
            fcts = []
            for rep in range(repetitions):
                trace = generate_scenario_trace(
                    scenario, duration=duration, technology=technology,
                    mean_rate_bps=cell_rate_bps,
                    seed=derive_seed(seed + rep, "trace"))
                fct = measure_fct(protocol, size, trace,
                                  timeout=duration, seed=seed + rep)
                if fct is not None:
                    fcts.append(fct)
            row[f"{protocol}_fct_s"] = (float(np.mean(fcts)) if fcts
                                        else float("nan"))
        rows.append(row)
    return rows


def verus_competitive_ratio(rows: List[Dict],
                            baseline: str = "cubic") -> float:
    """Geometric-mean FCT ratio Verus/baseline across sizes (< 1 = faster)."""
    ratios = []
    for row in rows:
        verus = row.get("verus_fct_s")
        base = row.get(f"{baseline}_fct_s")
        if verus and base and np.isfinite(verus) and np.isfinite(base):
            ratios.append(verus / base)
    if not ratios:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))
