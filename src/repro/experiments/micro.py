"""§7 micro-evaluation: Figs 11–14 on the tc-shaped dumbbell substitute.

* Fig 11 — rapidly changing network: every 5 s the link's capacity, RTT
  and loss rate are redrawn (scenario I: 10–100 Mbps; scenario II:
  2–20 Mbps, where the Sprout implementation cap stops mattering).
* Fig 12 — seven Verus flows arriving 30 s apart on a 90 Mbps bottleneck.
* Fig 13 — three Verus flows with RTTs 20/50/100 ms on 60 Mbps.
* Fig 14 — three Verus then three Cubic flows staggered onto 60 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics import flow_stats, jain_index, windowed_throughput
from ..netsim import LinkPhase, LinkSchedule
from ..traces.workload import derive_seed
from .runner import (
    ExperimentResult,
    FlowSpec,
    repeat_flows,
    run_fixed_dumbbell,
    run_variable_dumbbell,
)


def rapid_change_schedule(duration: float, rate_lo_bps: float,
                          rate_hi_bps: float, seed: int,
                          period: float = 5.0) -> LinkSchedule:
    """The paper's §7 changing-network generator: every five seconds the
    capacity, RTT (10–100 ms one-way split) and loss (0–1%) are redrawn."""
    rng = np.random.default_rng(seed)
    return LinkSchedule.random_walk(
        duration=duration, period=period,
        rate_range_bps=(rate_lo_bps, rate_hi_bps),
        delay_range=(0.005, 0.050),  # one-way; RTT 10..100 ms
        loss_range=(0.0, 0.01),
        rng=rng)


@dataclass
class RapidChangeResult:
    """Per-protocol throughput/delay series against the capacity series."""

    schedule: LinkSchedule
    series: Dict[str, Tuple[np.ndarray, np.ndarray]]  # label -> (t, bps)
    delays: Dict[str, Tuple[np.ndarray, np.ndarray]]
    stats: Dict[str, dict]

    def utilization(self, label: str) -> float:
        """Fraction of the average scheduled capacity the protocol used."""
        mean_capacity = float(np.mean([p.rate_bps for p in self.schedule.phases]))
        return self.stats[label]["throughput_bps"] / mean_capacity


def fig11_rapid_change(scenario: str = "I", duration: float = 240.0,
                       seed: int = 3, window: float = 1.0
                       ) -> RapidChangeResult:
    """Fig 11: single flows of each protocol over the changing link.

    Scenario I varies capacity 10–100 Mbps (Sprout's 18 Mbps cap bites);
    scenario II varies 2–20 Mbps (Sprout recovers, Verus still ahead).
    """
    if scenario == "I":
        rates = (10e6, 100e6)
        protocols = [("verus", {"r": 2.0}), ("cubic", {}), ("vegas", {}),
                     ("sprout", {})]
    elif scenario == "II":
        rates = (2e6, 20e6)
        protocols = [("verus", {"r": 2.0}), ("sprout", {})]
    else:
        raise ValueError("scenario must be 'I' or 'II'")

    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    delays: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    stats: Dict[str, dict] = {}
    schedule = rapid_change_schedule(duration, *rates,
                                     seed=derive_seed(seed, "schedule"))
    for protocol, options in protocols:
        spec = FlowSpec(protocol=protocol, options=dict(options))
        result = run_variable_dumbbell(schedule, [spec], duration=duration,
                                       queue_bytes=2_000_000, seed=seed)
        deliveries = result.deliveries(0)
        t, tput = windowed_throughput(deliveries, window, end=duration)
        from ..metrics import windowed_delay
        td, dl = windowed_delay(deliveries, window, end=duration)
        series[protocol] = (t, tput)
        delays[protocol] = (td, dl)
        stat = result.stats(0)
        stats[protocol] = {
            "throughput_bps": stat.throughput_bps,
            "mean_delay_ms": stat.mean_delay_ms,
        }
    return RapidChangeResult(schedule=schedule, series=series,
                             delays=delays, stats=stats)


# ----------------------------------------------------------------------
@dataclass
class ArrivalResult:
    """Per-flow windowed throughput over time plus fairness numbers."""

    result: ExperimentResult
    series: Dict[int, Tuple[np.ndarray, np.ndarray]]
    final_jain: float
    first_flow_initial_share: float


def fig12_new_flows(flows: int = 7, stagger: float = 30.0,
                    rate_bps: float = 90e6, duration: Optional[float] = None,
                    window: float = 1.0, seed: int = 17) -> ArrivalResult:
    """Fig 12: a new Verus flow joins every 30 s on a 90 Mbps bottleneck;
    earlier flows shed bandwidth and the allocation stays fair."""
    if duration is None:
        duration = stagger * flows + 30.0
    specs = repeat_flows("verus", flows, start_stagger=stagger, r=2.0)
    result = run_fixed_dumbbell(rate_bps, specs, duration=duration,
                                rtt=0.02, queue_bytes=1_500_000, seed=seed)
    series = {
        i: windowed_throughput(result.deliveries(i), window, end=duration)
        for i in range(flows)
    }
    # Fairness over the final stretch when everyone is active.
    tail_start = (flows - 1) * stagger + 10.0
    tail = [flow_stats(result.deliveries(i), start=tail_start,
                       end=duration).throughput_bps
            for i in range(flows)]
    # Share of the link the first flow takes while alone.
    alone = flow_stats(result.deliveries(0), start=5.0,
                       end=stagger).throughput_bps
    return ArrivalResult(result=result, series=series,
                         final_jain=jain_index(tail),
                         first_flow_initial_share=alone / rate_bps)


def fig13_rtt_fairness(rtts: Sequence[float] = (0.020, 0.050, 0.100),
                       rate_bps: float = 60e6, duration: float = 120.0,
                       window: float = 1.0, seed: int = 19) -> dict:
    """Fig 13: Verus flows with different RTTs share close to equally
    (near max-min fair, unlike RTT-biased loss-based TCP)."""
    specs = [FlowSpec("verus", label=f"verus_{int(r * 1e3)}ms", rtt=r,
                      options={"r": 2.0})
             for r in rtts]
    result = run_fixed_dumbbell(rate_bps, specs, duration=duration,
                                rtt=0.02, queue_bytes=1_500_000, seed=seed)
    stats = result.all_stats()
    tputs = [s.throughput_bps for s in stats]
    return {
        "stats": stats,
        "jain": jain_index(tputs),
        "max_over_min": max(tputs) / max(min(tputs), 1.0),
        "series": {s.label: windowed_throughput(result.deliveries(i), window,
                                                end=duration)
                   for i, s in enumerate(stats)},
    }


def fig14_vs_cubic(rate_bps: float = 60e6, stagger: float = 30.0,
                   duration: float = 210.0, window: float = 1.0,
                   seed: int = 29) -> dict:
    """Fig 14: three Verus flows join at t=0/30/60 s, three Cubic flows at
    t=90/120/150 s; the bottleneck ends up shared about equally."""
    # The lifetime D_min (paper-literal) keeps Verus's delay tolerance
    # anchored to the uncongested path, which is what yields the paper's
    # near-equal sharing with loss-driven Cubic; see EXPERIMENTS.md.
    specs = [FlowSpec("verus", label=f"verus_{i+1}", start_at=i * stagger,
                      options={"r": 6.0, "dmin_window": None})
             for i in range(3)]
    specs += [FlowSpec("cubic", label=f"cubic_{i+1}",
                       start_at=(i + 3) * stagger)
              for i in range(3)]
    # 900 KB (~120 ms at 60 Mbps) sits at the coexistence point: deeper
    # buffers let Cubic's standing queue exceed Verus's R·D_min tolerance
    # (Verus yields), shallower ones turn Cubic's loss sawtooth against
    # it (Verus dominates).  See EXPERIMENTS.md.
    result = run_fixed_dumbbell(rate_bps, specs, duration=duration,
                                rtt=0.02, queue_bytes=900_000, seed=seed)
    tail_start = 5 * stagger + 10.0
    tail = {s.label: flow_stats(result.deliveries(i), start=tail_start,
                                end=duration).throughput_bps
            for i, s in enumerate(specs)}
    verus_share = sum(v for k, v in tail.items() if k.startswith("verus"))
    cubic_share = sum(v for k, v in tail.items() if k.startswith("cubic"))
    return {
        "result": result,
        "tail_throughputs_bps": tail,
        "verus_total_bps": verus_share,
        "cubic_total_bps": cubic_share,
        "verus_to_cubic_ratio": verus_share / max(cubic_share, 1.0),
        "jain_all": jain_index(list(tail.values())),
        "series": {s.label: windowed_throughput(result.deliveries(i), window,
                                                end=duration)
                   for i, s in enumerate(specs)},
    }
