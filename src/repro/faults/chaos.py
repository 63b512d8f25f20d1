"""The chaos verdict: how a faulted grid cell is judged.

A chaos cell is an ordinary :class:`~repro.campaign.spec.TaskSpec` with
a ``fault`` preset (see :data:`repro.faults.spec.FAULT_PRESETS`) and a
``backend`` — the discrete-event simulator or the live UDP loopback
emulator.  :func:`~repro.campaign.spec.run_simulation_task` runs it and
adds :func:`recovery_verdict` to the run's summary: did every flow
re-inflate its delivery rate within a deadline after the disruption,
and did the session terminate cleanly?  :func:`recovery_rows` reduces a
grid's verdicts to one row per (protocol, fault, backend) for ``repro
chaos``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.recovery import recovery_stats
from .spec import FaultSchedule


def chaos_warmup(duration: float) -> float:
    """Warm-up of a chaos cell: 1 s, shortened to duration/10."""
    return min(1.0, duration / 10.0)


def disruption_window(schedule: FaultSchedule
                      ) -> Tuple[Optional[float], Optional[float]]:
    """The span a flow must recover from: the full blackout envelope if
    the schedule goes dark, otherwise the envelope of all fault events
    (a corruption storm disrupts too, just less absolutely)."""
    dark = schedule.outage_windows("both")
    if dark:
        return dark[0][0], dark[-1][1]
    events = list(schedule)
    if events:
        return (min(e.start for e in events), max(e.end for e in events))
    return None, None


def recovery_verdict(result, schedule: FaultSchedule,
                     deadline: float) -> dict:
    """The JSON-safe recovery verdict of one faulted run: per-flow
    recovery, sender counters and the injector and live accounting."""
    d_start, d_end = disruption_window(schedule)
    # Judge recovery against the time actually run — a degraded session
    # may have ended early.
    if d_end is not None:
        deadline = max(0.5, min(deadline, result.duration - d_end))
    window = min(0.5, deadline / 2.0)
    recovery = [
        recovery_stats(receiver.deliveries, d_start, d_end, flow_id=i,
                       label=spec.label, window=window, deadline=deadline)
        for i, (spec, receiver) in enumerate(zip(result.specs,
                                                 result.receivers))
    ]
    senders = [
        {name: int(getattr(s, name)) for name in
         ("timeouts", "retransmissions", "losses_detected", "abandoned")
         if hasattr(s, name)}
        for s in result.senders
    ]
    return {
        "fault_stats": result.fault_stats,
        "live_counters": getattr(result, "live_counters", None),
        "recovery": [r.to_dict() for r in recovery],
        "senders": senders,
        "recovered": all(r.recovered for r in recovery),
    }


def recovery_rows(tasks: Sequence, outcomes: Sequence) -> List[dict]:
    """Aggregate a grid's verdicts per (protocol, fault, backend) group."""
    grouped: Dict[Tuple[str, str, str], List[Optional[dict]]] = {}
    for task, outcome in zip(tasks, outcomes):
        key = (task.protocol, task.fault, task.backend)
        grouped.setdefault(key, []).append(
            outcome.result if outcome.ok else None)
    rows = []
    for (protocol, fault, backend), cells in sorted(grouped.items()):
        ok = [c for c in cells if c is not None]
        times = [r["recovery_time"] for c in ok
                 for r in c["recovery"]
                 if r["recovery_time"] is not None]
        rows.append({
            "protocol": protocol,
            "fault": fault,
            "backend": backend,
            "cells": len(cells),
            "failed": len(cells) - len(ok),
            "recovered": sum(1 for c in ok if c["recovered"]),
            "degraded": sum(1 for c in ok if c["degraded"]),
            "mean_recovery_s": (sum(times) / len(times)
                                if times else None),
        })
    return rows
