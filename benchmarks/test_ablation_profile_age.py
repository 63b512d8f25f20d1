"""Ablation — delay-profile knot ageing (``profile_max_age``).

Without ageing, high-delay knots recorded in a past low-capacity era
permanently fence off the window range above them: the inverse lookup
never selects those windows, so they are never re-measured.  The bench
measures time-to-track after a 2 → 20 Mbps capacity step and steady-state
behaviour on a fixed link (where ageing must not hurt).
"""

import numpy as np

from repro.core import VerusConfig, VerusReceiver, VerusSender
from repro.experiments import format_table
from repro.metrics import flow_stats, windowed_throughput
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator


def capacity_step(max_age, duration=60.0, step_at=20.0):
    sim = Simulator()
    link = Link(sim, rate_bps=2e6,
                queue=DropTailQueue(capacity_bytes=200_000))
    sender = VerusSender(0, VerusConfig(profile_max_age=max_age))
    receiver = VerusReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=0.03)
    bell.add_flow(sender, receiver)
    sim.schedule_at(step_at, lambda: setattr(link, "rate_bps", 20e6))
    bell.run(duration)
    t, series = windowed_throughput(receiver.deliveries, 1.0,
                                    start=step_at, end=duration)
    above = np.flatnonzero(series >= 0.8 * 20e6)
    track_time = float(t[above[0]] - step_at) if above.size else np.inf
    tail = flow_stats(receiver.deliveries, start=duration - 10.0,
                      end=duration)
    return track_time, tail.throughput_bps


def steady_state(max_age, duration=40.0):
    sim = Simulator()
    link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
    sender = VerusSender(0, VerusConfig(profile_max_age=max_age))
    receiver = VerusReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=0.05)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    return flow_stats(receiver.deliveries, start=duration / 2, end=duration)


def run_ablation():
    rows = []
    for label, age in (("age_10s", 10.0), ("no_ageing", None)):
        track_time, tail_bps = capacity_step(age)
        steady = steady_state(age)
        rows.append({
            "profile_age": label,
            "track_time_s": track_time,
            "post_step_tail_mbps": tail_bps / 1e6,
            "steady_mbps": steady.throughput_bps / 1e6,
            "steady_delay_ms": steady.mean_delay_ms,
        })
    return rows


def test_ablation_profile_age(run_once):
    rows = run_once(run_ablation)

    print()
    print(format_table(rows, title="Ablation: profile knot ageing"))

    aged, frozen = rows[0], rows[1]
    # Ageing must track the capacity step far faster (the frozen profile
    # often never reaches 80 % within the run).
    assert aged["track_time_s"] < 20.0
    assert (aged["track_time_s"] < frozen["track_time_s"]
            or frozen["track_time_s"] == float("inf"))
    assert aged["post_step_tail_mbps"] > 15.0
    # And it must not cost anything at steady state.
    assert aged["steady_mbps"] > 0.9 * frozen["steady_mbps"]
