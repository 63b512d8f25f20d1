#!/usr/bin/env python
"""Anatomy of a Verus flow: watch the protocol's internals live.

Runs one Verus flow over a fluctuating LTE channel with diagnostics
enabled and narrates what each §4 element did: slow start and its exit,
the delay profile being learned and re-learned, the eq. 4 set-point
walking its branches, loss episodes and recoveries.  A guided tour of
the implementation for anyone about to modify it.

Run with::

    python examples/protocol_anatomy.py
"""

from collections import Counter

from repro.cellular import generate_scenario_trace, trace_rate_bps
from repro.core import VerusConfig, VerusReceiver, VerusSender
from repro.metrics import flow_stats, windowed_throughput
from repro.netsim import Dumbbell, Simulator, TraceLink
from repro.viz import sparkline

DURATION = 60.0


def main() -> None:
    trace = generate_scenario_trace("city_driving", duration=DURATION,
                                    technology="lte", mean_rate_bps=15e6,
                                    seed=9)
    print(f"Channel: LTE city-driving, {trace.size} delivery opportunities, "
          f"{trace_rate_bps(trace) / 1e6:.1f} Mbps average\n")

    sim = Simulator()
    link = TraceLink(sim, trace, delay=0.005)
    config = VerusConfig(r=2.0, record_diagnostics=True)
    sender = VerusSender(0, config)
    receiver = VerusReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=0.01)
    bell.add_flow(sender, receiver)
    bell.run(DURATION)

    # ---- slow start -----------------------------------------------------
    rows = sender.diagnostics
    first_normal = next((r for r in rows if r.mode == "normal"), None)
    print("1. SLOW START")
    print(f"   exit reason: {sender.slow_start_exits!r} "
          f"(loss = ACK-sequence gap; delay = RTT > "
          f"{config.ss_exit_ratio:.0f} x D_min)")
    if first_normal is not None:
        print(f"   handover to the epoch loop at t="
              f"{first_normal.time * 1e3:.0f} ms with "
              f"window = {first_normal.window:.0f} packets\n")

    # ---- delay profile ---------------------------------------------------
    knots = sender.profiler.knots()
    print("2. DELAY PROFILE (eq. 1 / Fig 5)")
    print(f"   {len(knots)} live (window, delay) knots spanning "
          f"W = {knots[0][0]}..{knots[-1][0]} packets")
    print(f"   re-interpolated {sender.profiler.interpolations} times "
          f"(every {config.profile_update_interval:.0f} s)")
    delays_ms = [d * 1e3 for _, d in knots]
    print(f"   shape: {sparkline(delays_ms, width=48)}  "
          f"({min(delays_ms):.0f}..{max(delays_ms):.0f} ms)\n")

    # ---- the eq. 4 walk ---------------------------------------------------
    print("3. SET-POINT DYNAMICS (eq. 4)")
    d_ests = [r.d_est * 1e3 for r in rows if r.mode == "normal"]
    windows = [r.window for r in rows if r.mode == "normal"]
    print(f"   D_est walked {sparkline(d_ests, width=48)}  "
          f"({min(d_ests):.0f}..{max(d_ests):.0f} ms)")
    print(f"   window    {sparkline(windows, width=48)}  "
          f"({min(windows):.0f}..{max(windows):.0f} packets)")
    est = sender.delay_estimator
    print(f"   D_min = {est.d_min * 1e3:.1f} ms (windowed), "
          f"D_max = {est.d_max * 1e3:.1f} ms, "
          f"ratio = {est.max_min_ratio():.2f} (bound R = {config.r})\n")

    # ---- losses -----------------------------------------------------------
    print("4. LOSS HANDLING (eq. 6)")
    print(f"   losses detected: {sender.losses_detected}   "
          f"retransmissions: {sender.retransmissions}   "
          f"abandoned: {sender.abandoned}   timeouts: {sender.timeouts}")
    print(f"   recovery episodes completed: "
          f"{sender.loss_handler.recoveries_completed}")
    modes = Counter(r.mode for r in rows)
    total = sum(modes.values())
    shares = "  ".join(f"{mode}: {count / total:.1%}"
                       for mode, count in modes.most_common())
    print(f"   time in each mode: {shares}\n")

    # ---- outcome ----------------------------------------------------------
    stats = flow_stats(receiver.deliveries, start=5.0, end=DURATION)
    _, tput = windowed_throughput(receiver.deliveries, 1.0, end=DURATION)
    print("5. OUTCOME")
    print(f"   goodput  {sparkline(tput / 1e6, width=48)}  "
          f"avg {stats.throughput_mbps:.2f} Mbps")
    print(f"   delay    mean {stats.mean_delay_ms:.0f} ms, "
          f"p95 {stats.p95_delay * 1e3:.0f} ms "
          f"(channel floor ≈ 10 ms)")


if __name__ == "__main__":
    main()
