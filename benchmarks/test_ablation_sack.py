"""Ablation — SACK-emulated vs RFC 6582 partial-ACK TCP recovery.

The TCP baselines default to SACK-emulated recovery (matching the
kernels the paper benchmarks).  This bench quantifies the difference the
choice makes on a shallow-buffer bottleneck where slow start drops a
burst of packets: SACK repairs the burst in about a round trip, NewReno
partial ACKs take one round trip per hole.
"""

from repro.experiments import format_table
from repro.metrics import flow_stats
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator
from repro.tcp import NewRenoSender, TcpReceiver


def run_variant(sack: bool, duration=30.0, seed=0):
    sim = Simulator()
    link = Link(sim, rate_bps=20e6,
                queue=DropTailQueue(capacity_bytes=100_000))
    sender = NewRenoSender(0, sack=sack)
    receiver = TcpReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=0.05)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    stats = flow_stats(receiver.deliveries, start=5.0, end=duration)
    return {
        "recovery": "sack" if sack else "newreno_partial_ack",
        "throughput_mbps": stats.throughput_bps / 1e6,
        "timeouts": sender.timeouts,
        "fast_retransmits": sender.fast_retransmits,
    }


def test_ablation_sack(run_once):
    rows = run_once(lambda: [run_variant(True), run_variant(False)])

    print()
    print(format_table(rows, title="Ablation: TCP loss-recovery mode"))

    sack, partial = rows[0], rows[1]
    # SACK must not lose to partial-ACK recovery (it typically wins by a
    # wide margin because multi-packet loss bursts repair in ~1 RTT).
    assert sack["throughput_mbps"] >= 0.95 * partial["throughput_mbps"]
    # Both modes must still be functional.
    assert partial["throughput_mbps"] > 5.0
