"""Ablation — ACK aggregation on the feedback path.

Cellular uplinks routinely compress ACK streams.  Verus's delay profile
is fed by per-packet acknowledgements, so batching them coarsens both
the per-epoch D_max sampling and the (window, delay) tuples.  This bench
quantifies the cost on a fixed bottleneck: throughput should survive,
delay control should degrade monotonically with the batch size.
"""

from repro.core import VerusConfig, VerusReceiver, VerusSender
from repro.experiments import format_table
from repro.metrics import flow_stats
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator


def run_with_aggregation(ack_every, duration=40.0):
    sim = Simulator()
    link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
    sender = VerusSender(0, VerusConfig())
    receiver = VerusReceiver(0, ack_every=ack_every)
    bell = Dumbbell(sim, link, default_rtt=0.05)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    stats = flow_stats(receiver.deliveries, start=duration / 2, end=duration)
    return {
        "ack_every": ack_every,
        "throughput_mbps": stats.throughput_bps / 1e6,
        "mean_delay_ms": stats.mean_delay_ms,
        "losses": sender.losses_detected,
    }


def test_ablation_ack_aggregation(run_once):
    rows = run_once(lambda: [run_with_aggregation(n) for n in (1, 2, 4)])

    print()
    print(format_table(rows, title="Ablation: ACK aggregation"))

    per_packet, every2, every4 = rows
    # Throughput survives aggregation...
    for row in rows:
        assert row["throughput_mbps"] > 0.85 * 10.0
        assert row["losses"] == 0
    # ...but delay control pays, increasingly with the batch size.
    assert every4["mean_delay_ms"] > per_packet["mean_delay_ms"]
    assert every4["mean_delay_ms"] >= every2["mean_delay_ms"] * 0.95
