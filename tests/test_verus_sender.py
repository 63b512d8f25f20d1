"""Integration tests for the full Verus sender on simulated paths."""

import numpy as np
import pytest

from repro.core import NORMAL, RECOVERY, SLOW_START, VerusConfig, VerusReceiver, VerusSender
from repro.metrics import flow_stats
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator, TraceLink


def run_verus(rate_bps=10e6, rtt=0.05, duration=20.0, queue_bytes=None,
              loss_rate=0.0, config=None, seed=0):
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps,
                queue=DropTailQueue(capacity_bytes=queue_bytes),
                loss_rate=loss_rate, rng=np.random.default_rng(seed))
    sender = VerusSender(0, config if config is not None else VerusConfig())
    receiver = VerusReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=rtt)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    return sender, receiver


class TestSlowStart:
    def test_starts_in_slow_start(self):
        sender = VerusSender(0)
        assert sender.mode == SLOW_START

    def test_exits_slow_start(self):
        sender, _ = run_verus(duration=10.0)
        assert sender.mode != SLOW_START
        assert sender.slow_start_exits in ("loss", "delay")

    def test_delay_exit_on_deep_buffer(self):
        """Unbounded buffer and no loss: the N × D_min condition fires."""
        sender, _ = run_verus(queue_bytes=None, duration=10.0)
        assert sender.slow_start_exits == "delay"
        assert sender.losses_detected == 0

    def test_loss_exit_on_shallow_buffer(self):
        """A 30 KB buffer at 10 Mbps overflows long before 15 × D_min."""
        sender, _ = run_verus(queue_bytes=30_000, duration=10.0)
        assert sender.slow_start_exits == "loss"

    def test_profile_built_at_exit(self):
        sender, _ = run_verus(duration=10.0)
        assert sender.profiler.ready
        assert len(sender.profiler) >= 2


class TestSteadyState:
    def test_high_utilization_on_fixed_link(self):
        sender, receiver = run_verus(duration=30.0)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.85 * 10e6

    def test_delay_settles_near_r_times_dmin(self):
        """R = 2 should hold steady-state RTT around 2 × propagation."""
        config = VerusConfig(r=2.0)
        sender, receiver = run_verus(duration=30.0, config=config)
        stats = flow_stats(receiver.deliveries, start=15.0, end=30.0)
        # one-way delay = prop/2 + queueing; with R=2 total RTT ≈ 100 ms,
        # so one-way stays well under 100 ms but above the 25 ms floor.
        assert 0.025 < stats.mean_delay < 0.1

    def test_higher_r_gives_higher_delay(self):
        _, rcv_lo = run_verus(duration=30.0, config=VerusConfig(r=2.0))
        _, rcv_hi = run_verus(duration=30.0, config=VerusConfig(r=6.0))
        lo = flow_stats(rcv_lo.deliveries, start=15.0, end=30.0)
        hi = flow_stats(rcv_hi.deliveries, start=15.0, end=30.0)
        assert hi.mean_delay > lo.mean_delay

    def test_no_losses_on_unbounded_buffer(self):
        sender, _ = run_verus(duration=30.0)
        assert sender.losses_detected == 0
        assert sender.timeouts == 0

    def test_epoch_diagnostics_recorded_when_enabled(self):
        config = VerusConfig(record_diagnostics=True)
        sender, _ = run_verus(duration=5.0, config=config)
        assert len(sender.diagnostics) > 500      # ~200 epochs/second
        row = sender.diagnostics[-1]
        assert row.mode in (SLOW_START, NORMAL, RECOVERY)
        assert row.window >= 0

    def test_diagnostics_off_by_default(self):
        sender, _ = run_verus(duration=5.0)
        assert sender.diagnostics == []


class TestLossHandling:
    def test_recovers_from_stochastic_loss(self):
        sender, receiver = run_verus(duration=30.0, loss_rate=0.005, seed=3)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert sender.losses_detected > 0
        assert stats.throughput_bps > 0.5 * 10e6

    def test_lost_packets_are_retransmitted_and_delivered(self):
        sender, receiver = run_verus(duration=30.0, loss_rate=0.01, seed=4)
        assert sender.retransmissions > 0
        # Delivered sequence set should have few holes (only abandoned ones).
        seqs = {s for (_, s, _, _) in receiver.deliveries}
        hi = max(seqs)
        missing = hi + 1 - len(seqs)
        assert missing <= sender.abandoned + len(sender._inflight) + 1

    def test_window_collapses_on_loss_episode(self):
        config = VerusConfig(record_diagnostics=True)
        sender, _ = run_verus(duration=20.0, queue_bytes=100_000,
                              config=config)
        windows = [row.window for row in sender.diagnostics]
        assert min(windows) < max(windows) / 2

    def test_survives_total_blackout(self):
        """A mid-run 3-second outage must not deadlock the sender."""
        sim = Simulator()
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue(),
                    rng=np.random.default_rng(0))
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.05)
        bell.add_flow(sender, receiver)
        sim.schedule_at(8.0, lambda: setattr(link, "loss_rate", 1.0 - 1e-12))
        sim.schedule_at(11.0, lambda: setattr(link, "loss_rate", 0.0))
        bell.run(25.0)
        tail = flow_stats(receiver.deliveries, start=15.0, end=25.0)
        assert tail.throughput_bps > 0.5 * 10e6
        assert sender.timeouts > 0


class TestTraceDriven:
    def test_tracks_bursty_cellular_link(self):
        from repro.cellular import generate_scenario_trace
        trace = generate_scenario_trace("campus_stationary", duration=30.0,
                                        technology="3g", seed=2)
        sim = Simulator()
        link = TraceLink(sim, trace, delay=0.01)
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.02)
        bell.add_flow(sender, receiver)
        bell.run(30.0)
        stats = flow_stats(receiver.deliveries, start=5.0, end=30.0)
        offered = link.average_rate_bps()
        assert stats.throughput_bps > 0.5 * offered
        assert stats.mean_delay < 0.5


class TestLifecycle:
    def test_stop_halts_transmission(self):
        sim = Simulator()
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
        sender = VerusSender(0)
        receiver = VerusReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.05)
        bell.add_flow(sender, receiver)
        sim.schedule_at(5.0, sender.stop)
        bell.run(10.0)
        sent_at_stop = sender.packets_sent
        sim.run(until=12.0)
        assert sender.packets_sent == sent_at_stop

    def test_deterministic_given_same_seed(self):
        a = run_verus(duration=10.0, loss_rate=0.01, seed=7)
        b = run_verus(duration=10.0, loss_rate=0.01, seed=7)
        assert a[1].bytes_received == b[1].bytes_received

    def test_unattached_sender_raises(self):
        sender = VerusSender(0)
        with pytest.raises(RuntimeError):
            sender.start()


class TestAckAggregation:
    """ACK-compression support (cellular uplinks batch ACK streams)."""

    def test_validation(self):
        with pytest.raises(ValueError):
            VerusReceiver(0, ack_every=0)
        with pytest.raises(ValueError):
            VerusReceiver(0, ack_delay=0.0)

    def test_aggregated_acks_carry_batches(self):
        sim = Simulator()
        acks = []
        receiver = VerusReceiver(0, ack_every=3)
        receiver.attach(sim, acks.append)
        from repro.netsim import Packet
        for seq in range(3):
            receiver.on_data(Packet(flow_id=0, seq=seq, sent_time=0.0))
        assert len(acks) == 1
        assert acks[0].payload["acked"] == [0, 1, 2]

    def test_partial_batch_flushed_by_timer(self):
        sim = Simulator()
        acks = []
        receiver = VerusReceiver(0, ack_every=4, ack_delay=0.01)
        receiver.attach(sim, acks.append)
        from repro.netsim import Packet
        receiver.on_data(Packet(flow_id=0, seq=0, sent_time=0.0))
        sim.run(until=0.05)
        assert len(acks) == 1
        assert acks[0].payload["acked"] == [0]

    def test_throughput_survives_aggregation(self):
        sim = Simulator()
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0, ack_every=2)
        bell = Dumbbell(sim, link, default_rtt=0.05)
        bell.add_flow(sender, receiver)
        bell.run(30.0)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.85 * 10e6
        assert sender.losses_detected == 0

    def test_aggregation_coarsens_delay_control(self):
        """Batched feedback degrades the delay signal: every-4 aggregation
        must cost delay relative to per-packet ACKs (the ablation's
        deployment insight)."""
        def run(every):
            sim = Simulator()
            link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
            sender = VerusSender(0, VerusConfig())
            receiver = VerusReceiver(0, ack_every=every)
            bell = Dumbbell(sim, link, default_rtt=0.05)
            bell.add_flow(sender, receiver)
            bell.run(30.0)
            return flow_stats(receiver.deliveries, start=10.0, end=30.0)
        per_packet = run(1)
        batched = run(4)
        assert batched.mean_delay > per_packet.mean_delay
