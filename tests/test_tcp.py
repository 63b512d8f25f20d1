"""Tests for the TCP baselines (NewReno, Cubic, Vegas)."""

import numpy as np
import pytest

from repro.metrics import flow_stats
from repro.netsim import DropTailQueue, Dumbbell, Link, Packet, Simulator
from repro.tcp import (
    DUPACK_THRESHOLD,
    CubicSender,
    NewRenoSender,
    TcpReceiver,
    TcpSender,
    VegasSender,
)


def run_tcp(cls, rate_bps=10e6, rtt=0.05, duration=20.0,
            queue_bytes=250_000, loss_rate=0.0, seed=0, **kwargs):
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps,
                queue=DropTailQueue(capacity_bytes=queue_bytes),
                loss_rate=loss_rate, rng=np.random.default_rng(seed))
    sender = cls(0, **kwargs)
    receiver = TcpReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=rtt)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    return sender, receiver


ALL_VARIANTS = [NewRenoSender, CubicSender, VegasSender]


class TestReceiver:
    def test_cumulative_ack_advances_in_order(self):
        sim = Simulator()
        acks = []
        receiver = TcpReceiver(0)
        receiver.attach(sim, acks.append)
        for seq in range(3):
            receiver.on_data(Packet(flow_id=0, seq=seq))
        assert [a.ack_seq for a in acks] == [1, 2, 3]

    def test_out_of_order_held_back(self):
        sim = Simulator()
        acks = []
        receiver = TcpReceiver(0)
        receiver.attach(sim, acks.append)
        receiver.on_data(Packet(flow_id=0, seq=0))
        receiver.on_data(Packet(flow_id=0, seq=2))   # hole at 1
        assert [a.ack_seq for a in acks] == [1, 1]   # duplicate ACK
        receiver.on_data(Packet(flow_id=0, seq=1))
        assert acks[-1].ack_seq == 3                 # hole filled

    def test_duplicate_data_not_recorded_twice(self):
        sim = Simulator()
        receiver = TcpReceiver(0)
        receiver.attach(sim, lambda a: None)
        receiver.on_data(Packet(flow_id=0, seq=0))
        receiver.on_data(Packet(flow_id=0, seq=0))
        assert receiver.packets_received == 1


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", ALL_VARIANTS)
    def test_fills_fixed_link(self, cls):
        _, receiver = run_tcp(cls, duration=30.0)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.8 * 10e6

    @pytest.mark.parametrize("cls", ALL_VARIANTS)
    def test_in_order_delivery_of_everything_sent(self, cls):
        _, receiver = run_tcp(cls, duration=10.0, loss_rate=0.01, seed=3)
        seqs = sorted(s for (_, s, _, _) in receiver.deliveries)
        # Cumulative progress: next_expected must cover the recorded seqs.
        assert receiver.next_expected >= max(seqs)

    @pytest.mark.parametrize("cls", ALL_VARIANTS)
    def test_recovers_from_stochastic_loss(self, cls):
        sender, receiver = run_tcp(cls, duration=30.0, loss_rate=0.002,
                                   seed=1)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 2e6
        assert sender.retransmissions > 0

    @pytest.mark.parametrize("cls", ALL_VARIANTS)
    def test_deterministic_with_seed(self, cls):
        a = run_tcp(cls, duration=10.0, loss_rate=0.01, seed=9)
        b = run_tcp(cls, duration=10.0, loss_rate=0.01, seed=9)
        assert a[1].bytes_received == b[1].bytes_received

    @pytest.mark.parametrize("cls,floor", [
        (NewRenoSender, 8), (CubicSender, 8),
        (VegasSender, 4),   # Vegas doubles only every other RTT
    ])
    def test_slow_start_grows_initially(self, cls, floor):
        sim = Simulator()
        link = Link(sim, rate_bps=100e6, queue=DropTailQueue())
        sender = cls(0)
        receiver = TcpReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.1)
        bell.add_flow(sender, receiver)
        bell.run(0.35)   # ~3 RTTs
        assert sender.cwnd >= floor


class TestNewReno:
    def test_loss_halves_window(self):
        sender = NewRenoSender(0)
        sender.cwnd = 100.0
        sender.snd_nxt = 100
        sender.snd_una = 0
        assert sender.ssthresh_on_loss() == pytest.approx(50.0)

    def test_loss_never_raises_window_above_half_cwnd(self):
        # Regression (found by soak triage): after an RTO collapse the
        # in-network backlog can dwarf cwnd, and plain FlightSize/2
        # would *raise* the window on the next fast retransmit.
        sender = NewRenoSender(0)
        sender.cwnd = 8.0
        sender.snd_nxt = 300
        sender.snd_una = 0
        assert sender.ssthresh_on_loss() == pytest.approx(4.0)

    def test_ca_additive_increase(self):
        sender = NewRenoSender(0)
        sender.cwnd = 10.0
        sender.ssthresh = 5.0
        sender.ca_increment(1)
        assert sender.cwnd == pytest.approx(10.1)

    def test_fast_retransmit_on_three_dupacks(self):
        sender, _ = run_tcp(NewRenoSender, duration=20.0,
                            queue_bytes=60_000)
        assert sender.fast_retransmits > 0

    def test_bufferbloat_on_deep_buffer(self):
        """Loss-based TCP fills a deep buffer: delay far above the floor."""
        _, receiver = run_tcp(NewRenoSender, duration=30.0,
                              queue_bytes=500_000)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.mean_delay > 0.1   # ≥ 2× the 50 ms RTT floor


class TestCubic:
    def test_beta_decrease(self):
        sender = CubicSender(0)
        sender.cwnd = 100.0
        assert sender.ssthresh_on_loss() == pytest.approx(70.0)

    def test_fast_convergence_deflates_wmax(self):
        sender = CubicSender(0, fast_convergence=True)
        sender.w_max = 100.0
        sender.cwnd = 80.0                    # loss before regaining w_max
        sender.on_loss_event()
        assert sender.w_max == pytest.approx(80.0 * 1.7 / 2.0)

    def test_no_fast_convergence_keeps_cwnd(self):
        sender = CubicSender(0, fast_convergence=False)
        sender.w_max = 100.0
        sender.cwnd = 80.0
        sender.on_loss_event()
        assert sender.w_max == 80.0

    def test_hystart_exits_slow_start_before_loss(self):
        sender, _ = run_tcp(CubicSender, duration=5.0, queue_bytes=2_000_000)
        # With HyStart the enormous buffer should not be filled by slow start.
        assert sender.timeouts == 0
        assert sender.ssthresh < 1e9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CubicSender(0, c=0.0)
        with pytest.raises(ValueError):
            CubicSender(0, beta=1.0)

    def test_cubic_growth_accelerates_away_from_wmax(self):
        """Past the plateau, cubic growth speeds up over time."""
        sender, _ = run_tcp(CubicSender, duration=40.0, queue_bytes=400_000)
        assert sender.fast_retransmits >= 1   # sawtooth formed


class TestVegas:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VegasSender(0, alpha=5.0, beta=4.0)

    def test_lower_standing_queue_than_cubic(self):
        """Vegas's base-RTT mis-estimation leaves a standing queue, but it
        still sits far below loss-driven Cubic's bufferbloat (the paper's
        Fig 8 shows Vegas delay below Cubic on the same channel)."""
        _, vegas_rcv = run_tcp(VegasSender, duration=60.0,
                               queue_bytes=2_000_000)
        _, cubic_rcv = run_tcp(CubicSender, duration=60.0,
                               queue_bytes=400_000)
        vegas = flow_stats(vegas_rcv.deliveries, start=40.0, end=60.0)
        cubic = flow_stats(cubic_rcv.deliveries, start=40.0, end=60.0)
        assert vegas.mean_delay < 0.3
        assert vegas.mean_delay < cubic.mean_delay * 1.5

    def test_base_rtt_tracks_minimum(self):
        sender, _ = run_tcp(VegasSender, duration=10.0)
        assert sender.base_rtt == pytest.approx(0.05, rel=0.1)

    def test_no_losses_on_deep_buffer(self):
        sender, _ = run_tcp(VegasSender, duration=30.0,
                            queue_bytes=2_000_000)
        assert sender.fast_retransmits == 0
        assert sender.timeouts == 0


class TestSackRecovery:
    def test_sack_repairs_burst_loss_quickly(self):
        """A burst of drops is repaired without an RTO."""
        sender, receiver = run_tcp(CubicSender, duration=20.0,
                                   queue_bytes=60_000)
        assert sender.timeouts <= 1

    def test_newreno_mode_still_works(self):
        sender, receiver = run_tcp(NewRenoSender, duration=30.0,
                                   queue_bytes=250_000, sack=False)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.6 * 10e6

    def test_rto_recovers_from_total_loss(self):
        sim = Simulator()
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue(),
                    rng=np.random.default_rng(0))
        sender = CubicSender(0)
        receiver = TcpReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.05)
        bell.add_flow(sender, receiver)
        sim.schedule_at(5.0, lambda: setattr(link, "loss_rate", 1.0 - 1e-12))
        sim.schedule_at(8.0, lambda: setattr(link, "loss_rate", 0.0))
        bell.run(20.0)
        stats = flow_stats(receiver.deliveries, start=12.0, end=20.0)
        assert sender.timeouts > 0
        assert stats.throughput_bps > 2e6

    def test_rto_armed_after_flight_emptying_ack_refills_window(self):
        """Regression: an ACK that empties the flight disarms the RTO,
        and the window refill inside the same on_ack used to leave the
        fresh burst with no timer — lose that burst and the sender
        deadlocked forever (surfaced by the chaos matrix's corruption
        windows)."""
        sim = Simulator()
        sent = []
        sender = CubicSender(0)
        sender.attach(sim, sent.append)
        sender.start()
        sim.run(until=0.1)
        assert sent

        last = max(p.seq for p in sent)
        ack = Packet(flow_id=0, seq=0, is_ack=True, ack_seq=last + 1,
                     echo_sent_time=sent[-1].sent_time)
        n_before = len(sent)
        sim.schedule_at(0.1, sender.on_ack, ack)
        sim.run(until=0.2)
        # The cumulative ACK cleared everything, then the refill put new
        # segments in the air — they must have a retransmission timer.
        assert len(sent) > n_before
        assert sender.flight() > 0
        assert sender._rto_event is not None and sender._rto_event.active
        # Lose the whole burst (deliver nothing): the RTO must fire.
        timeouts_before = sender.timeouts
        sim.run(until=60.0)
        assert sender.timeouts > timeouts_before
