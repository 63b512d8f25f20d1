"""Tests for finite-transfer (short flow) support."""

import numpy as np
import pytest

from repro.core import VerusConfig, VerusReceiver, VerusSender
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator
from repro.tcp import CubicSender, NewRenoSender, TcpReceiver


def run_finite(sender_factory, receiver_factory, rate_bps=10e6, rtt=0.05,
               duration=60.0, loss_rate=0.0, seed=0):
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps, queue=DropTailQueue(),
                loss_rate=loss_rate, rng=np.random.default_rng(seed))
    sender = sender_factory()
    receiver = receiver_factory()
    bell = Dumbbell(sim, link, default_rtt=rtt)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    return sender, receiver


class TestVerusFiniteTransfer:
    def test_completes_and_stops(self):
        sender, receiver = run_finite(
            lambda: VerusSender(0, transfer_bytes=500_000),
            lambda: VerusReceiver(0))
        assert sender.completion_time is not None
        assert not sender.running
        # ceil(500000/1400) = 358 packets
        assert receiver.packets_received >= 358

    def test_completion_time_scales_with_size(self):
        def fct(size):
            sender, _ = run_finite(
                lambda: VerusSender(0, transfer_bytes=size),
                lambda: VerusReceiver(0))
            return sender.completion_time
        assert fct(2_000_000) > fct(100_000)

    def test_no_spurious_packets_after_completion(self):
        sender, _ = run_finite(
            lambda: VerusSender(0, transfer_bytes=100_000),
            lambda: VerusReceiver(0), duration=30.0)
        assert sender._next_seq == sender.transfer_packets

    def test_tiny_transfer_fits_in_slow_start(self):
        """§7: 'a short flow that does not progress beyond slow start'."""
        sender, _ = run_finite(
            lambda: VerusSender(0, transfer_bytes=14_000),  # 10 packets
            lambda: VerusReceiver(0), duration=10.0)
        assert sender.completion_time is not None
        assert sender.completion_time < 1.0
        assert sender.mode == "slow_start" or sender.slow_start_exits is None

    def test_completes_despite_losses(self):
        sender, receiver = run_finite(
            lambda: VerusSender(0, transfer_bytes=300_000),
            lambda: VerusReceiver(0), loss_rate=0.02, seed=5)
        assert sender.completion_time is not None

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            VerusSender(0, transfer_bytes=0)

    def test_infinite_by_default(self):
        sender, _ = run_finite(lambda: VerusSender(0),
                               lambda: VerusReceiver(0), duration=10.0)
        assert sender.completion_time is None
        assert sender.running


class TestTcpFiniteTransfer:
    @pytest.mark.parametrize("cls", [CubicSender, NewRenoSender])
    def test_completes_and_stops(self, cls):
        sender, receiver = run_finite(
            lambda: cls(0, transfer_bytes=500_000),
            lambda: TcpReceiver(0))
        assert sender.completion_time is not None
        assert not sender.running
        assert receiver.next_expected >= sender.transfer_packets

    def test_completes_despite_losses(self):
        sender, _ = run_finite(
            lambda: CubicSender(0, transfer_bytes=300_000),
            lambda: TcpReceiver(0), loss_rate=0.02, seed=6)
        assert sender.completion_time is not None

    def test_does_not_send_past_transfer(self):
        sender, _ = run_finite(
            lambda: NewRenoSender(0, transfer_bytes=140_000),
            lambda: TcpReceiver(0), duration=30.0)
        assert sender.snd_nxt <= sender.transfer_packets

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            CubicSender(0, transfer_bytes=-5)


class TestFctComparison:
    def test_verus_competitive_on_fixed_link(self):
        def fct(factory, receiver):
            sender, _ = run_finite(factory, receiver)
            return sender.completion_time
        verus = fct(lambda: VerusSender(0, transfer_bytes=1_000_000),
                    lambda: VerusReceiver(0))
        cubic = fct(lambda: CubicSender(0, transfer_bytes=1_000_000),
                    lambda: TcpReceiver(0))
        assert verus is not None and cubic is not None
        assert verus < 3.0 * cubic
