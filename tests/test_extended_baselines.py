"""Tests for the extended §2 baselines: LEDBAT, Compound, Binomial, PCC."""

import numpy as np
import pytest

from repro.experiments import FlowSpec, make_endpoints
from repro.metrics import flow_stats
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator
from repro.pcc import PccReceiver, PccSender, allegro_utility
from repro.tcp import (
    BinomialSender,
    CompoundSender,
    CubicSender,
    LedbatSender,
    TcpReceiver,
)


def run_flow(sender, receiver, rate_bps=10e6, rtt=0.05, duration=40.0,
             queue_bytes=300_000, loss_rate=0.0, seed=0):
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps,
                queue=DropTailQueue(capacity_bytes=queue_bytes),
                loss_rate=loss_rate, rng=np.random.default_rng(seed))
    bell = Dumbbell(sim, link, default_rtt=rtt)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    return flow_stats(receiver.deliveries, start=duration / 2, end=duration)


class TestLedbat:
    def test_fills_link(self):
        stats = run_flow(LedbatSender(0), TcpReceiver(0))
        assert stats.throughput_bps > 0.8 * 10e6

    def test_holds_delay_near_target(self):
        """LEDBAT aims at 100 ms of queueing; it must neither bloat a big
        buffer nor sit at the floor."""
        stats = run_flow(LedbatSender(0), TcpReceiver(0),
                         queue_bytes=3_000_000, duration=60.0)
        # one-way: 25 ms floor + ~target of queueing (forward path)
        assert 0.05 < stats.mean_delay < 0.25

    def test_yields_to_cubic(self):
        """Background transport: LEDBAT backs off when Cubic floods."""
        sim = Simulator()
        from repro.netsim import Dumbbell
        link = Link(sim, rate_bps=10e6,
                    queue=DropTailQueue(capacity_bytes=500_000))
        bell = Dumbbell(sim, link, default_rtt=0.05)
        ledbat, l_rcv = LedbatSender(0), TcpReceiver(0)
        cubic, c_rcv = CubicSender(1), TcpReceiver(1)
        bell.add_flow(ledbat, l_rcv)
        bell.add_flow(cubic, c_rcv, start_at=10.0)
        # LEDBAT's decrement is ~GAIN packets per RTT, so yielding takes
        # tens of seconds; measure the late tail.
        bell.run(110.0)
        ledbat_tail = flow_stats(l_rcv.deliveries, start=80.0, end=110.0)
        cubic_tail = flow_stats(c_rcv.deliveries, start=80.0, end=110.0)
        assert cubic_tail.throughput_bps > 2.0 * ledbat_tail.throughput_bps

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LedbatSender(0, target=0.0)
        with pytest.raises(ValueError):
            LedbatSender(0, gain=0.0)

    def test_base_delay_tracks_minimum(self):
        sender, _ = LedbatSender(0), None
        run_flow(sender, TcpReceiver(0), duration=10.0)
        assert sender.base_delay() == pytest.approx(0.05, rel=0.1)


class TestCompound:
    def test_fills_link(self):
        stats = run_flow(CompoundSender(0), TcpReceiver(0))
        assert stats.throughput_bps > 0.8 * 10e6

    def test_delay_window_collapses_under_queueing(self):
        sender = CompoundSender(0)
        run_flow(sender, TcpReceiver(0), queue_bytes=2_000_000,
                 duration=40.0)
        # Standing queue forms → diff > gamma → dwnd near zero.
        assert sender.dwnd < sender.cwnd

    @pytest.mark.slow
    def test_faster_ramp_than_reno_on_big_pipe(self):
        """The scalable delay window accelerates on an empty 100 Mbps path."""
        from repro.tcp import NewRenoSender
        compound = run_flow(CompoundSender(0), TcpReceiver(0),
                            rate_bps=100e6, queue_bytes=2_000_000,
                            duration=20.0)
        reno = run_flow(NewRenoSender(0), TcpReceiver(0),
                        rate_bps=100e6, queue_bytes=2_000_000,
                        duration=20.0)
        assert compound.throughput_bps >= 0.9 * reno.throughput_bps

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CompoundSender(0, beta=1.0)
        with pytest.raises(ValueError):
            CompoundSender(0, k=1.5)


class TestBinomial:
    def test_sqrt_variant_fills_link(self):
        stats = run_flow(BinomialSender.sqrt(0), TcpReceiver(0))
        assert stats.throughput_bps > 0.7 * 10e6

    def test_aimd_variant_matches_reno_shape(self):
        sender = BinomialSender.aimd(0)
        assert sender.k == 0.0 and sender.l == 1.0
        stats = run_flow(sender, TcpReceiver(0))
        assert stats.throughput_bps > 0.7 * 10e6

    def test_iiad_variant(self):
        # IIAD's inverse increase recovers extremely slowly from a timeout
        # collapse; seed ssthresh below the buffer so slow start does not
        # overshoot into one within the test horizon.
        stats = run_flow(BinomialSender.iiad(0, initial_ssthresh=60),
                         TcpReceiver(0), duration=60.0)
        assert stats.throughput_bps > 0.5 * 10e6

    def test_gentler_backoff_than_aimd_under_random_loss(self):
        """SQRT reduces by β·√w — milder than halving — so it holds more
        throughput under stochastic (non-congestion) loss."""
        sqrt_stats = run_flow(BinomialSender.sqrt(0), TcpReceiver(0),
                              loss_rate=0.005, seed=2, duration=60.0)
        aimd_stats = run_flow(BinomialSender.aimd(0), TcpReceiver(0),
                              loss_rate=0.005, seed=2, duration=60.0)
        assert sqrt_stats.throughput_bps > aimd_stats.throughput_bps

    def test_tcp_friendliness_condition_enforced(self):
        with pytest.raises(ValueError):
            BinomialSender(0, k=0.2, l=0.2)   # k + l < 1


class TestPccUtility:
    def test_zero_loss_utility_positive(self):
        assert allegro_utility(5.0, 0.0) > 0

    def test_high_loss_utility_negative(self):
        assert allegro_utility(5.0, 0.5) < 0

    def test_knee_at_five_percent(self):
        below = allegro_utility(5.0, 0.03)
        above = allegro_utility(5.0, 0.08)
        assert below > 0 > above

    def test_monotone_in_throughput_at_fixed_low_loss(self):
        assert allegro_utility(10.0, 0.01) > allegro_utility(5.0, 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            allegro_utility(-1.0, 0.0)
        with pytest.raises(ValueError):
            allegro_utility(1.0, 1.5)


class TestPccSender:
    def test_converges_on_fixed_link(self):
        stats = run_flow(PccSender(0, rng=np.random.default_rng(0)),
                         PccReceiver(0), duration=60.0)
        assert stats.throughput_bps > 0.7 * 10e6

    def test_starting_phase_doubles(self):
        sender = PccSender(0, initial_rate_pps=50.0,
                           rng=np.random.default_rng(0))
        run_flow(sender, PccReceiver(0), duration=5.0)
        assert sender.rate_pps > 100.0

    def test_leaves_starting_state(self):
        sender = PccSender(0, rng=np.random.default_rng(0))
        run_flow(sender, PccReceiver(0), duration=30.0)
        assert sender.state in ("decision", "adjusting")
        assert sender.decisions > 0

    def test_adapts_down_after_rate_drop(self):
        sim = Simulator()
        link = Link(sim, rate_bps=10e6,
                    queue=DropTailQueue(capacity_bytes=200_000))
        sender = PccSender(0, rng=np.random.default_rng(0))
        receiver = PccReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.05)
        bell.add_flow(sender, receiver)
        sim.schedule_at(30.0, lambda: setattr(link, "rate_bps", 2e6))
        bell.run(90.0)
        tail = flow_stats(receiver.deliveries, start=70.0, end=90.0)
        assert tail.throughput_bps < 2.5e6
        assert tail.throughput_bps > 1e6

    def test_verus_dominates_pcc_on_delay_under_rapid_change(self):
        """The paper's §2 positioning: PCC optimises a loss-based utility
        on seconds-scale monitor intervals, so on a rapidly changing link
        it buys its throughput by standing deep in the buffer; Verus
        keeps comparable-order throughput at a small fraction of the
        delay."""
        from repro.experiments.micro import rapid_change_schedule
        from repro.experiments.runner import FlowSpec, run_variable_dumbbell

        results = {}
        for protocol in ("verus", "pcc"):
            schedule = rapid_change_schedule(90.0, 2e6, 20e6, seed=3)
            result = run_variable_dumbbell(
                schedule, [FlowSpec(protocol=protocol)], duration=90.0,
                queue_bytes=2_000_000, seed=3)
            results[protocol] = result.stats(0)
        verus, pcc = results["verus"], results["pcc"]
        assert verus.mean_delay < pcc.mean_delay / 4.0
        assert verus.throughput_bps > 0.5 * pcc.throughput_bps

    def test_validation(self):
        with pytest.raises(ValueError):
            PccSender(0, initial_rate_pps=0.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            PccSender(0, epsilon=0.9, rng=np.random.default_rng(0))


class TestRunnerIntegration:
    @pytest.mark.parametrize("protocol", ["pcc", "ledbat", "compound",
                                          "binomial"])
    def test_make_endpoints(self, protocol):
        sender, receiver = make_endpoints(FlowSpec(protocol=protocol), 5,
                                          np.random.SeedSequence(0))
        assert sender.flow_id == 5 and receiver.flow_id == 5
