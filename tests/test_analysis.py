"""Validation of the analytical fluid model against simulation."""

import numpy as np
import pytest

from repro.analysis import VerusFluidModel
from repro.core import VerusConfig, VerusReceiver, VerusSender
from repro.metrics import flow_stats
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator


def simulate(rate_bps, rtt, r, duration=40.0):
    # The fluid model describes the paper-literal lifetime D_min: on a
    # steady saturated link a *windowed* minimum slowly absorbs the
    # standing queue (documented deviation, see EXPERIMENTS.md), which
    # would add a drift term outside the first-order model.
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps, queue=DropTailQueue())
    sender = VerusSender(0, VerusConfig(r=r, dmin_window=None))
    receiver = VerusReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=rtt)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    return sender, flow_stats(receiver.deliveries, start=duration / 2,
                              end=duration)


class TestModelAlgebra:
    def test_equilibrium_scales_with_r(self):
        model2 = VerusFluidModel(r=2.0)
        model6 = VerusFluidModel(r=6.0)
        p2 = model2.predict_fixed_link(10e6, 0.05)
        p6 = model6.predict_fixed_link(10e6, 0.05)
        assert p6.equilibrium_rtt == pytest.approx(3 * p2.equilibrium_rtt)
        assert p6.standing_queue_packets == pytest.approx(
            5 * p2.standing_queue_packets)

    def test_queue_zero_at_r_one_limit(self):
        model = VerusFluidModel(r=1.0001)
        p = model.predict_fixed_link(10e6, 0.05)
        assert p.standing_queue_packets == pytest.approx(0.0, abs=0.1)

    def test_known_numbers(self):
        model = VerusFluidModel(r=2.0)
        p = model.predict_fixed_link(11.2e6, 0.05)   # 1000 pkts/s
        assert p.capacity_pps == pytest.approx(1000.0)
        assert p.equilibrium_rtt == pytest.approx(0.1)
        assert p.equilibrium_window == pytest.approx(100.0)
        assert p.standing_queue_packets == pytest.approx(50.0)

    def test_one_way_delay_composition(self):
        p = VerusFluidModel(r=2.0).predict_fixed_link(10e6, 0.05)
        assert p.one_way_delay() == pytest.approx(0.025 + 0.05)

    def test_required_r(self):
        model = VerusFluidModel()
        assert model.required_r_for_delay(0.05, 0.2) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            model.required_r_for_delay(0.05, 0.04)

    def test_drain_margin_grows_with_r(self):
        lo = VerusFluidModel(r=2.0).drain_margin(10e6, 0.05)
        hi = VerusFluidModel(r=6.0).drain_margin(10e6, 0.05)
        assert hi == pytest.approx(5 * lo)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VerusFluidModel(r=1.0)
        with pytest.raises(ValueError):
            VerusFluidModel().predict_fixed_link(0.0, 0.05)


class TestModelVsSimulation:
    """The model must predict the simulation within first-order accuracy."""

    @pytest.mark.parametrize("r", [2.0, 4.0])
    def test_one_way_delay_prediction(self, r):
        rate, rtt = 10e6, 0.05
        prediction = VerusFluidModel(r=r).predict_fixed_link(rate, rtt)
        _, stats = simulate(rate, rtt, r)
        predicted = prediction.one_way_delay()
        assert stats.mean_delay == pytest.approx(predicted, rel=0.5)

    def test_throughput_prediction(self):
        rate, rtt = 10e6, 0.05
        prediction = VerusFluidModel(r=2.0).predict_fixed_link(rate, rtt)
        _, stats = simulate(rate, rtt, 2.0)
        predicted_bps = prediction.throughput_pps * 1400 * 8
        assert stats.throughput_bps > 0.85 * predicted_bps

    def test_window_prediction(self):
        rate, rtt = 10e6, 0.05
        prediction = VerusFluidModel(r=2.0).predict_fixed_link(rate, rtt)
        sender, _ = simulate(rate, rtt, 2.0)
        assert sender.window == pytest.approx(
            prediction.equilibrium_window, rel=0.6)

    def test_delay_ordering_matches_model_across_r(self):
        """Model says delay is linear in R; simulation must be monotone
        and roughly proportional."""
        delays = {}
        for r in (2.0, 4.0, 6.0):
            _, stats = simulate(10e6, 0.05, r)
            delays[r] = stats.mean_delay
        assert delays[2.0] < delays[4.0] < delays[6.0]
        # One-way queueing delay scales ~(R-1): compare 6 vs 2.
        queueing_2 = delays[2.0] - 0.025
        queueing_6 = delays[6.0] - 0.025
        assert queueing_6 / queueing_2 == pytest.approx(5.0, rel=0.6)
