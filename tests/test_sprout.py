"""Tests for the Sprout baseline (belief, forecaster, endpoints)."""

import numpy as np
import pytest

from repro.metrics import flow_stats
from repro.netsim import DropTailQueue, Dumbbell, Link, Simulator, TraceLink
from repro.sprout import (
    RateBelief,
    SproutForecaster,
    SproutReceiver,
    SproutSender,
    TICK_SECONDS,
)
from repro.sprout.forecast import poisson_tail, poisson_tail_table


class TestRateBelief:
    def test_starts_uniform(self):
        belief = RateBelief(bins=64)
        assert np.allclose(belief.prob, 1.0 / 64)

    def test_observation_concentrates_near_count(self):
        belief = RateBelief()
        for _ in range(50):
            belief.evolve()
            belief.observe(20)
        assert belief.mean() == pytest.approx(20.0, rel=0.25)

    def test_zero_observations_collapse_to_low_rate(self):
        belief = RateBelief()
        for _ in range(50):
            belief.evolve()
            belief.observe(0)
        assert belief.mean() < 1.0

    def test_censored_observation_only_raises_belief(self):
        belief = RateBelief()
        for _ in range(30):
            belief.evolve()
            belief.observe(10)
        mean_before = belief.mean()
        belief.observe(3, censored=True)   # "at least 3": no news downward
        assert belief.mean() >= mean_before * 0.8

    def test_censored_zero_is_noop(self):
        belief = RateBelief()
        prob_before = belief.prob.copy()
        belief.observe(0, censored=True)
        assert np.allclose(belief.prob, prob_before)

    def test_evolution_widens_distribution(self):
        belief = RateBelief()
        for _ in range(20):
            belief.evolve()
            belief.observe(10)
        q_lo_before = belief.quantile(0.05)
        for _ in range(20):
            belief.evolve()                # no observations
        assert belief.quantile(0.05) <= q_lo_before

    def test_quantiles_ordered(self):
        belief = RateBelief()
        belief.observe(15)
        assert (belief.quantile(0.05) <= belief.quantile(0.5)
                <= belief.quantile(0.95))

    def test_probabilities_normalised(self):
        belief = RateBelief()
        for k in (5, 0, 50, 2):
            belief.evolve()
            belief.observe(k)
            assert belief.prob.sum() == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RateBelief(min_rate=0.0)
        with pytest.raises(ValueError):
            RateBelief(bins=2)
        with pytest.raises(ValueError):
            RateBelief().observe(-1)
        with pytest.raises(ValueError):
            RateBelief().quantile(0.0)


class TestForecaster:
    def test_budget_grows_with_observed_rate(self):
        slow = SproutForecaster(rate_cap_bps=None)
        fast = SproutForecaster(rate_cap_bps=None)
        for _ in range(40):
            slow.on_tick(2)
            fast.on_tick(40)
        assert fast.cautious_budget() > slow.cautious_budget()

    def test_rate_cap_limits_budget(self):
        """The paper's §7: the Sprout implementation caps at 18 Mbps."""
        capped = SproutForecaster(rate_cap_bps=18e6)
        free = SproutForecaster(rate_cap_bps=None)
        for _ in range(60):
            capped.on_tick(200)   # 200 pkts / 20 ms = 112 Mbps offered
            free.on_tick(200)
        cap_packets = 18e6 * TICK_SECONDS / (8 * 1400) * 5  # 5-tick horizon
        assert capped.cautious_budget() <= cap_packets * 1.01
        assert free.cautious_budget() > capped.cautious_budget()

    def test_budget_is_cautious_below_mean(self):
        forecaster = SproutForecaster(rate_cap_bps=None)
        for _ in range(60):
            forecaster.on_tick(30)
        horizon = forecaster.target_delay / forecaster.tick
        mean_budget = forecaster.belief.mean() * horizon
        assert forecaster.cautious_budget() < mean_budget

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SproutForecaster(tick=0.0)


class TestForecastEdgeCases:
    """Degenerate inputs: empty history, all-zero ticks, belief resets."""

    def test_budget_with_empty_history_is_finite_and_positive(self):
        forecaster = SproutForecaster(rate_cap_bps=None)
        budget = forecaster.cautious_budget()
        assert forecaster.ticks_processed == 0
        assert np.isfinite(budget) and budget > 0

    def test_all_zero_ticks_collapse_budget_to_the_rate_floor(self):
        forecaster = SproutForecaster(rate_cap_bps=None)
        for _ in range(60):
            budget = forecaster.on_tick(0)
            assert np.isfinite(budget) and budget >= 0
        horizon = round(forecaster.target_delay / forecaster.tick)
        floor = forecaster.belief.rates[0]
        # Belief pinned at the bottom of the grid: the whole horizon's
        # budget is within a few bins of min_rate per tick.
        assert forecaster.cautious_budget() < 2.0 * floor * horizon
        assert forecaster.belief.quantile(0.05) < 2.0 * floor

    def test_zero_rate_cap_zeroes_the_budget(self):
        forecaster = SproutForecaster(rate_cap_bps=0.0)
        for _ in range(10):
            forecaster.on_tick(20)
        assert forecaster.cautious_budget() == 0.0

    def test_censored_zero_tick_still_advances_the_clock(self):
        forecaster = SproutForecaster(rate_cap_bps=None)
        before = forecaster.ticks_processed
        budget = forecaster.on_tick(0, censored=True)
        assert forecaster.ticks_processed == before + 1
        assert np.isfinite(budget)

    def test_observation_outside_support_resets_belief_flat(self):
        belief = RateBelief()
        for _ in range(50):
            belief.evolve()
            belief.observe(0)
        # "At least 5000" has ~zero likelihood everywhere on the grid;
        # rather than dividing by zero, the belief restarts uniform.
        belief.observe(5000, censored=True)
        assert np.allclose(belief.prob, 1.0 / belief.prob.size)
        assert belief.prob.sum() == pytest.approx(1.0)

    def test_horizon_never_below_one_tick(self):
        forecaster = SproutForecaster(tick=0.4, target_delay=0.1,
                                      rate_cap_bps=None)
        forecaster.on_tick(10)
        single = forecaster.cautious_budget()
        assert np.isfinite(single) and single > 0
        # One-tick horizon: budget bounded by the largest rate on the grid.
        assert single <= forecaster.belief.rates[-1]


def run_sprout(rate_bps=10e6, rtt=0.05, duration=30.0):
    sim = Simulator()
    link = Link(sim, rate_bps=rate_bps, queue=DropTailQueue())
    sender, receiver = SproutSender(0), SproutReceiver(0)
    bell = Dumbbell(sim, link, default_rtt=rtt)
    bell.add_flow(sender, receiver)
    bell.run(duration)
    return sender, receiver


class TestEndToEnd:
    def test_reasonable_utilization_on_fixed_link(self):
        _, receiver = run_sprout()
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.7 * 10e6

    def test_low_delay_signature(self):
        """Sprout's defining property: delay near the propagation floor."""
        _, receiver = run_sprout()
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.mean_delay < 0.06   # floor is 25 ms one-way

    def test_lower_delay_than_verus(self):
        from repro.core import VerusConfig, VerusReceiver, VerusSender
        _, sprout_rcv = run_sprout()
        sim = Simulator()
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
        verus_snd = VerusSender(0, VerusConfig())
        verus_rcv = VerusReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.05)
        bell.add_flow(verus_snd, verus_rcv)
        bell.run(30.0)
        sprout = flow_stats(sprout_rcv.deliveries, start=10.0, end=30.0)
        verus = flow_stats(verus_rcv.deliveries, start=10.0, end=30.0)
        assert sprout.mean_delay < verus.mean_delay

    def test_cap_hurts_on_fast_link(self):
        """Fig 11a's mechanism: on a 100 Mbps link the 18 Mbps cap binds."""
        sim = Simulator()
        link = Link(sim, rate_bps=100e6, queue=DropTailQueue())
        sender = SproutSender(0)
        receiver = SproutReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.02)
        bell.add_flow(sender, receiver)
        bell.run(30.0)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps < 25e6

    def test_adapts_to_rate_drop(self):
        sim = Simulator()
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue())
        sender, receiver = SproutSender(0), SproutReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.05)
        bell.add_flow(sender, receiver)
        sim.schedule_at(15.0, lambda: setattr(link, "rate_bps", 1e6))
        bell.run(30.0)
        tail = flow_stats(receiver.deliveries, start=20.0, end=30.0)
        assert tail.throughput_bps < 1.5e6
        assert tail.mean_delay < 0.5

    def test_works_on_cellular_trace(self):
        from repro.cellular import generate_scenario_trace
        trace = generate_scenario_trace("campus_stationary", duration=30.0,
                                        technology="3g", seed=5)
        sim = Simulator()
        link = TraceLink(sim, trace, delay=0.01)
        sender, receiver = SproutSender(0), SproutReceiver(0)
        bell = Dumbbell(sim, link, default_rtt=0.02)
        bell.add_flow(sender, receiver)
        bell.run(30.0)
        stats = flow_stats(receiver.deliveries, start=10.0, end=30.0)
        assert stats.throughput_bps > 0.3 * link.average_rate_bps()
        assert stats.mean_delay < 0.3


class TestBeliefProperties:
    """Property tests on the Bayesian rate belief."""

    def test_probabilities_stay_normalised_under_random_ops(self):
        import numpy as np
        from hypothesis import given, settings
        rng = np.random.default_rng(0)
        belief = RateBelief()
        for _ in range(300):
            belief.evolve()
            belief.observe(int(rng.integers(0, 60)),
                           censored=bool(rng.random() < 0.5))
            assert abs(belief.prob.sum() - 1.0) < 1e-9
            assert np.all(belief.prob >= 0)

    def test_mean_between_min_and_max_rate(self):
        belief = RateBelief(min_rate=0.1, max_rate=100.0)
        for k in (0, 5, 200, 1):
            belief.evolve()
            belief.observe(k)
            assert 0.1 <= belief.mean() <= 100.0

    def test_censored_never_lowers_quantile_much(self):
        """A censored (lower-bound) observation must not pull the belief
        down: the 50th percentile may only move up or stay."""
        belief = RateBelief()
        for _ in range(30):
            belief.evolve()
            belief.observe(10)
        median_before = belief.quantile(0.5)
        belief.observe(25, censored=True)
        assert belief.quantile(0.5) >= median_before * 0.99


# ----------------------------------------------------------------------
# Bit-identical equivalence against the pre-vectorization forecaster
# ----------------------------------------------------------------------
class _ReferenceForecaster:
    """The forecaster exactly as written before the batched-horizon
    rewrite: per-step ``np.convolve`` + ``np.cumsum`` + ``searchsorted``,
    no likelihood caches, no horizon buffers.  Kept verbatim so any
    float-level drift in the optimised path fails ``==`` below; only its
    censored likelihood calls the shipped :func:`poisson_tail`, which
    :class:`TestPoissonTail` checks on its own."""

    def __init__(self, min_rate=0.05, max_rate=300.0, bins=192,
                 evolve_sigma=0.18, tick=TICK_SECONDS, target_delay=0.100,
                 quantile=0.05, rate_cap_bps=None, packet_bytes=1400):
        import math
        self.log_rates = np.linspace(math.log(min_rate),
                                     math.log(max_rate), bins)
        self.rates = np.exp(self.log_rates)
        self.prob = np.full(bins, 1.0 / bins)
        step = self.log_rates[1] - self.log_rates[0]
        half_width = max(1, int(math.ceil(3 * evolve_sigma / step)))
        offsets = np.arange(-half_width, half_width + 1)
        kernel = np.exp(-0.5 * (offsets * step / evolve_sigma) ** 2)
        self._kernel = kernel / kernel.sum()
        self.tick = tick
        self.target_delay = target_delay
        self.quantile = quantile
        self.rate_cap_bps = rate_cap_bps
        self.packet_bytes = packet_bytes

    def evolve(self):
        self.prob = np.convolve(self.prob, self._kernel, mode="same")
        total = self.prob.sum()
        if total <= 0:
            self.prob = np.full_like(self.prob, 1.0 / self.prob.size)
        else:
            self.prob /= total

    def observe(self, packets, censored=False):
        import math
        if censored:
            if packets == 0:
                return
            likelihood = poisson_tail(packets, self.rates)
        else:
            log_lik = (packets * self.log_rates - self.rates
                       - math.lgamma(packets + 1))
            log_lik -= log_lik.max()
            likelihood = np.exp(log_lik)
        posterior = self.prob * likelihood
        total = posterior.sum()
        if total <= 0:
            self.prob = np.full_like(self.prob, 1.0 / self.prob.size)
        else:
            self.prob = posterior / total

    def _apply_cap(self, rate):
        if self.rate_cap_bps is None:
            return rate
        cap = self.rate_cap_bps * self.tick / (8.0 * self.packet_bytes)
        return min(rate, cap)

    def on_tick(self, packets, censored=False):
        self.evolve()
        self.observe(packets, censored=censored)
        return self.cautious_budget()

    def cautious_budget(self):
        horizon_ticks = max(1, int(round(self.target_delay / self.tick)))
        budget = 0.0
        look = self.prob.copy()
        kernel = self._kernel
        rates = self.rates
        for _ in range(horizon_ticks):
            look = np.convolve(look, kernel, mode="same")
            s = look.sum()
            if s > 0:
                look /= s
            cdf = np.cumsum(look)
            idx = int(np.searchsorted(cdf, self.quantile))
            rate = float(rates[min(idx, rates.size - 1)])
            budget += self._apply_cap(rate)
        return budget


class TestForecasterEquivalence:
    """The vectorized forecaster must be *bit-identical* to the original
    per-step implementation — its budgets feed the perf-equivalence
    goldens, so == (not allclose) is the contract."""

    @pytest.mark.parametrize("rate_cap_bps", [None, 18e6])
    def test_seeded_stream_budgets_bit_identical(self, rate_cap_bps):
        new = SproutForecaster(rate_cap_bps=rate_cap_bps)
        ref = _ReferenceForecaster(rate_cap_bps=rate_cap_bps)
        # Same grid construction, so same support arrays to the bit.
        assert np.array_equal(new.belief.rates, ref.rates)
        assert np.array_equal(new.belief._kernel, ref._kernel)
        rng = np.random.default_rng(0)
        for _ in range(300):
            packets = int(rng.integers(0, 41))
            censored = bool(rng.random() < 0.3)
            got = new.on_tick(packets, censored=censored)
            want = ref.on_tick(packets, censored=censored)
            assert got == want
            assert np.array_equal(new.belief.prob, ref.prob)

    def test_interleaved_belief_ops_keep_equivalence(self):
        """Extra evolve/observe calls between budgets exercise the
        evolve-memo revision guard: a memo seeded by one budget must not
        be served after the belief has moved on."""
        new = SproutForecaster(rate_cap_bps=18e6)
        ref = _ReferenceForecaster(rate_cap_bps=18e6)
        rng = np.random.default_rng(7)
        for step in range(150):
            packets = int(rng.integers(0, 41))
            assert new.on_tick(packets) == ref.on_tick(packets)
            if step % 3 == 0:
                # Double observation without an intervening evolve.
                new.belief.observe(packets + 1)
                ref.observe(packets + 1)
            if step % 7 == 0:
                new.belief.evolve()
                ref.evolve()
            assert np.array_equal(new.belief.prob, ref.prob)

    def test_flat_reset_path_matches(self):
        """An observation far outside the belief's support zeroes the
        posterior; both implementations must take the same flat-reset
        branch (the beyond-table tail must underflow to a zero row)."""
        new = SproutForecaster()
        ref = _ReferenceForecaster()
        for _ in range(40):
            assert new.on_tick(2) == ref.on_tick(2)
        # P(Poisson(lambda) >= 5000) underflows to 0 across the grid.
        assert new.on_tick(5000, censored=True) == \
            ref.on_tick(5000, censored=True)
        assert np.array_equal(new.belief.prob, ref.prob)
        # Recovery from the reset stays locked as well (cache reuse).
        for _ in range(20):
            assert new.on_tick(2) == ref.on_tick(2)
        assert np.array_equal(new.belief.prob, ref.prob)

    def test_repeated_counts_hit_likelihood_cache(self):
        """Same packet count twice must reuse the cached likelihood row
        and still produce identical posteriors (cached row unmutated)."""
        new = SproutForecaster()
        ref = _ReferenceForecaster()
        for packets in [9, 9, 9, 4, 9, 4, 4]:
            assert new.on_tick(packets) == ref.on_tick(packets)
        assert 9 in new.belief._lik_cache and 4 in new.belief._lik_cache
        for packets in [6, 6, 6]:
            assert new.on_tick(packets, censored=True) == \
                ref.on_tick(packets, censored=True)
        # Censored ticks read the grid's one shared table: another belief
        # on the same grid picks up the very same array.
        assert new.belief._tails is poisson_tail_table(new.belief.rates)
        other = RateBelief()
        other.observe(6, censored=True)
        assert other._tails is new.belief._tails
        assert np.array_equal(new.belief.prob, ref.prob)


# ----------------------------------------------------------------------
# The censored-tick likelihood P(Poisson(λ) >= k)
# ----------------------------------------------------------------------
class TestPoissonTail:
    """The numpy-only Poisson upper tail behind censored observations."""

    rates = RateBelief().rates

    def test_closed_forms_for_k_one_and_two(self):
        lam = self.rates
        one = -np.expm1(-lam)
        two = one - lam * np.exp(-lam)
        np.testing.assert_allclose(poisson_tail(1, lam), one, rtol=1e-13,
                                   atol=0)
        np.testing.assert_allclose(poisson_tail(2, lam), two, rtol=1e-13,
                                   atol=0)
        assert np.all(poisson_tail(0, lam) == 1.0)

    def test_matches_scipy_gammainc(self):
        special = pytest.importorskip("scipy.special")
        served = poisson_tail_table(self.rates).shape[0]
        for k in [*range(1, 501), served, served + 1, 600, 1000]:
            want = special.gammainc(k, self.rates)
            got = poisson_tail(k, self.rates)
            normal = want > 1e-290
            np.testing.assert_allclose(got[normal], want[normal],
                                       rtol=1e-11, atol=0, err_msg=f"k={k}")
            assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-290)

    def test_counts_past_the_table_stay_a_tail(self):
        served = poisson_tail_table(self.rates).shape[0]
        ks = list(range(served - 3, served + 60)) + [1000, 5000]
        rows = np.array([poisson_tail(k, self.rates) for k in ks])
        assert np.all(np.isfinite(rows))
        assert np.all((rows >= 0) & (rows <= 1))
        assert np.all(np.diff(rows, axis=0) <= 0)
        # Far past every rate on the grid the tail underflows to zero.
        assert np.all(rows[-1] == 0)

    def test_table_is_shared_and_read_only(self):
        table = poisson_tail_table(self.rates)
        assert poisson_tail_table(RateBelief().rates) is table
        assert poisson_tail_table(RateBelief(bins=64).rates) is not table
        # Rows cover λ_max + 12·sqrt(λ_max) and start at P(X >= 0) = 1.
        lam_max = self.rates[-1]
        assert table.shape[0] > lam_max + 12 * np.sqrt(lam_max)
        assert np.all(table[0] == 1.0)
        with pytest.raises(ValueError):
            table[1, 0] = 0.5
        with pytest.raises(ValueError):
            poisson_tail(-1, self.rates)

    def test_rates_beyond_exp_range_do_not_collapse(self):
        """exp(-λ) underflows past λ ≈ 745, yet the mode-anchored table
        keeps a proper distribution: the tail halves near the mean."""
        belief = RateBelief(min_rate=1.0, max_rate=5000.0, bins=16)
        table = poisson_tail_table(belief.rates)
        lam = belief.rates[-1]
        assert table[int(lam)][-1] == pytest.approx(0.5, abs=0.02)
        assert np.all(np.isfinite(table))
