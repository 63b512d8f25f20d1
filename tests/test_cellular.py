"""Tests for the cellular channel model, scenarios, bursts, and trace I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular import (
    CellularChannelModel,
    ChannelParams,
    CompetingUser,
    SCENARIO_NAMES,
    detect_bursts,
    generate_scenario_trace,
    load_trace,
    log_pdf,
    mobile_variant,
    operator_presets,
    save_trace,
    scale_trace,
    scenario_params,
    trace_rate_bps,
    concatenate_traces,
)


class TestChannelParams:
    def test_defaults_valid(self):
        params = ChannelParams()
        assert params.mean_packets_per_tti > 0
        assert params.mean_burst_packets > 0

    def test_mean_burst_consistent_with_rate(self):
        params = ChannelParams(mean_rate_bps=11.2e6, serve_prob=0.5,
                               packet_bytes=1400)
        # 11.2 Mbps = 1000 packets/s = 1 packet/TTI; with p=0.5 the mean
        # burst must be 2 packets to average out.
        assert params.mean_packets_per_tti == pytest.approx(1.0)
        assert params.mean_burst_packets == pytest.approx(2.0)

    def test_invalid_technology(self):
        with pytest.raises(ValueError):
            ChannelParams(technology="5g")

    def test_invalid_serve_prob(self):
        with pytest.raises(ValueError):
            ChannelParams(serve_prob=0.0)

    def test_peak_below_mean_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(mean_rate_bps=100e6, peak_rate_bps=10e6)

    def test_with_rate(self):
        params = ChannelParams().with_rate(5e6)
        assert params.mean_rate_bps == 5e6


class TestGeneration:
    def test_trace_sorted_and_in_range(self):
        model = CellularChannelModel(ChannelParams(),
                                     rng=np.random.default_rng(0))
        trace = model.generate(10.0)
        assert np.all(np.diff(trace) >= 0)
        assert trace[0] >= 0 and trace[-1] <= 10.0

    def test_mean_rate_approximately_hit(self):
        params = ChannelParams(mean_rate_bps=10e6, fading_sigma=0.1,
                               fast_fading_sigma=0.05)
        model = CellularChannelModel(params, rng=np.random.default_rng(1))
        trace = model.generate(60.0)
        rate = trace_rate_bps(trace)
        assert 0.6 * 10e6 < rate < 1.4 * 10e6

    def test_deterministic_per_seed(self):
        def gen(seed):
            model = CellularChannelModel(ChannelParams(),
                                         rng=np.random.default_rng(seed))
            return model.generate(5.0)
        assert np.array_equal(gen(3), gen(3))
        assert not np.array_equal(gen(3), gen(4))

    def test_invalid_duration(self):
        model = CellularChannelModel(ChannelParams())
        with pytest.raises(ValueError):
            model.generate(0.0)

    def test_outages_create_long_gaps(self):
        base = ChannelParams(outage_rate=0.0)
        outage = ChannelParams(outage_rate=0.5, outage_duration=1.0)
        gap = lambda p, s: np.max(np.diff(CellularChannelModel(
            p, rng=np.random.default_rng(s)).generate(60.0)))
        assert gap(outage, 5) > gap(base, 5)

    def test_competing_user_reduces_rate(self):
        params = ChannelParams(mean_rate_bps=20e6)
        alone = CellularChannelModel(params, rng=np.random.default_rng(7))
        contended = CellularChannelModel(params, rng=np.random.default_rng(7))
        competitor = CompetingUser(rate_bps=10e6)
        free = alone.generate(30.0)
        busy = contended.generate(30.0, capacity_bps=20e6,
                                  competitors=[competitor])
        assert busy.size < free.size * 0.8

    def test_ou_path_bit_identical_to_numpy_scalar_loop(self):
        """``_ou_path`` steps on Python floats; it must reproduce the
        numpy-scalar loop below bit for bit and consume the same draws."""
        def reference(rng, n, theta, sigma):
            dt = 0.001
            x = np.empty(n)
            x[0] = rng.normal(0.0, sigma / math.sqrt(max(2 * theta, 1e-9)))
            sq = sigma * math.sqrt(dt)
            noise = rng.normal(0.0, 1.0, size=n - 1) if n > 1 else np.empty(0)
            for i in range(1, n):
                x[i] = x[i - 1] - theta * x[i - 1] * dt + sq * noise[i - 1]
            return x

        for n, theta, sigma, seed in ((1, 0.4, 0.25, 0), (2, 0.4, 0.25, 1),
                                      (5000, 0.4, 0.25, 2),
                                      (3000, 0.0, 0.6, 3),
                                      (3000, 2.5, 1.1, 4)):
            model = CellularChannelModel(ChannelParams(),
                                         rng=np.random.default_rng(seed))
            ref_rng = np.random.default_rng(seed)
            got = model._ou_path(n, theta, sigma)
            want = reference(ref_rng, n, theta, sigma)
            assert got.dtype == want.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))
            assert model.rng.random() == ref_rng.random()


class TestCompetingUser:
    def test_always_on_by_default(self):
        user = CompetingUser(rate_bps=1e6)
        assert user.demand_at(0.0) == 1e6
        assert user.demand_at(1e9) == 1e6

    def test_on_off_square_wave(self):
        user = CompetingUser.on_off(rate_bps=1e6, period=60.0,
                                    duration=240.0, start_on=False)
        assert user.demand_at(30.0) == 0.0     # first minute off
        assert user.demand_at(90.0) == 1e6     # second minute on
        assert user.demand_at(150.0) == 0.0
        assert user.demand_at(210.0) == 1e6

    def test_start_on_flips_phase(self):
        user = CompetingUser.on_off(rate_bps=1e6, period=60.0,
                                    duration=240.0, start_on=True)
        assert user.demand_at(30.0) == 1e6


class TestScenarios:
    def test_all_seven_paper_scenarios_exist(self):
        assert len(SCENARIO_NAMES) == 7
        for name in SCENARIO_NAMES:
            params = scenario_params(name)
            assert params.mean_rate_bps > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_params("underwater")

    def test_mobility_increases_fading(self):
        stationary = scenario_params("campus_stationary")
        highway = scenario_params("highway_driving")
        assert highway.fading_sigma > stationary.fading_sigma
        assert highway.outage_rate > stationary.outage_rate

    def test_lte_more_frequent_smaller_bursts_than_3g(self):
        """The Fig 2 observation, as a generated-trace property."""
        t3g = generate_scenario_trace("city_stationary", duration=60.0,
                                      technology="3g", mean_rate_bps=8e6,
                                      seed=0)
        lte = generate_scenario_trace("city_stationary", duration=60.0,
                                      technology="lte", mean_rate_bps=8e6,
                                      seed=0)
        bursts_3g = detect_bursts(t3g)
        bursts_lte = detect_bursts(lte)
        assert bursts_lte.count > bursts_3g.count
        assert (np.mean(bursts_lte.sizes_bytes)
                < np.mean(bursts_3g.sizes_bytes))

    def test_operator_presets_cover_fig2(self):
        presets = operator_presets()
        assert set(presets) == {"du_3g", "etisalat_3g", "du_lte",
                                "etisalat_lte"}

    def test_mobile_variant_changes_class(self):
        base = scenario_params("campus_stationary")
        driving = mobile_variant(base, "driving")
        assert driving.fading_sigma > base.fading_sigma
        with pytest.raises(ValueError):
            mobile_variant(base, "flying")

    def test_default_rates_match_paper(self):
        """§5.3: 5 Mbps downlink on 3G HSPA+, 2.5 Mbps uplink."""
        from repro.cellular import DEFAULT_RATE_BPS, UPLINK_RATE_BPS
        assert DEFAULT_RATE_BPS["3g"] == 5e6
        assert UPLINK_RATE_BPS["3g"] == 2.5e6


class TestBursts:
    def test_single_burst(self):
        times = np.array([0.0, 0.0001, 0.0002])
        stats = detect_bursts(times, gap_threshold=0.001)
        assert stats.count == 1
        assert stats.sizes_bytes[0] == 3 * 1400

    def test_gap_splits_bursts(self):
        times = np.array([0.0, 0.0001, 0.010, 0.0101])
        stats = detect_bursts(times, gap_threshold=0.001)
        assert stats.count == 2
        assert list(stats.sizes_bytes) == [2800.0, 2800.0]
        assert stats.inter_arrivals[0] == pytest.approx(0.010)

    def test_empty_trace(self):
        stats = detect_bursts(np.array([]))
        assert stats.count == 0
        assert stats.summary() == {"bursts": 0}

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            detect_bursts(np.array([0.1, 0.05]))

    def test_log_pdf_integrates_to_one(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(8, 1, size=5000)
        centers, density = log_pdf(values, bins=50)
        edges_width = np.diff(np.logspace(np.log10(values.min()),
                                          np.log10(values.max()), 51))
        assert np.sum(density * edges_width) == pytest.approx(1.0, rel=0.05)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=200))
    def test_property_burst_sizes_conserve_packets(self, raw):
        times = np.sort(np.asarray(raw))
        stats = detect_bursts(times, gap_threshold=0.005)
        assert stats.sizes_bytes.sum() == times.size * 1400


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = np.array([0.001, 0.005, 0.005, 0.020])
        path = tmp_path / "trace.txt"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert np.allclose(loaded, trace)

    def test_millisecond_quantisation(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(path, np.array([0.0014]))
        assert load_trace(path)[0] == pytest.approx(0.001)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n10\n\n20\n")
        assert np.allclose(load_trace(path), [0.010, 0.020])

    def test_bad_line_raises_with_location(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("10\nnope\n")
        with pytest.raises(ValueError, match="line 2"):
            load_trace(path)

    def test_unsorted_file_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("20\n10\n")
        with pytest.raises(ValueError, match="sorted"):
            load_trace(path)

    def test_concatenate_shifts_to_sequence(self):
        a = np.array([0.0, 1.0])
        b = np.array([5.0, 6.0])
        joined = concatenate_traces(a, b, gap_s=0.5)
        assert np.allclose(joined, [0.0, 1.0, 1.5, 2.5])

    def test_scale_trace(self):
        assert np.allclose(scale_trace(np.array([1.0, 2.0]), 0.5),
                           [0.5, 1.0])
        with pytest.raises(ValueError):
            scale_trace(np.array([1.0]), 0.0)


class TestUplink:
    def test_uplink_defaults_to_uplink_rate(self):
        params = scenario_params("campus_stationary", technology="3g",
                                 direction="uplink")
        assert params.mean_rate_bps == 2.5e6   # §5.3 uplink provisioning

    def test_uplink_sparser_grants(self):
        down = scenario_params("campus_stationary", direction="downlink")
        up = scenario_params("campus_stationary", direction="uplink")
        assert up.serve_prob < down.serve_prob

    def test_uplink_trace_generates(self):
        trace = generate_scenario_trace("city_driving", duration=20.0,
                                        direction="uplink", seed=2)
        assert trace.size > 100
        rate = trace_rate_bps(trace)
        assert 1e6 < rate < 4e6

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            scenario_params("campus_stationary", direction="sideways")
