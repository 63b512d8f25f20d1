"""Every paper item's shape checks at its ``test`` size.

The items, their test-size runs and their thresholds live in
:mod:`repro.experiments.registry`; the full-fidelity ``figure`` size
runs in ``benchmarks/test_figures.py``.  Each item runs once per
session, is rendered as ``repro run`` would print it and is checked:
``test_item_holds_at_test_size`` asserts all of its checks, and the
named tests below read single checks of the same run.
"""

import functools
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.experiments import micro
from repro.experiments.registry import ITEMS

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: Items whose test-size run takes more than a few seconds.
SLOW = {"fig8", "fig10", "table1", "fig11", "fig12", "fig13", "fig14",
        "fig15"}


@functools.lru_cache(maxsize=None)
def run_item(name):
    """``(checks, rendered text)`` of the item's test-size run."""
    item = ITEMS[name]
    result = item.run("test")
    out = io.StringIO()
    with redirect_stdout(out):
        item.render(result)
    return item.check(result, "test"), out.getvalue()


def holds(name, *checks):
    found = run_item(name)[0]
    failed = [check for check in checks or found if not found[check]]
    assert not failed, f"{name}: {failed} failed ({found})"


EVERY_ITEM = [pytest.param(name, marks=pytest.mark.slow) if name in SLOW
              else name for name in ITEMS]


@pytest.mark.parametrize("name", EVERY_ITEM)
def test_item_holds_at_test_size(name):
    holds(name)


@pytest.mark.parametrize("name", EVERY_ITEM)
def test_item_renders(name):
    assert run_item(name)[1].strip()


def test_experiments_md_has_a_row_per_item():
    rows = [line for line in EXPERIMENTS_MD.read_text().splitlines()
            if line.startswith("|")]
    missing = [name for name, item in ITEMS.items()
               if not any(item.claim in row for row in rows)]
    assert not missing, f"no EXPERIMENTS.md row quotes the claim of {missing}"


class TestFig1:
    def test_burstiness_visible(self):
        holds("fig1", "burstiness_visible")


class TestFig2:
    def test_four_configurations(self):
        holds("fig2", "four_configurations")

    def test_lte_smaller_more_frequent_bursts(self):
        holds("fig2", "lte_smaller_more_frequent_bursts")

    def test_pdfs_nonempty(self):
        holds("fig2", "pdfs_nonempty")


class TestFig3:
    def test_contention_raises_delay(self):
        holds("fig3", "contention_raises_delay")

    def test_near_saturation_is_worst(self):
        holds("fig3", "near_saturation_is_worst")


class TestFig4:
    def test_smaller_windows_more_variable(self):
        holds("fig4", "smaller_windows_more_variable")

    def test_predictors_do_not_tame_the_channel(self):
        holds("fig4", "predictors_do_not_tame_the_channel")


class TestFig5And7:
    def test_profile_is_increasing_overall(self):
        holds("fig5", "profile_is_increasing_overall")

    def test_snapshots_accumulate(self):
        holds("fig7", "snapshots_accumulate")

    def test_profile_steepness_finite(self):
        holds("fig5", "profile_steepness_finite")


@pytest.mark.slow
class TestFig10:
    def test_scatter_has_all_protocols(self):
        holds("fig10", "scatter_has_all_protocols")

    def test_verus_r2_much_lower_delay_than_cubic(self):
        holds("fig10", "verus_r2_much_lower_delay_than_cubic")


@pytest.mark.slow
class TestTable1:
    def test_fairness_in_valid_range(self):
        holds("table1", "fairness_in_valid_range")

    def test_verus_reasonable_at_contention(self):
        holds("table1", "verus_reasonable_at_contention")


@pytest.mark.slow
class TestFig11:
    def test_scenario_ii_verus_at_least_sprout(self):
        holds("fig11", "scenario_ii_verus_at_least_sprout")

    def test_scenario_i_cap_hurts_sprout(self):
        holds("fig11", "scenario_i_cap_hurts_sprout")

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            micro.fig11_rapid_change("III")


@pytest.mark.slow
class TestFig15:
    def test_updating_profile_keeps_delay_low(self):
        holds("fig15", "updating_profile_keeps_delay_low",
              "delay_efficiency_holds")


class TestSensitivity:
    def test_epoch_sweep_shapes(self):
        holds("sensitivity", "epoch_sweep_shapes")

    def test_delta_sweep_runs(self):
        holds("sensitivity", "delta_sweep_runs")

    def test_update_interval_sweep_runs(self):
        holds("sensitivity", "update_interval_sweep_runs")
