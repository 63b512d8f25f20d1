"""The paper's figures and tables, and the extensions, at full fidelity.

One benchmark per entry of the paper-item registry
(:mod:`repro.experiments.registry`): each runs its item once at the
``figure`` size, prints what ``repro run`` prints (run with ``-s`` to
see it), and asserts the item's shape checks at figure thresholds.
Select one item with ``"benchmarks/test_figures.py::test_figure[fig3]"``.

Fig 8 replays the committed ``corpora/fig8`` mini-corpus: a
content-addressed manifest of the macro scenario's traces (stationary
regime, 3G/LTE macro rates, the experiment's per-repetition seeds).
Trace files are regenerated from the manifest on demand and verified
against their recorded SHA-256, so every run — on any machine — replays
bit-identical channels.
"""

from pathlib import Path

import pytest

from repro.experiments.registry import ITEMS
from repro.traces import load_corpus

CORPUS_DIR = Path(__file__).parent / "corpora" / "fig8"


def fig8_corpus_traces() -> dict:
    corpus = load_corpus(CORPUS_DIR)
    corpus.materialize()   # regenerate any missing/stale trace files
    # fig8_realworld's per-repetition seed schedule: seed + 101 * rep.
    seeds = {rep: 42 + 101 * rep for rep in range(2)}
    return {"trace_provider": lambda technology, rep: corpus.load_seconds(
        f"stationary-{technology}-s{seeds[rep]}")}


@pytest.mark.parametrize("name", list(ITEMS))
def test_figure(run_once, name):
    item = ITEMS[name]
    overrides = fig8_corpus_traces() if name == "fig8" else {}
    result = run_once(item.run, "figure", **overrides)

    print()
    item.render(result)
    checks = item.check(result, "figure")
    print("shape checks:", checks)
    failed = [check for check, ok in checks.items() if not ok]
    assert not failed, f"{name}: shape checks failed: {failed}"
