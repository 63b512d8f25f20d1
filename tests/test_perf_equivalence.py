"""Byte-identical equivalence pins for the hot-path performance work.

The performance PR's contract is that every optimisation is
*behaviourally invisible*: same RNG draws, same float arithmetic, same
event ordering, therefore byte-identical results.  This module pins that
contract two ways:

1. A seed-pinned experiment matrix — {verus, sprout, cubic} senders over
   three synthetic cellular traces, each with and without an injected
   fault schedule — whose canonical-JSON ``ExperimentResult.summary()``
   payloads are committed under ``tests/golden/perf_equivalence/`` and
   compared **byte for byte** on every run.  Any change to the scheduler,
   packet freelist, trace-link replay schedule, interpolation caches or
   ACK hot path that perturbs behaviour shows up as a snapshot diff.
   One extra multi-flow cell pins the §5.2 loss path: ten Verus flows
   behind RED, whose drops open the gaps that arm reordering timers.

2. The ``repro check`` oracle — the audited scenarios' committed golden
   traces (window/set-point/delay timelines at zero tolerance-violation
   budget) must still compare clean, proving the optimised code produces
   the same control-law trajectories the goldens were blessed from.

Re-blessing (only after an *intentional* behaviour change)::

    REPRO_BLESS=1 PYTHONPATH=src python -m pytest tests/test_perf_equivalence.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cellular import generate_scenario_trace
from repro.check import (
    CHECK_PROTOCOLS,
    build_scenario,
    compare_golden,
    default_golden_dir,
    golden_path,
    load_golden,
    run_audited,
)
from repro.experiments import FlowSpec, repeat_flows, run_trace_contention
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.sim import run_faulted_contention

GOLDEN_DIR = Path(__file__).parent / "golden" / "perf_equivalence"
BLESS = os.environ.get("REPRO_BLESS") == "1"

PROTOCOLS = ("verus", "sprout", "cubic")
TRACES = ("city_stationary", "campus_pedestrian", "city_driving")
DURATION = 6.0
WARMUP = 1.0

#: Deterministic fault schedule for the faulted half of the matrix: a
#: short downlink blackout followed by a lossy burst, both well inside
#: the run so recovery is part of the pinned trajectory.
FAULTS = FaultSchedule([
    FaultEvent.outage(2.0, 0.4, direction="down"),
    FaultEvent.burst_loss(3.5, 0.6, rate=0.25),
])

#: The multi-flow gap-path cell: ten R=6 Verus flows behind the paper's
#: RED queue on the Fig 10 city_driving trace (same channel and simulation
#: seeds as the fig10 benchmark), so RED drops open sequence gaps, queued
#: retransmissions get their reordering timers re-armed, and RTOs fire.
GAP_CASE = "verus10-r6-city_driving-red"
GAP_DURATION = 8.0

MATRIX = [(protocol, trace, faulted)
          for protocol in PROTOCOLS
          for trace in TRACES
          for faulted in (False, True)]


def _case_id(protocol: str, trace: str, faulted: bool) -> str:
    return f"{protocol}-{trace}-{'faults' if faulted else 'clean'}"


def _run_case(protocol: str, trace_name: str, faulted: bool) -> dict:
    # Seeds are pinned per cell so every run of the matrix replays the
    # exact same trace, queue RNG and fault draws.
    seed = 100 + 7 * PROTOCOLS.index(protocol) + TRACES.index(trace_name)
    trace = generate_scenario_trace(trace_name, duration=DURATION,
                                    technology="3g", seed=seed)
    options = {"r": 2.0} if protocol == "verus" else {}
    specs = [FlowSpec(protocol=protocol, options=options)]
    if faulted:
        result = run_faulted_contention(trace, specs, FAULTS,
                                        duration=DURATION, warmup=WARMUP,
                                        seed=seed)
    else:
        result = run_trace_contention(trace, specs, duration=DURATION,
                                      warmup=WARMUP, seed=seed)
    return result.summary()


def _canonical(payload: dict) -> bytes:
    """Canonical JSON: sorted keys, no whitespace, trailing newline.
    Byte-stable because summary() emits only plain floats/ints/strings
    and Python's float repr is exact shortest round-trip."""
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("ascii")


def _run_gap_case() -> dict:
    trace = generate_scenario_trace("city_driving", duration=GAP_DURATION,
                                    technology="3g", mean_rate_bps=16e6,
                                    seed=4)
    specs = repeat_flows("verus", 10, r=6.0)
    result = run_trace_contention(trace, specs, duration=GAP_DURATION,
                                  warmup=WARMUP, seed=2)
    payload = result.summary()
    # The loss-recovery counters are pinned too: they are what the gap
    # path produces, and summary() carries only delivery statistics.
    payload["loss_recovery"] = [
        {"losses_detected": sender.losses_detected,
         "retransmissions": sender.retransmissions,
         "timeouts": sender.timeouts,
         "abandoned": sender.abandoned}
        for sender in result.senders]
    return payload


def _assert_matches_snapshot(case_id: str, payload: bytes) -> None:
    snapshot = GOLDEN_DIR / f"{case_id}.json"
    if BLESS:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        snapshot.write_bytes(payload)
        return
    assert snapshot.exists(), (
        f"missing snapshot {snapshot.name}; bless with REPRO_BLESS=1")
    committed = snapshot.read_bytes()
    assert payload == committed, (
        f"{snapshot.name}: summary() drifted from the committed snapshot "
        "— a supposedly behaviour-preserving change altered results. "
        "Diff the JSON, find the divergence, and only re-bless if the "
        "change is intentional.")


@pytest.mark.parametrize(
    "protocol,trace,faulted", MATRIX,
    ids=[_case_id(*case) for case in MATRIX])
def test_summary_matches_committed_snapshot(protocol, trace, faulted):
    _assert_matches_snapshot(_case_id(protocol, trace, faulted),
                             _canonical(_run_case(protocol, trace, faulted)))


def test_multiflow_gap_path_matches_committed_snapshot():
    payload = _run_gap_case()
    recovery = payload["loss_recovery"]
    # The cell exists to cover the gap path; make sure it still does.
    assert sum(row["losses_detected"] for row in recovery) > 0
    assert sum(row["retransmissions"] for row in recovery) > 0
    _assert_matches_snapshot(GAP_CASE, _canonical(payload))


def test_matrix_is_deterministic_within_process():
    """Two back-to-back runs of the same cell are byte-identical — the
    snapshot comparison above is meaningful only if the harness itself
    is deterministic."""
    first = _canonical(_run_case("verus", "city_stationary", True))
    second = _canonical(_run_case("verus", "city_stationary", True))
    assert first == second


@pytest.mark.parametrize("protocol", CHECK_PROTOCOLS)
def test_check_goldens_still_compare_clean(protocol):
    """The repro-check oracle: audited scenario timelines must match the
    committed golden traces with zero violations beyond the blessed
    tolerance bands (MAX_BAD_FRACTION is 0.0)."""
    scenario = build_scenario(protocol)
    run = run_audited(scenario)
    golden = load_golden(golden_path(default_golden_dir(), protocol))
    assert golden is not None
    assert compare_golden(golden, scenario, run.rows) == []
    assert run.report.monitors_violated() == []
