"""Every random draw of a run descends from the run's seed.

Each runner is driven with ``numpy.random.default_rng`` wrapped, so every
Generator the run creates is recorded, and with the stochastic
components' constructors wrapped, so every Generator a component draws
from is known.  A run passes when

* each Generator comes from a ``SeedSequence`` whose entropy is the seed;
* no two Generators share a ``spawn_key`` (no two streams coincide);
* no two components hold the same Generator object;
* two PCC flows in one run shuffle from different streams.

Traces and link schedules are inputs: they are built before recording
starts, the way callers build them.  The experiment entry points that
synthesise their own inputs are checked apart: a Generator made while
synthesising a trace or schedule must not draw any stream a run draws.
"""

import numpy as np
import pytest

import repro.cellular
from repro.campaign import TaskSpec, run_simulation_task
from repro.cellular import generate_scenario_trace
from repro.check.scenarios import CheckScenario, build_scenario, run_audited
from repro.experiments.runner import (FlowSpec, repeat_flows,
                                      run_fixed_dumbbell,
                                      run_trace_contention,
                                      run_variable_dumbbell, seed_tree)
from repro.experiments import landscape, micro, short_flows
from repro.experiments.short_flows import measure_fct
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.netsim import Link, LinkSchedule, REDQueue, TraceLink
from repro.pcc import PccSender

SEED = 4242

#: Every class that draws random numbers inside a simulated run.
#: Subclasses (VariableLink) record through their base's constructor.
STOCHASTIC = (REDQueue, TraceLink, Link, FaultInjector, PccSender)


class SeedRecorder:
    def __init__(self, monkeypatch):
        self.generators = []
        self.components = {}
        self.inputs = set()
        self._monkeypatch = monkeypatch
        make = np.random.default_rng

        def recording_rng(*args, **kwargs):
            gen = make(*args, **kwargs)
            self.generators.append(gen)
            return gen

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        for cls in STOCHASTIC:
            monkeypatch.setattr(cls, "__init__", self._recording_init(cls))

    def _recording_init(self, cls):
        init = cls.__init__

        def recording_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.components[id(obj)] = obj
        return recording_init

    def record_inputs(self, module, name):
        """Mark the Generators ``module.name`` creates as input synthesis."""
        synthesise = getattr(module, name)

        def recording(*args, **kwargs):
            before = len(self.generators)
            made = synthesise(*args, **kwargs)
            self.inputs.update(id(gen) for gen in self.generators[before:])
            return made
        self._monkeypatch.setattr(module, name, recording)

    def assert_inputs_apart(self):
        def streams(inputs):
            return {(gen.bit_generator.seed_seq.entropy,
                     gen.bit_generator.seed_seq.spawn_key)
                    for gen in self.generators
                    if (id(gen) in self.inputs) == inputs}
        synthesis, runs = streams(True), streams(False)
        assert synthesis and runs
        assert not synthesis & runs, f"shared streams: {synthesis & runs}"

    def assert_one_tree(self, seed):
        assert self.generators, "the run created no Generator"
        seqs = [gen.bit_generator.seed_seq for gen in self.generators]
        assert [s.entropy for s in seqs] == [seed] * len(seqs)
        keys = [s.spawn_key for s in seqs]
        assert len(set(keys)) == len(keys), f"shared streams: {keys}"
        held = [c.rng for c in self.components.values()
                if c.rng is not None]
        assert len({id(rng) for rng in held}) == len(held), \
            "two components draw from one Generator"
        created = {id(gen) for gen in self.generators}
        assert all(id(rng) in created for rng in held)


@pytest.fixture
def recorder(monkeypatch):
    return SeedRecorder(monkeypatch)


@pytest.fixture(scope="module")
def trace():
    return generate_scenario_trace("city_stationary", duration=5.0,
                                   technology="3g", seed=3)


@pytest.fixture(scope="module")
def schedule():
    return LinkSchedule.random_walk(
        duration=2.0, period=0.5, rate_range_bps=(2e6, 8e6),
        delay_range=(0.01, 0.03), loss_range=(0.0, 0.02),
        rng=np.random.default_rng(1))


def _assert_pcc_streams_differ(result):
    keys = [s.rng.bit_generator.seed_seq.spawn_key for s in result.senders
            if isinstance(s, PccSender)]
    assert len(keys) == 2 and keys[0] != keys[1]


SPECS = [FlowSpec("verus"), *repeat_flows("pcc", 2)]


@pytest.mark.parametrize("loss_rate", [0.0, 0.01])
def test_trace_contention(recorder, trace, loss_rate):
    result = run_trace_contention(trace, SPECS, duration=2.0, warmup=0.0,
                                  loss_rate=loss_rate, seed=SEED)
    recorder.assert_one_tree(SEED)
    _assert_pcc_streams_differ(result)


def test_trace_contention_with_faults(recorder, trace):
    faults = FaultSchedule([FaultEvent.burst_loss(0.5, 1.0, rate=0.2),
                            FaultEvent.outage(1.0, 0.2, direction="up")])
    result = run_trace_contention(trace, SPECS, duration=2.0, warmup=0.0,
                                  loss_rate=0.01, seed=SEED, faults=faults)
    recorder.assert_one_tree(SEED)
    _assert_pcc_streams_differ(result)


def test_fixed_dumbbell(recorder):
    result = run_fixed_dumbbell(8e6, SPECS, duration=2.0, warmup=0.0,
                                loss_rate=0.01, seed=SEED)
    recorder.assert_one_tree(SEED)
    _assert_pcc_streams_differ(result)


def test_variable_dumbbell(recorder, schedule):
    result = run_variable_dumbbell(schedule, SPECS, duration=2.0,
                                   warmup=0.0, seed=SEED)
    recorder.assert_one_tree(SEED)
    _assert_pcc_streams_differ(result)


RUNNERS = {
    "trace": lambda trace, schedule: run_trace_contention(
        trace, SPECS, duration=2.0, warmup=0.0, loss_rate=0.01, seed=SEED),
    "fixed": lambda trace, schedule: run_fixed_dumbbell(
        8e6, SPECS, duration=2.0, warmup=0.0, loss_rate=0.01, seed=SEED),
    "variable": lambda trace, schedule: run_variable_dumbbell(
        schedule, SPECS, duration=2.0, warmup=0.0, seed=SEED),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runners_seed_through_seed_tree(recorder, trace, schedule, runner):
    """Every dumbbell runner hands its bottleneck and its flows the
    streams :func:`seed_tree` lays out for them."""
    result = RUNNERS[runner](trace, schedule)
    seeds = seed_tree(SEED, len(SPECS))
    links = [c for c in recorder.components.values()
             if isinstance(c, (Link, TraceLink))]
    assert [link.rng.bit_generator.seed_seq.spawn_key for link in links] \
        == [seeds.link.spawn_key]
    pcc = [(s.flow_id, s.rng.bit_generator.seed_seq.spawn_key)
           for s in result.senders if isinstance(s, PccSender)]
    assert pcc == [(i, seeds.flows[i].spawn_key) for i in (1, 2)]


@pytest.mark.parametrize("protocol", ["verus", "cubic"])
def test_measure_fct(recorder, trace, protocol):
    assert measure_fct(protocol, 50_000, trace, timeout=3.0,
                       seed=SEED) is not None
    recorder.assert_one_tree(SEED)


@pytest.mark.parametrize("scenario", [
    build_scenario("verus", duration=2.0, seed=SEED),
    CheckScenario(protocol="pcc", duration=2.0, seed=SEED),
    pytest.param(
        build_scenario("verus-trace", duration=2.0, seed=SEED),
        marks=pytest.mark.xfail(
            strict=True,
            reason="the pinned check trace is synthesised from "
                   "SeedSequence(seed) itself, the stream the link's loss "
                   "draws use; splitting them re-blesses the verus-trace "
                   "golden")),
], ids=["verus", "pcc", "verus-trace"])
def test_run_audited(recorder, scenario):
    run_audited(scenario)
    recorder.assert_one_tree(SEED)


@pytest.mark.parametrize("entry", [
    pytest.param(
        "landscape",
        marks=pytest.mark.xfail(
            strict=True,
            reason="run_landscape synthesises its cell from the run seed "
                   "itself, the stream RED draws; a derived trace seed "
                   "fails the landscape item's frontier check at test "
                   "size, so it is left for a deliberate re-bless")),
    "fig11", "shortflows"])
def test_synthesised_inputs_use_their_own_streams(recorder, entry):
    if entry == "landscape":
        recorder.record_inputs(landscape, "generate_scenario_trace")
        landscape.run_landscape(duration=2.0, flows=1, seed=SEED)
    elif entry == "fig11":
        recorder.record_inputs(micro, "rapid_change_schedule")
        micro.fig11_rapid_change("II", duration=4.0, seed=SEED)
    else:
        recorder.record_inputs(short_flows, "generate_scenario_trace")
        short_flows.fct_sweep(sizes=(50_000,), protocols=("verus",),
                              duration=3.0, repetitions=2, seed=SEED)
    recorder.assert_inputs_apart()


@pytest.mark.parametrize("fault", [None, "blackout"],
                         ids=["fault-free", "faulted"])
def test_worker_synthesises_its_cell_from_its_own_stream(recorder, fault):
    recorder.record_inputs(repro.cellular, "generate_scenario_trace")
    cell = TaskSpec(scenario="city_stationary", protocol="pcc", flows=2,
                    duration=2.0, seed=SEED, warmup=0.0, fault=fault)
    run_simulation_task(cell.to_dict())
    recorder.assert_inputs_apart()


def test_seed_tree_layout():
    tree = seed_tree(SEED, 2)
    assert tree.queue.spawn_key == ()
    assert [s.spawn_key for s in (tree.link, tree.down, tree.up)] == \
        [(0,), (1,), (2,)]
    assert [s.spawn_key for s in tree.flows] == [(3,), (4,)]
    assert {s.entropy for s in (tree.queue, tree.link, *tree.flows)} == {SEED}
