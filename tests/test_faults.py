"""Tests for the fault-injection subsystem and the chaos acceptance matrix.

Covers the declarative spec (events, schedules, presets), the backend
compiler (:class:`FaultInjector` over the discrete-event simulator), the
recovery metric, the fault-injected contention runner, and the chaos
matrix plumbing through the campaign executor.  The live-backend
acceptance test at the bottom drives one schedule through the UDP
loopback emulator and checks the zero-silent-drop accounting.
"""

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.campaign import (
    TaskSpec,
    expand_grid,
    run_campaign,
    run_simulation_task,
)
from repro.experiments.runner import FlowSpec, run_trace_contention
from repro.faults import (
    FAULT_PRESETS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    chaos_warmup,
    disruption_window,
    make_schedule,
    recovery_rows,
)
from repro.metrics import recovery_stats
from repro.netsim import Packet, Simulator


def _udp_available() -> bool:
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind(("127.0.0.1", 0))
        s.close()
        return True
    except OSError:
        return False


needs_udp = pytest.mark.skipif(
    not _udp_available(),
    reason="no localhost UDP sockets available in this sandbox")


# ----------------------------------------------------------------------
# Declarative spec
# ----------------------------------------------------------------------

class TestFaultEvent:
    def test_constructors_set_kind(self):
        assert FaultEvent.outage(1.0, 2.0).kind == "outage"
        assert FaultEvent.burst_loss(1.0, 2.0, 0.3).rate == 0.3
        assert FaultEvent.corruption(1.0, 2.0, 0.2).kind == "corruption"
        assert FaultEvent.duplication(1.0, 2.0, 0.1).kind == "duplication"
        assert FaultEvent.reorder_storm(1.0, 2.0, 0.03).jitter == 0.03
        flap = FaultEvent.link_flap(1.0, 4.0, period=1.0, on_fraction=0.75)
        assert flap.kind == "flap" and flap.on_fraction == 0.75
        assert FaultEvent.clock_jump(3.0, 0.05).offset == 0.05

    def test_validation_rejects_bad_events(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", 0.0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent.outage(-1.0, 2.0)
        with pytest.raises(ValueError):
            FaultEvent("outage", 0.0, 0.0)          # zero duration
        with pytest.raises(ValueError):
            FaultEvent.burst_loss(0.0, 1.0, 0.0)    # rate out of (0, 1]
        with pytest.raises(ValueError):
            FaultEvent.burst_loss(0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            FaultEvent.reorder_storm(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            FaultEvent.link_flap(0.0, 1.0, period=2.0)   # period > duration
        with pytest.raises(ValueError):
            FaultEvent.link_flap(0.0, 2.0, period=1.0, on_fraction=1.0)
        with pytest.raises(ValueError):
            FaultEvent.clock_jump(1.0, 0.0)
        with pytest.raises(ValueError):
            FaultEvent("outage", 0.0, 1.0, direction="sideways")

    def test_round_trip(self):
        events = [
            FaultEvent.outage(1.0, 2.0, "up"),
            FaultEvent.burst_loss(0.5, 1.0, 0.25),
            FaultEvent.reorder_storm(2.0, 1.0, 0.01),
            FaultEvent.link_flap(3.0, 2.0, period=0.5, on_fraction=0.6),
            FaultEvent.clock_jump(4.0, -0.02),
        ]
        for event in events:
            assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultSchedule:
    def test_events_sorted_and_round_trip(self):
        sched = FaultSchedule([FaultEvent.outage(5.0, 1.0),
                               FaultEvent.corruption(1.0, 2.0, 0.2)])
        assert [e.start for e in sched] == [1.0, 5.0]
        assert FaultSchedule.from_dict(sched.to_dict()) == sched
        assert len(FaultSchedule()) == 0

    def test_outage_windows_respect_direction(self):
        sched = FaultSchedule([FaultEvent.outage(1.0, 1.0, "down"),
                               FaultEvent.outage(4.0, 1.0, "up"),
                               FaultEvent.outage(7.0, 1.0, "both")])
        assert sched.outage_windows("down") == [(1.0, 2.0), (7.0, 8.0)]
        assert sched.outage_windows("up") == [(4.0, 5.0), (7.0, 8.0)]
        assert sched.last_outage_end("down") == 8.0
        assert FaultSchedule().last_outage_end("down") is None

    def test_flap_expands_into_dark_windows(self):
        # 4 s flap, 1 s period, up for the first 50% of each cycle.
        sched = FaultSchedule([FaultEvent.link_flap(10.0, 4.0, period=1.0,
                                                    on_fraction=0.5)])
        windows = sched.outage_windows("down")
        assert windows == [(10.5, 11.0), (11.5, 12.0),
                           (12.5, 13.0), (13.5, 14.0)]
        # Every window is well-formed even when the episode cuts a cycle.
        ragged = FaultSchedule([FaultEvent.link_flap(0.0, 2.5, period=1.0,
                                                     on_fraction=0.5)])
        assert all(start < end for start, end in
                   ragged.outage_windows("down"))

    def test_clock_jumps(self):
        sched = FaultSchedule([FaultEvent.clock_jump(2.0, 0.05),
                               FaultEvent.clock_jump(4.0, -0.05)])
        assert sched.clock_jumps() == [(2.0, 0.05), (4.0, -0.05)]


class TestPresets:
    def test_every_preset_builds(self):
        for name in FAULT_PRESETS:
            sched = make_schedule(name, 20.0)
            assert isinstance(sched, FaultSchedule)
            # Faults end before the run does, so recovery is observable.
            assert all(e.end <= 20.0 for e in sched)

    def test_chaos_preset_composition(self):
        sched = make_schedule("chaos", 20.0)
        kinds = sorted(e.kind for e in sched)
        assert kinds == ["corruption", "outage", "reorder"]
        start, end = disruption_window(sched)
        dark = sched.outage_windows("both")
        assert (start, end) == (dark[0][0], dark[-1][1])

    def test_unknown_preset_and_bad_duration(self):
        with pytest.raises(ValueError):
            make_schedule("earthquake", 20.0)
        with pytest.raises(ValueError):
            make_schedule("blackout", 0.0)


# ----------------------------------------------------------------------
# The injector compiled onto the simulator clock
# ----------------------------------------------------------------------

def _drive(injector, sim, times, flow_id=0):
    """Send one packet per entry in ``times``; return (arrival_t, seq)."""
    arrivals = []
    injector.dst = lambda p: arrivals.append((sim.now, p.seq))
    for seq, t in enumerate(times):
        sim.schedule_at(t, injector.send, Packet(flow_id=flow_id, seq=seq))
    sim.run()
    return arrivals


class TestFaultInjector:
    def test_requires_seeded_rng(self):
        with pytest.raises(ValueError):
            FaultInjector(Simulator(), FaultSchedule(), rng=None)

    def test_outage_drops_and_blocked(self):
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.outage(1.0, 1.0, "both")])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(0))
        arrivals = _drive(inj, sim, [0.5, 1.5, 2.5])
        assert [seq for _, seq in arrivals] == [0, 2]
        assert inj.stats.blackout_drops == 1 and inj.stats.forwarded == 2
        assert not inj.blocked(now=0.5) and inj.blocked(now=1.5)

    def test_up_direction_ignores_data_path_faults(self):
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.burst_loss(0.0, 10.0, 1.0),
                               FaultEvent.corruption(0.0, 10.0, 1.0),
                               FaultEvent.outage(5.0, 1.0, "down")])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(0),
                            direction="up")
        arrivals = _drive(inj, sim, [1.0, 5.5])
        # Loss/corruption are data-path faults; the down-only outage does
        # not darken the uplink either.
        assert len(arrivals) == 2
        assert inj.stats.dropped == 0

    def test_burst_loss_rate_one_drops_everything(self):
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.burst_loss(1.0, 1.0, 1.0)])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(0))
        arrivals = _drive(inj, sim, [0.5, 1.2, 1.8, 2.5])
        assert [seq for _, seq in arrivals] == [0, 3]
        assert inj.stats.burst_losses == 2

    def test_packet_corruption_is_counted_drop_in_sim(self):
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.corruption(0.0, 1.0, 1.0)])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(0))
        arrivals = _drive(inj, sim, [0.5])
        assert arrivals == [] and inj.stats.corrupted == 1

    def test_byte_corruption_mode_forwards_packets(self):
        # Live mode: corruption applies to encoded bytes via mangle(),
        # never to the packet path.
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.corruption(0.0, 1.0, 1.0)])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(0),
                            byte_corruption=True)
        arrivals = _drive(inj, sim, [0.5])
        assert len(arrivals) == 1 and inj.stats.corrupted == 0

    def test_duplication(self):
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.duplication(0.0, 1.0, 1.0)])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(0))
        arrivals = _drive(inj, sim, [0.1, 0.2])
        assert [seq for _, seq in arrivals] == [0, 0, 1, 1]
        assert inj.stats.duplicated == 2 and inj.stats.forwarded == 2

    def test_reorder_storm_delay_is_bounded(self):
        sim = Simulator()
        jitter = 0.02
        sched = FaultSchedule([FaultEvent.reorder_storm(0.0, 10.0, jitter)])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(1),
                            base_delay=0.01)
        times = [i * 0.001 for i in range(50)]
        arrivals = _drive(inj, sim, times)
        assert sorted(seq for _, seq in arrivals) == list(range(50))
        for (arrival, seq) in arrivals:
            held = arrival - times[seq] - 0.01
            assert -1e-9 <= held <= jitter + 1e-9
        # Actual overtaking happened.
        assert [seq for _, seq in arrivals] != list(range(50))
        assert inj.stats.reorder_delays == 50

    def test_clock_jump_shifts_delay_and_clamps(self):
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.clock_jump(1.0, 0.05),
                               FaultEvent.clock_jump(2.0, -0.5)])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(0),
                            base_delay=0.01)
        arrivals = _drive(inj, sim, [0.5, 1.5, 2.5])
        delays = {seq: t - [0.5, 1.5, 2.5][seq] for t, seq in arrivals}
        assert delays[0] == pytest.approx(0.01)
        assert delays[1] == pytest.approx(0.06)
        assert delays[2] == pytest.approx(0.01)   # clamped, never negative

    def test_callable_like_a_link_destination(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultSchedule(),
                            rng=np.random.default_rng(0))
        got = []
        inj.dst = got.append
        inj(Packet(flow_id=0, seq=7))   # links invoke dst(packet)
        sim.run()
        assert got[0].seq == 7

    def test_mangle_only_inside_corruption_window(self):
        sim = Simulator()
        sched = FaultSchedule([FaultEvent.corruption(1.0, 1.0, 1.0)])
        inj = FaultInjector(sim, sched, rng=np.random.default_rng(2),
                            byte_corruption=True)
        data = bytes(range(64))
        assert inj.mangle(data) is data          # t=0: window not active
        sim.schedule_at(1.5, lambda: None)
        sim.run()
        for _ in range(20):
            damaged = inj.mangle(data)
            assert damaged != data
            assert len(damaged) <= len(data)
        assert inj.stats.truncated + inj.stats.corrupted == 20
        assert inj.stats.truncated > 0 and inj.stats.corrupted > 0


# ----------------------------------------------------------------------
# Recovery metric
# ----------------------------------------------------------------------

def _deliveries(times, size=1000):
    return [(t, seq, 0.01, size) for seq, t in enumerate(times)]


class TestRecoveryStats:
    def test_no_disruption_healthy_flow(self):
        stats = recovery_stats(_deliveries([0.1, 0.2]), None, None)
        assert stats.recovered and stats.recovery_time == 0.0
        assert not recovery_stats([], None, None).recovered

    def test_recovers_after_blackout(self):
        # Steady 1 pkt / 100 ms, dark over [2, 3), resumes immediately.
        times = ([i * 0.1 for i in range(20)]
                 + [3.0 + i * 0.1 for i in range(20)])
        stats = recovery_stats(_deliveries(times), 2.0, 3.0, deadline=2.0)
        assert stats.recovered
        assert stats.recovery_time == pytest.approx(0.0, abs=0.3)
        assert stats.pre_throughput_bps > 0

    def test_never_recovers(self):
        times = [i * 0.1 for i in range(20)]        # silence after t=2
        stats = recovery_stats(_deliveries(times), 2.0, 3.0, deadline=2.0)
        assert not stats.recovered and stats.recovery_time is None
        assert stats.post_packets == 0

    def test_idle_flow_recovers_on_first_post_delivery(self):
        stats = recovery_stats(_deliveries([4.0]), 2.0, 3.0, deadline=2.0)
        assert stats.pre_throughput_bps == 0.0
        assert stats.recovered and stats.recovery_time == pytest.approx(1.0)

    def test_validation_and_round_trip(self):
        with pytest.raises(ValueError):
            recovery_stats([], 1.0, 2.0, window=0.0)
        with pytest.raises(ValueError):
            recovery_stats([], 1.0, 2.0, fraction=0.0)
        stats = recovery_stats(_deliveries([0.5, 3.5]), 2.0, 3.0)
        from repro.metrics import RecoveryStats
        assert RecoveryStats.from_dict(stats.to_dict()) == stats


# ----------------------------------------------------------------------
# Simulator backend end-to-end
# ----------------------------------------------------------------------

@pytest.mark.chaos
class TestFaultedContention:
    def _run(self, schedule, protocol="verus", duration=10.0, seed=3):
        from repro.cellular import generate_scenario_trace
        trace = generate_scenario_trace("campus_stationary",
                                        duration=duration, seed=seed)
        return run_trace_contention(trace, [FlowSpec(protocol)],
                                    duration=duration, warmup=1.0,
                                    seed=seed, faults=schedule)

    @pytest.mark.parametrize("loss_rate", [0.0, 0.01])
    def test_empty_schedule_matches_fault_free_run(self, loss_rate):
        # The injectors draw from their own streams, so an empty schedule
        # must leave the queue's and the link's draws — and therefore
        # every delivery — exactly as the fault-free run has them, link
        # loss included.
        from repro.cellular import generate_scenario_trace
        trace = generate_scenario_trace("campus_stationary", duration=6.0,
                                        seed=3)
        specs = [FlowSpec("verus"), FlowSpec("cubic")]

        def summary(faults):
            result = run_trace_contention(trace, specs, duration=6.0,
                                          warmup=1.0, loss_rate=loss_rate,
                                          seed=3, faults=faults)
            return json.dumps(result.summary(), sort_keys=True).encode()

        assert summary(FaultSchedule([])) == summary(None)

    def test_empty_schedule_is_healthy(self):
        result = self._run(FaultSchedule())
        assert not result.degraded
        assert result.fault_stats["down"]["blackout_drops"] == 0
        assert result.fault_stats["down"]["forwarded"] > 0
        assert result.stats(0).throughput_bps > 0

    def test_blackout_recovery_and_accounting(self):
        sched = make_schedule("blackout", 10.0)
        result = self._run(sched)
        down = result.fault_stats["down"]
        assert down["blackout_drops"] > 0
        assert not result.degraded
        dark_until = sched.last_outage_end("down")
        deliveries = result.receivers[0].deliveries
        assert any(t >= dark_until for t, *_ in deliveries)
        stats = recovery_stats(deliveries, *disruption_window(sched),
                               deadline=3.0)
        assert stats.recovered

    def test_permanent_uplink_outage_flags_degraded(self):
        # The link goes dark almost to the end; with RTO backoff in the
        # minutes by then, nothing is delivered in the last 50 ms.
        sched = FaultSchedule([FaultEvent.outage(1.5, 8.45, "both")])
        result = self._run(sched)
        assert result.degraded
        assert "blackout" in result.degraded_reason
        assert result.summary()["degraded"]


# ----------------------------------------------------------------------
# Chaos matrix
# ----------------------------------------------------------------------

def _chaos_cell(**fields) -> TaskSpec:
    """A one-flow chaos cell: a blackout on ``campus_stationary``."""
    cell = dict(scenario="campus_stationary", protocol="verus", flows=1,
                duration=10.0, seed=42, warmup=1.0, fault="blackout")
    cell.update(fields)
    return TaskSpec(**cell)


@pytest.mark.chaos
class TestChaosMatrix:
    def test_task_validation_and_round_trip(self):
        task = _chaos_cell()
        assert TaskSpec.from_dict(task.to_dict()) == task
        assert len(make_schedule(task.fault, task.duration)) == 1
        with pytest.raises(ValueError):
            _chaos_cell(protocol="smtp")
        with pytest.raises(ValueError):
            _chaos_cell(fault="earthquake")
        with pytest.raises(ValueError):
            _chaos_cell(backend="cloud")
        with pytest.raises(ValueError, match="duration"):
            _chaos_cell(duration=0.0)
        with pytest.raises(ValueError, match="deadline"):
            _chaos_cell(deadline=0.0)

    def test_key_is_content_addressed(self):
        a = _chaos_cell()
        b = _chaos_cell(seed=43)
        assert a.key() == TaskSpec.from_dict(a.to_dict()).key()
        assert a.key() != b.key()
        assert a.key() != _chaos_cell(fault=None).key()

    def test_expand_grid(self):
        tasks = expand_grid(["campus_stationary"], ["verus", "cubic"], [1],
                            seeds=2, duration=10.0,
                            faults=["blackout", "none"], warmup=chaos_warmup)
        assert len(tasks) == 8
        assert len({t.seed for t in tasks}) == 8    # independent streams
        assert {t.warmup for t in tasks} == {1.0}
        # protocol × fault × seed, seeds innermost, each cell seeded by
        # its grid position.
        assert [(t.protocol, t.fault, t.seed_index) for t in tasks] == [
            (p, f, i) for p in ("verus", "cubic")
            for f in ("blackout", "none") for i in range(2)]
        children = np.random.SeedSequence(0).spawn(8)
        assert [t.seed for t in tasks] == \
            [int(c.generate_state(1)[0]) for c in children]
        with pytest.raises(ValueError):
            expand_grid(["campus_stationary"], [], faults=["blackout"])
        with pytest.raises(ValueError):
            expand_grid(["campus_stationary"], ["verus"], seeds=0,
                        faults=["blackout"])

    def test_single_cell_verdict_payload(self):
        task = _chaos_cell(seed=5)
        out = run_simulation_task(task.to_dict())
        assert out["recovered"] and not out["degraded"]
        assert out["flows"][0]["protocol"] == "verus"
        assert out["fault_stats"]["down"]["blackout_drops"] > 0
        assert out["recovery"][0]["recovery_time"] is not None
        assert out["senders"][0]["retransmissions"] >= 0

    def test_empty_schedule_cell_matches_fault_free_cell(self):
        """The worker's fault branch with the empty ``none`` schedule
        yields the fault-free cell's summary, plus the verdict and the
        law monitors' report."""
        clean = run_simulation_task(
            _chaos_cell(fault=None, duration=6.0).to_dict())
        assert set(clean) == {"duration", "warmup", "degraded",
                              "degraded_reason", "degraded_code", "flows"}
        out = run_simulation_task(
            _chaos_cell(fault="none", duration=6.0).to_dict())
        assert set(out) - set(clean) == {"recovery", "recovered",
                                         "fault_stats", "senders",
                                         "live_counters", "invariant"}
        assert json.dumps({k: out[k] for k in clean}, sort_keys=True) == \
            json.dumps(clean, sort_keys=True)
        assert out["recovered"]
        # The law monitors ran, and found nothing.
        assert out["invariant"]["ok"]
        assert out["invariant"]["checks"]["monotone-clock"] > 0

    def test_matrix_runs_and_caches(self, tmp_path):
        tasks = expand_grid(["campus_stationary"], ["verus"], [1],
                            duration=8.0, faults=["blackout", "none"],
                            warmup=chaos_warmup)
        first = run_campaign(tasks, cache_dir=str(tmp_path))
        assert first.all_ok
        assert all(o.result["recovered"] for o in first.outcomes)
        assert first.stats.executed == 2
        rows = recovery_rows(first.tasks, first.outcomes)
        assert {r["fault"] for r in rows} == {"blackout", "none"}
        assert all(r["recovered"] == r["cells"] for r in rows)
        # Second pass is served from the content-addressed store.
        again = run_campaign(tasks, cache_dir=str(tmp_path))
        assert again.stats.cached == 2 and again.stats.executed == 0
        assert all(o.result["recovered"] for o in again.outcomes)


    @pytest.mark.xfail(strict=True, reason=(
        "Verus ends degraded under flap on highway_driving: no downlink "
        "delivery after the last outage ends at t=3 s of a 4 s cell"))
    def test_verus_delivers_after_flap(self):
        """One cell of the full soak product (7 scenarios x verus,
        sprout, cubic, newreno x every fault preset, 4 s, base seed 0):
        of its 280 cells only Verus x flap degrades, here and on
        city_waterfront."""
        from repro.cellular import SCENARIO_NAMES

        tasks = expand_grid(list(SCENARIO_NAMES),
                            ["verus", "sprout", "cubic", "newreno"], [1],
                            duration=4.0, faults=list(FAULT_PRESETS),
                            warmup=chaos_warmup, deadline=1.5, base_seed=0)
        task = next(t for t in tasks if (t.protocol, t.fault, t.scenario)
                    == ("verus", "flap", "highway_driving"))
        out = run_simulation_task(task.to_dict())
        assert out["invariant"]["ok"]
        assert not out["degraded"], out["degraded_reason"]


@pytest.mark.chaos
class TestSoak:
    """``repro soak``: drawn chaos cells through the campaign engine."""

    @staticmethod
    def _soak(tmp_path, name, *extra):
        from repro.cli import main
        return main(["soak", "--jobs", "1", "--seed", "7",
                     "--state-dir", str(tmp_path / name), *extra])

    def test_clean_soak_passes_and_reruns_identically(self, tmp_path,
                                                      capsys):
        outputs = []
        for name in ("a", "b"):
            assert self._soak(tmp_path, name, "--budget-cells", "6") == 0
            out = capsys.readouterr().out
            assert "soak: OK" in out
            outputs.append(out.replace(str(tmp_path / name), "STORE"))
        assert outputs[0] == outputs[1]

    def test_law_mutant_fails_the_soak(self, tmp_path, capsys):
        """Verus's eq. 4 set-point floor skipped: the armed monitors
        catch it on a cell that otherwise recovers."""
        from repro.check.mutation import MUTANTS

        mutant = next(m for m in MUTANTS
                      if m.name == "verus-dest-floor-skip")
        args = ("--protocol", "verus", "--budget-cells", "2")
        with mutant.apply():
            assert self._soak(tmp_path, "mutant", *args) == 1
        out = capsys.readouterr().out
        assert "invariant: " in out and "dest-bounds" in out
        assert self._soak(tmp_path, "clean", *args) == 0


# ----------------------------------------------------------------------
# Live backend acceptance: same schedule, real datagrams
# ----------------------------------------------------------------------

@pytest.mark.chaos
@pytest.mark.udp
@needs_udp
class TestLiveChaosAcceptance:
    def test_schedule_runs_live_with_full_accounting(self):
        from repro.cellular import generate_scenario_trace
        from repro.live import run_live_session

        # One schedule, both backends: outage + corruption + reordering.
        sched = FaultSchedule([
            FaultEvent.corruption(0.6, 0.8, 0.4),
            FaultEvent.outage(1.6, 0.4, "both"),
            FaultEvent.reorder_storm(2.2, 0.6, 0.01),
        ])
        trace = generate_scenario_trace("campus_stationary",
                                        duration=4.0, seed=11)
        sim_result = run_trace_contention(trace, [FlowSpec("verus")],
                                          duration=4.0, warmup=0.5,
                                          seed=11, faults=sched)
        assert sim_result.fault_stats["down"]["blackout_drops"] > 0

        live = run_live_session([FlowSpec("verus")], trace=trace,
                                duration=4.0, warmup=0.5, seed=11,
                                fault_schedule=sched)
        # Clean termination within the requested duration.
        assert live.duration <= 4.0 + 1e-6
        emulator = live.live_counters["emulator"]
        receiver = live.live_counters["receiver_host"]
        # Zero silent drops: every datagram the schedule damaged was
        # rejected by the hardened wire format and counted.
        assert emulator["mangled"] > 0
        assert receiver["wire_errors"] == emulator["mangled"]
        assert (receiver["truncated"] + receiver["corrupted"]
                <= receiver["wire_errors"])
        assert live.fault_stats["down"]["truncated"] > 0
        # The blackout healed: deliveries exist after the dark window.
        assert any(t >= 2.0 for t, *_ in live.receivers[0].deliveries)
        assert not live.degraded
