"""Tests for the live UDP path: wire format, wall clock, channel stepper,
link emulator and the loopback session driver.

The socket-touching tests are marked so sandboxes without network
namespaces skip them instead of erroring.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.cellular import CellularChannelModel, ChannelParams, trace_rate_bps
from repro.live import (
    WIRE_VERSION,
    LinkEmulator,
    LiveSessionError,
    WallClock,
    WireFormatError,
    decode_packet,
    encode_packet,
    header_size,
    run_live_session,
)
from repro.netsim import Packet, PeriodicTimer


def _udp_available() -> bool:
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind(("127.0.0.1", 0))
        s.close()
        return True
    except OSError:
        return False


# ``udp``-marked tests can be (de)selected as a tier with ``-m udp``;
# the skipif guard additionally auto-skips them where localhost sockets
# don't exist, so an unfiltered run stays green in any sandbox.
needs_udp = pytest.mark.skipif(
    not _udp_available(),
    reason="no localhost UDP sockets available in this sandbox")


class TestWireFormat:
    def test_data_roundtrip_preserves_protocol_fields(self):
        packet = Packet(flow_id=3, seq=4711, size=1400, sent_time=1.25,
                        window_at_send=37.5, retransmission=True)
        out = decode_packet(encode_packet(packet))
        assert out.flow_id == 3 and out.seq == 4711
        assert out.size == 1400
        assert out.sent_time == 1.25
        assert out.window_at_send == 37.5
        assert out.retransmission and not out.is_ack

    def test_ack_roundtrip(self):
        data = Packet(flow_id=1, seq=9, sent_time=0.5, window_at_send=4.0)
        ack = data.make_ack(now=0.75)
        out = decode_packet(encode_packet(ack))
        assert out.is_ack and out.ack_seq == 9
        assert out.echo_sent_time == 0.5
        assert out.window_at_send == 4.0
        assert out.size == ack.size

    def test_payload_roundtrip(self):
        packet = Packet(flow_id=0, seq=1, is_ack=True,
                        payload={"acked": [1, 2, 3]})
        out = decode_packet(encode_packet(packet))
        assert out.payload == {"acked": [1, 2, 3]}

    def test_data_datagram_padded_to_declared_size(self):
        packet = Packet(flow_id=0, seq=0, size=1400)
        assert len(encode_packet(packet)) == 1400

    def test_small_ack_not_padded_below_header(self):
        ack = Packet(flow_id=0, seq=0, size=40, is_ack=True)
        datagram = encode_packet(ack)
        assert len(datagram) == header_size()
        assert decode_packet(datagram).size == 40

    def test_rejects_bad_magic_truncation_and_future_version(self):
        good = encode_packet(Packet(flow_id=0, seq=0))
        with pytest.raises(WireFormatError):
            decode_packet(b"XXXX" + good[4:])
        with pytest.raises(WireFormatError):
            decode_packet(good[:header_size() - 1])
        future = bytearray(good)
        future[4] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError):
            decode_packet(bytes(future))


class TestWallClock:
    def test_schedule_and_cancel(self):
        async def scenario():
            clock = WallClock(asyncio.get_running_loop())
            fired = []
            clock.schedule(0.01, fired.append, "a")
            cancelled = clock.schedule(0.01, fired.append, "b")
            cancelled.cancel()
            assert not cancelled.active
            await asyncio.sleep(0.05)
            return fired

        assert asyncio.run(scenario()) == ["a"]

    def test_now_advances_with_wall_time(self):
        async def scenario():
            clock = WallClock(asyncio.get_running_loop())
            t0 = clock.now
            await asyncio.sleep(0.02)
            return clock.now - t0

        elapsed = asyncio.run(scenario())
        assert 0.01 < elapsed < 1.0

    def test_periodic_timer_runs_on_wall_clock(self):
        """PeriodicTimer — the engine Verus's epoch loop is built on —
        must work unchanged against the wall clock."""
        async def scenario():
            clock = WallClock(asyncio.get_running_loop())
            ticks = []
            timer = PeriodicTimer(clock, 0.01, lambda: ticks.append(clock.now))
            timer.start()
            await asyncio.sleep(0.06)
            timer.stop()
            return ticks

        ticks = asyncio.run(scenario())
        assert len(ticks) >= 2
        assert all(b > a for a, b in zip(ticks, ticks[1:]))


class TestChannelStepper:
    def test_chunks_are_sorted_disjoint_and_in_range(self):
        model = CellularChannelModel(ChannelParams(mean_rate_bps=8e6),
                                     rng=np.random.default_rng(3))
        stepper = model.stepper()
        frontier = 0.0
        for _ in range(20):
            chunk = stepper.advance(0.25)
            assert np.all(np.diff(chunk) >= 0)
            if chunk.size:
                assert chunk[0] >= frontier
                assert chunk[-1] < frontier + 0.25
            frontier += 0.25
            assert stepper.now == pytest.approx(frontier)

    def test_stepper_rate_matches_generate(self):
        params = ChannelParams(mean_rate_bps=8e6, technology="3g")
        gen_rate = trace_rate_bps(
            CellularChannelModel(params, np.random.default_rng(5)).generate(30.0))
        stepper = CellularChannelModel(params,
                                       np.random.default_rng(6)).stepper()
        inc = np.concatenate([stepper.advance(0.5) for _ in range(60)])
        step_rate = trace_rate_bps(inc)
        assert step_rate == pytest.approx(gen_rate, rel=0.35)

    def test_emulator_loss_without_rng_rejected(self):
        with pytest.raises(ValueError, match="seeded rng"):
            LinkEmulator(None, trace=[0.01], loss_rate=0.01)

    def test_rejects_nonpositive_dt(self):
        stepper = CellularChannelModel(ChannelParams(),
                                       np.random.default_rng(1)).stepper()
        with pytest.raises(ValueError):
            stepper.advance(0.0)


@pytest.mark.udp
@needs_udp
class TestLiveLoopback:
    def test_verus_vs_cubic_session_delivers(self):
        """Acceptance: a short two-flow live session over localhost UDP
        completes, moves real bytes and yields sane FlowStats."""
        from repro.experiments.runner import FlowSpec

        duration = 3.0
        rng = np.random.default_rng(11)
        model = CellularChannelModel(
            ChannelParams(mean_rate_bps=6e6, technology="3g"), rng=rng)
        trace = model.generate(duration)
        specs = [FlowSpec("verus", options={"r": 2.0}), FlowSpec("cubic")]
        result = run_live_session(specs, trace=trace, duration=duration,
                                  warmup=0.5, seed=11)

        assert result.emulator_stats.data_in > 50
        assert result.emulator_stats.delivered > 50
        for stats in result.all_stats():
            assert stats.packets_received > 20
            assert stats.bytes_received > 20 * 1400
            # Throughput cannot exceed the offered channel by much, and
            # delays must be real positive round-trip-scale numbers.
            assert 0.01 < stats.throughput_mbps < 12.0
            assert 0.001 < stats.mean_delay < 5.0
            assert stats.p95_delay >= stats.median_delay > 0.0
        # The same objects ran the session: live senders report their own
        # transmission counters, proving no forked protocol logic.
        assert all(s.packets_sent > 0 for s in result.senders)

    def test_live_throughput_consistent_with_simulation(self):
        """Sim-vs-live parity: same trace, same protocol, same seed.

        Documented tolerance: live throughput within a factor of three of
        the simulated run (wall-clock timer jitter and Python scheduling
        overhead make the live path strictly noisier; order-of-magnitude
        agreement is the reproduction claim, see docs/ARCHITECTURE.md).
        """
        from repro.experiments.runner import FlowSpec, run_trace_contention

        duration = 3.0
        trace = CellularChannelModel(
            ChannelParams(mean_rate_bps=6e6, technology="3g"),
            rng=np.random.default_rng(13)).generate(duration)
        specs = [FlowSpec("verus", options={"r": 2.0})]
        live = run_live_session(specs, trace=trace, duration=duration,
                                warmup=0.5, seed=13)
        sim = run_trace_contention(trace, specs, duration=duration,
                                   warmup=0.5, seed=13)
        live_tput = live.stats(0).throughput_mbps
        sim_tput = sim.stats(0).throughput_mbps
        assert sim_tput > 0.1
        assert live_tput > sim_tput / 3.0
        assert live_tput < sim_tput * 3.0

    def test_unavailable_trace_and_stepper_rejected(self):
        from repro.experiments.runner import FlowSpec

        with pytest.raises(ValueError):
            run_live_session([FlowSpec("verus")], duration=1.0)

    def test_stepper_driven_session(self):
        """The emulator can draw the channel live instead of replaying."""
        from repro.experiments.runner import FlowSpec

        model = CellularChannelModel(
            ChannelParams(mean_rate_bps=6e6), rng=np.random.default_rng(17))
        result = run_live_session([FlowSpec("verus", options={"r": 2.0})],
                                  stepper=model.stepper(), duration=2.0,
                                  warmup=0.5, seed=17)
        assert result.stats(0).packets_received > 20

    def test_watchdog_teardown_reports_structured_hang_code(self):
        """A permanent outage silences every ACK; the ACK-inactivity
        watchdog must declare the peer dead, tear the session down early,
        and stamp the structured ``degraded_code`` (``"hang"`` in the
        resilience taxonomy) alongside the human-readable reason."""
        from repro.experiments.runner import FlowSpec
        from repro.faults.spec import FaultEvent, FaultSchedule

        duration = 8.0
        trace = CellularChannelModel(
            ChannelParams(mean_rate_bps=6e6, technology="3g"),
            rng=np.random.default_rng(23)).generate(duration)
        # Outage from 0.5 s to far past the session end: never heals.
        sched = FaultSchedule([FaultEvent.outage(0.5, 60.0, "both")])
        result = run_live_session([FlowSpec("verus", options={"r": 2.0})],
                                  trace=trace, duration=duration,
                                  warmup=0.2, seed=23,
                                  fault_schedule=sched, max_silence=0.2)
        assert result.degraded
        assert result.degraded_code == "hang"
        assert "peer presumed dead" in result.degraded_reason
        assert result.summary()["degraded_code"] == "hang"
        # Watchdog-fired teardown, not the duration timer.
        assert result.duration < duration - 1.0
