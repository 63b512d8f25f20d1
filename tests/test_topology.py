"""Tests for flow wiring, demux, dumbbells and traffic sources."""

import pytest

from repro.netsim import (
    DelayLine,
    Demux,
    DropTailQueue,
    Dumbbell,
    Link,
    OnOffSource,
    Packet,
    PacketPool,
    SinkReceiver,
    Simulator,
)
from repro.netsim.flow import ReceiverProtocol, SenderProtocol


class EchoSender(SenderProtocol):
    """Minimal sender: one packet per ACK (stop-and-wait)."""

    def start(self):
        super().start()
        self._seq = 0
        self._emit()

    def _emit(self):
        packet = Packet(flow_id=self.flow_id, seq=self._seq,
                        sent_time=self.now)
        self._seq += 1
        self.send(packet)

    def on_ack(self, packet):
        if self.running:
            self._emit()


class TestDemux:
    def test_routes_by_flow_id(self):
        demux = Demux()
        a, b = [], []
        demux.register(0, a.append)
        demux.register(1, b.append)
        demux(Packet(flow_id=0, seq=0))
        demux(Packet(flow_id=1, seq=0))
        demux(Packet(flow_id=1, seq=1))
        assert len(a) == 1 and len(b) == 2

    def test_unroutable_counted(self):
        demux = Demux()
        demux(Packet(flow_id=9, seq=0))
        assert demux.unroutable == 1

    def test_duplicate_registration_rejected(self):
        demux = Demux()
        demux.register(0, lambda p: None)
        with pytest.raises(ValueError):
            demux.register(0, lambda p: None)


class TestDumbbell:
    def test_two_flows_share_bottleneck(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, queue=DropTailQueue())
        bell = Dumbbell(sim, link, default_rtt=0.02)
        pairs = []
        for flow_id in range(2):
            sender = EchoSender(flow_id)
            receiver = ReceiverProtocol(flow_id)
            bell.add_flow(sender, receiver)
            pairs.append((sender, receiver))
        bell.run(5.0)
        for sender, receiver in pairs:
            assert receiver.packets_received > 50

    def test_flow_id_mismatch_rejected(self):
        sim = Simulator()
        bell = Dumbbell(sim, Link(sim, rate_bps=1e6))
        with pytest.raises(ValueError):
            bell.add_flow(EchoSender(0), ReceiverProtocol(1))

    def test_start_at_delays_sender(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, queue=DropTailQueue())
        bell = Dumbbell(sim, link, default_rtt=0.02)
        sender = EchoSender(0)
        receiver = ReceiverProtocol(0)
        bell.add_flow(sender, receiver, start_at=2.0)
        bell.run(1.0)
        assert receiver.packets_received == 0
        bell.run(2.0)
        assert receiver.packets_received > 0

    def test_stop_at_halts_sender(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, queue=DropTailQueue())
        bell = Dumbbell(sim, link, default_rtt=0.02)
        sender = EchoSender(0)
        receiver = ReceiverProtocol(0)
        bell.add_flow(sender, receiver, stop_at=1.0)
        bell.run(5.0)
        assert sender.stop_time == 1.0

    def test_per_flow_rtt_override(self):
        sim = Simulator()
        link = Link(sim, rate_bps=100e6, queue=DropTailQueue())
        bell = Dumbbell(sim, link, default_rtt=0.02)
        fast_rcv = ReceiverProtocol(0)
        slow_rcv = ReceiverProtocol(1)
        bell.add_flow(EchoSender(0), fast_rcv, rtt=0.01)
        bell.add_flow(EchoSender(1), slow_rcv, rtt=0.1)
        bell.run(2.0)
        # Stop-and-wait rate is 1/RTT: 10× RTT gap → ~10× packet gap.
        ratio = fast_rcv.packets_received / max(slow_rcv.packets_received, 1)
        assert 5.0 < ratio < 15.0

    def test_negative_rtt_rejected(self):
        sim = Simulator()
        bell = Dumbbell(sim, Link(sim, rate_bps=1e6))
        with pytest.raises(ValueError):
            bell.add_flow(EchoSender(0), ReceiverProtocol(0), rtt=-0.1)

    @pytest.mark.parametrize("with_uplink", [False, True])
    def test_acks_pooled_exactly_without_uplink(self, with_uplink):
        """An uplink hop may hold ACKs across time, so only a dumbbell
        without one recycles them through a per-flow freelist."""
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, queue=DropTailQueue())
        uplink = DelayLine(sim, 0.0) if with_uplink else None
        bell = Dumbbell(sim, link, default_rtt=0.02, uplink=uplink)
        receiver = ReceiverProtocol(0)
        bell.add_flow(EchoSender(0), receiver)
        bell.run(1.0)
        assert receiver.packets_received > 10
        if with_uplink:
            assert receiver.ack_pool is None
        else:
            assert isinstance(receiver.ack_pool, PacketPool)


class TestOnOffSource:
    def test_cbr_rate(self):
        sim = Simulator()
        link = Link(sim, rate_bps=100e6, queue=DropTailQueue())
        source = OnOffSource(0, rate_bps=1e6, packet_size=1250)
        sink = SinkReceiver(0)
        sink.attach(sim, lambda p: None)
        link.dst = sink.on_data
        source.attach(sim, link.send)
        sim.schedule_at(0.0, source.start)
        sim.run(until=10.0)
        # 1 Mbps at 1250 B = 100 packets/s
        assert sink.packets_received == pytest.approx(1000, abs=5)

    def test_on_off_duty_cycle(self):
        sim = Simulator()
        received = []
        source = OnOffSource(0, rate_bps=1e6, on_period=1.0, off_period=1.0,
                             start_on=True)
        source.attach(sim, lambda p: received.append(sim.now))
        sim.schedule_at(0.0, source.start)
        sim.run(until=4.0)
        on_phase = [t for t in received if (t % 2.0) < 1.0]
        off_phase = [t for t in received if (t % 2.0) >= 1.0]
        assert len(off_phase) <= 1   # boundary packet at most
        assert len(on_phase) > 100

    def test_requires_both_periods(self):
        with pytest.raises(ValueError):
            OnOffSource(0, rate_bps=1e6, on_period=1.0)

    def test_acks_ignored(self):
        source = OnOffSource(0, rate_bps=1e6)
        source.on_ack(Packet(flow_id=0, seq=0, is_ack=True))  # no crash


class TestProtocolBases:
    def test_sender_requires_attachment(self):
        sender = EchoSender(0)
        with pytest.raises(RuntimeError):
            sender.send(Packet(flow_id=0, seq=0))
        with pytest.raises(RuntimeError):
            _ = sender.now

    def test_receiver_requires_attachment(self):
        receiver = ReceiverProtocol(0)
        with pytest.raises(RuntimeError):
            receiver.send_ack(Packet(flow_id=0, seq=0, is_ack=True))

    def test_receiver_records_delay(self):
        sim = Simulator()
        receiver = ReceiverProtocol(0)
        receiver.attach(sim, lambda a: None)
        sim.schedule_at(1.0, receiver.on_data,
                        Packet(flow_id=0, seq=0, sent_time=0.6))
        sim.run()
        (t, seq, delay, size) = receiver.deliveries[0]
        assert delay == pytest.approx(0.4)

    def test_record_flag_disables_logging(self):
        sim = Simulator()
        receiver = ReceiverProtocol(0)
        receiver.attach(sim, lambda a: None)
        receiver.record = False
        receiver.on_data(Packet(flow_id=0, seq=0))
        assert receiver.deliveries == []
        assert receiver.packets_received == 1

    def test_sink_receiver_never_acks(self):
        sim = Simulator()
        acks = []
        sink = SinkReceiver(0)
        sink.attach(sim, acks.append)
        sink.on_data(Packet(flow_id=0, seq=0))
        assert acks == []
        assert sink.packets_received == 1
