"""Tests for the counting packet tap."""

from repro.core import VerusConfig, VerusReceiver, VerusSender
from repro.netsim import (
    DelayLine,
    DropTailQueue,
    Link,
    Packet,
    PacketTap,
    Simulator,
)


class TestPacketTap:
    def test_records_and_forwards(self):
        received = []
        tap = PacketTap(dst=received.append)
        packet = Packet(flow_id=0, seq=1, sent_time=0.5)
        tap(packet)
        assert received == [packet]
        assert tap.data == 1

    def test_counts_by_kind(self):
        tap = PacketTap()
        tap(Packet(flow_id=0, seq=0))
        tap(Packet(flow_id=0, seq=0, is_ack=True))
        tap(Packet(flow_id=0, seq=1, retransmission=True))
        assert tap.data == 2
        assert tap.acks == 1

    def test_counts_a_live_verus_flow(self):
        """Taps around a Verus link see every data packet the link
        delivers, and no more than the sender put in."""
        sim = Simulator()
        sender = VerusSender(0, VerusConfig())
        receiver = VerusReceiver(0)

        rx_tap = PacketTap(receiver.on_data)
        link = Link(sim, rate_bps=10e6, queue=DropTailQueue(), dst=rx_tap)
        tx_tap = PacketTap(link.send)
        forward = DelayLine(sim, 0.025, dst=tx_tap)
        reverse = DelayLine(sim, 0.025, dst=sender.on_ack)
        sender.attach(sim, forward.send)
        receiver.attach(sim, reverse.send)
        sim.schedule_at(0.0, sender.start)
        sim.run(until=5.0)

        assert rx_tap.data > 100
        assert rx_tap.data == link.delivered
        assert tx_tap.data >= rx_tap.data
        assert rx_tap.acks == tx_tap.acks == 0
