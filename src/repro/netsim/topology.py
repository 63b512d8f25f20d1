"""Topology builders.

The paper's experiments all reduce to a dumbbell: N senders share one
bottleneck (a fixed :class:`~repro.netsim.link.Link`, a schedule-driven
:class:`~repro.netsim.link.VariableLink`, or a cellular
:class:`~repro.netsim.trace_link.TraceLink`), with per-flow access delays on
the forward path and a clean, ample reverse path for acknowledgements.
:class:`Dumbbell` wires protocol endpoints onto that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .engine import Simulator
from .flow import Demux, ReceiverProtocol, SenderProtocol
from .link import DelayLine
from .packet import Packet, PacketPool


@dataclass
class FlowHandle:
    """Bookkeeping for one sender/receiver pair attached to a dumbbell."""

    flow_id: int
    sender: SenderProtocol
    receiver: ReceiverProtocol
    rtt: float
    start_at: float
    stop_at: Optional[float] = None


def pooled_ack_sink(on_ack: Callable[[Packet], None],
                    pool: PacketPool) -> Callable[[Packet], None]:
    """Wrap a sender's ``on_ack`` so every ACK returns to ``pool`` after
    the handler runs.  Safe exactly because the ACK is dead once the
    handler returns: nothing downstream of ``on_ack`` holds it."""
    release = pool.release

    def deliver(packet: Packet) -> None:
        on_ack(packet)
        release(packet)

    return deliver


class Dumbbell:
    """N flows sharing a single bottleneck.

    Parameters
    ----------
    sim:
        The simulation engine.
    bottleneck:
        Any object exposing ``send(packet)`` and a writable ``dst``
        attribute (``Link``, ``VariableLink`` or ``TraceLink``).
    default_rtt:
        Base round-trip propagation delay for flows that do not override it.
        Half is applied on the forward access path (before the bottleneck)
        and half on the reverse acknowledgement path.
    downlink, uplink:
        Optional shared hops, each exposing ``send(packet)`` and a
        writable ``dst`` (e.g. a fault injector).  ``downlink`` sits
        between the bottleneck and the data demux; ``uplink`` carries
        every flow's acknowledgements after its reverse delay, ahead of
        an ACK demux.

    ACKs on a clean reverse path are dead once the sender's handler
    returns, so without an ``uplink`` each flow recycles them through a
    per-flow freelist; an uplink hop (a fault injector) may hold ACKs
    across time, so it turns the freelist off.
    """

    def __init__(self, sim: Simulator, bottleneck, default_rtt: float = 0.05,
                 downlink=None, uplink=None):
        if default_rtt < 0:
            raise ValueError("default_rtt must be non-negative")
        self.sim = sim
        self.bottleneck = bottleneck
        self.default_rtt = default_rtt
        self.demux = Demux()
        if downlink is None:
            self.bottleneck.dst = self.demux
        else:
            self.bottleneck.dst = downlink
            downlink.dst = self.demux
        self.uplink = uplink
        self.ack_demux: Optional[Demux] = None
        if uplink is not None:
            self.ack_demux = Demux()
            uplink.dst = self.ack_demux
        self.flows: List[FlowHandle] = []

    def add_flow(self, sender: SenderProtocol, receiver: ReceiverProtocol,
                 rtt: Optional[float] = None, start_at: float = 0.0,
                 stop_at: Optional[float] = None) -> FlowHandle:
        """Attach a flow; the sender starts automatically at ``start_at``."""
        if sender.flow_id != receiver.flow_id:
            raise ValueError("sender and receiver flow ids must match")
        rtt = self.default_rtt if rtt is None else rtt
        if rtt < 0:
            raise ValueError("rtt must be non-negative")

        forward_access = DelayLine(self.sim, rtt / 2.0, dst=self.bottleneck.send)
        if self.uplink is None:
            pool = PacketPool()
            receiver.ack_pool = pool
            reverse_path = DelayLine(self.sim, rtt / 2.0,
                                     dst=pooled_ack_sink(sender.on_ack, pool))
        else:
            reverse_path = DelayLine(self.sim, rtt / 2.0, dst=self.uplink.send)
            self.ack_demux.register(sender.flow_id, sender.on_ack)

        sender.attach(self.sim, forward_access.send)
        receiver.attach(self.sim, reverse_path.send)
        self.demux.register(sender.flow_id, receiver.on_data)

        handle = FlowHandle(sender.flow_id, sender, receiver, rtt, start_at, stop_at)
        self.flows.append(handle)
        self.sim.call_at(max(start_at, self.sim.now), sender.start)
        if stop_at is not None:
            self.sim.call_at(stop_at, sender.stop)
        return handle

    def run(self, duration: float) -> None:
        """Convenience: run the simulation for ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)


class OnOffSource(SenderProtocol):
    """Constant-bit-rate source with optional ON/OFF duty cycle.

    Used by the §3 channel-study experiments: "the first user is constantly
    receiving at a fixed rate (1, 5, 10 Mbps) while the second user is set to
    operate in ON/OFF periods of one minute intervals receiving at 10 Mbps."
    The source ignores acknowledgements — it is open-loop by design.
    """

    def __init__(self, flow_id: int, rate_bps: float, packet_size: int = 1400,
                 on_period: Optional[float] = None,
                 off_period: Optional[float] = None,
                 start_on: bool = True):
        super().__init__(flow_id)
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if (on_period is None) != (off_period is None):
            raise ValueError("set both on_period and off_period, or neither")
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.on_period = on_period
        self.off_period = off_period
        self.is_on = start_on
        self._seq = 0
        self.interval = packet_size * 8.0 / rate_bps

    def start(self) -> None:
        super().start()
        if self.on_period is not None:
            period = self.on_period if self.is_on else self.off_period
            self.sim.call_later(period, self._toggle)
        self._emit()

    def _toggle(self) -> None:
        if not self.running:
            return
        self.is_on = not self.is_on
        period = self.on_period if self.is_on else self.off_period
        self.sim.call_later(period, self._toggle)

    def _emit(self) -> None:
        if not self.running:
            return
        if self.is_on:
            packet = Packet(flow_id=self.flow_id, seq=self._seq,
                            size=self.packet_size, sent_time=self.now)
            self._seq += 1
            self.send(packet)
        self.sim.call_later(self.interval, self._emit)

    def on_ack(self, packet: Packet) -> None:
        """Open-loop source: acknowledgements are ignored."""


class SinkReceiver(ReceiverProtocol):
    """Receiver that records deliveries but never acknowledges."""

    def on_data(self, packet: Packet) -> None:
        self._record(packet)
