"""Protocol endpoint interfaces and flow wiring.

Every congestion controller in this repository (Verus, TCP variants, Sprout)
implements the small :class:`SenderProtocol` interface; every receiver
implements :class:`ReceiverProtocol`.  Endpoints are attached to a *clock*
(anything satisfying :class:`Clock`) and a transmit callable, so the same
protocol code runs unchanged over fixed links, trace-driven cellular links,
schedule-driven variable links — and, via :mod:`repro.live`, over real UDP
sockets driven by wall-clock timers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

try:  # pragma: no cover - Protocol is 3.8+; fall back for exotic installs
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from .packet import Packet, PacketPool

Transmit = Callable[[Packet], None]


@runtime_checkable
class EventHandle(Protocol):
    """Cancellable handle returned by :meth:`Clock.schedule`."""

    def cancel(self) -> None: ...

    @property
    def active(self) -> bool: ...


@runtime_checkable
class Clock(Protocol):
    """The scheduling surface protocol endpoints depend on.

    :class:`~repro.netsim.engine.Simulator` implements it with simulated
    time; :class:`repro.live.clock.WallClock` implements it with asyncio
    wall-clock timers.  Protocol code must only ever touch ``now``,
    ``schedule`` and the fire-and-forget ``call_later`` fast path (plus
    :class:`~repro.netsim.engine.PeriodicTimer`, which itself only uses
    the first two), never simulator-only APIs such as
    ``run``/``step`` — that is what keeps one protocol implementation
    valid on both substrates.
    """

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> EventHandle: ...

    def call_later(self, delay: float, callback: Callable[..., Any],
                   *args: Any) -> None: ...


class SenderProtocol:
    """Base class for congestion-controlled senders.

    Subclasses implement :meth:`start` (begin transmitting) and
    :meth:`on_ack` (acknowledgement arrival).  ``self.send(packet)`` injects
    a data packet into the attached network path.
    """

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.sim: Optional[Clock] = None
        self._tx: Optional[Transmit] = None
        self.running = False
        self.packets_sent = 0
        self.bytes_sent = 0
        self.start_time: Optional[float] = None
        self.stop_time: Optional[float] = None
        # Conformance seam (see repro.check): observer objects whose
        # optional methods (on_epoch, on_loss, ...) are invoked by the
        # concrete senders at well-defined control-law points.  Empty for
        # normal runs; call sites guard on the list so the hot path pays
        # one falsy check only.
        self.observers: List[Any] = []

    # -- wiring --------------------------------------------------------
    def attach(self, sim: Clock, tx: Transmit) -> None:
        self.sim = sim
        self._tx = tx

    def detach(self) -> None:
        """Drop the transmit path :meth:`attach` set.  The clock stays, so
        a finished sender's state (``now``, counters) remains readable."""
        self._tx = None

    def send(self, packet: Packet) -> None:
        if self._tx is None or self.sim is None:
            raise RuntimeError("sender not attached to a network path")
        self.packets_sent += 1
        self.bytes_sent += packet.size
        self._tx(packet)

    @property
    def now(self) -> float:
        if self.sim is None:
            raise RuntimeError("sender not attached")
        return self.sim.now

    def notify(self, event: str, **fields: Any) -> None:
        """Dispatch ``event`` to every observer that implements it.

        Observers are duck-typed: an observer interested in, say, loss
        events defines ``on_loss(sender, **fields)`` and ignores the
        rest.  An observer that wants *every* event raw (e.g. a timeline
        recorder) defines ``record_event(sender, event, fields)``
        instead and receives the packed fields dict directly — that path
        skips a second kwargs pack/unpack and the per-event-name lookup,
        roughly halving per-event cost on the epoch hot path.  Exceptions
        propagate — a conformance monitor failing loudly is the point.
        """
        for observer in self.observers:
            sink = getattr(observer, "record_event", None)
            if sink is not None:
                sink(self, event, fields)
            else:
                handler = getattr(observer, event, None)
                if handler is not None:
                    handler(self, **fields)

    # -- protocol hooks --------------------------------------------------
    def start(self) -> None:
        self.running = True
        self.start_time = self.now

    def stop(self) -> None:
        self.running = False
        self.stop_time = self.now

    def on_ack(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class ReceiverProtocol:
    """Base receiver: acknowledges data and records delivery statistics.

    The default behaviour — one acknowledgement per data packet, echoing the
    sender timestamp and window metadata — is what Verus and Sprout use.
    TCP receivers override :meth:`on_data` to send cumulative ACKs.

    Recorded per delivery: arrival time, sequence, one-way delay (arrival
    minus original send time, i.e. including all queueing) and size.  These
    records feed every figure's throughput/delay statistics.
    """

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.sim: Optional[Clock] = None
        self._tx: Optional[Transmit] = None
        self.packets_received = 0
        self.bytes_received = 0
        self.deliveries: List[Tuple[float, int, float, int]] = []
        self.record = True
        #: Optional acknowledgement freelist (see
        #: :class:`~repro.netsim.packet.PacketPool`).  Set by the wiring
        #: layer when the topology releases ACKs after delivery; None
        #: keeps every ACK freshly allocated.
        self.ack_pool: Optional[PacketPool] = None
        # Same observer seam as SenderProtocol, for receiver-side state
        # worth a timeline (e.g. Sprout's forecaster belief).  Empty for
        # normal runs; emit points guard on the list.
        self.observers: List[Any] = []

    def attach(self, sim: Clock, tx: Transmit) -> None:
        self.sim = sim
        self._tx = tx

    @property
    def now(self) -> float:
        if self.sim is None:
            raise RuntimeError("receiver not attached")
        return self.sim.now

    def notify(self, event: str, **fields: Any) -> None:
        """Dispatch ``event`` to every observer that implements it (same
        duck-typed contract as :meth:`SenderProtocol.notify`, including
        the ``record_event`` raw fast path)."""
        for observer in self.observers:
            sink = getattr(observer, "record_event", None)
            if sink is not None:
                sink(self, event, fields)
            else:
                handler = getattr(observer, event, None)
                if handler is not None:
                    handler(self, **fields)

    def send_ack(self, ack: Packet) -> None:
        if self._tx is None:
            raise RuntimeError("receiver not attached to a reverse path")
        self._tx(ack)

    def on_data(self, packet: Packet) -> None:
        self._record(packet)
        self.send_ack(packet.make_ack(self.now, pool=self.ack_pool))

    def _record(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
        if self.record:
            now = self.now
            self.deliveries.append((now, packet.seq, now - packet.sent_time,
                                    packet.size))


class Demux:
    """Routes packets arriving at a shared link output to per-flow sinks."""

    def __init__(self) -> None:
        self._sinks: Dict[int, Callable[[Packet], None]] = {}
        self.unroutable = 0

    def register(self, flow_id: int, sink: Callable[[Packet], None]) -> None:
        if flow_id in self._sinks:
            raise ValueError(f"flow {flow_id} already registered")
        self._sinks[flow_id] = sink

    def __call__(self, packet: Packet) -> None:
        sink = self._sinks.get(packet.flow_id)
        if sink is None:
            self.unroutable += 1
            return
        sink(packet)
