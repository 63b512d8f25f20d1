"""Userspace cellular link emulator over localhost UDP.

The mahimahi design (also used by the C2TCP and ABC evaluations): a
middlebox process with two sockets forwards real datagrams between a
sender and a receiver, releasing queued data packets only at
*delivery opportunities* — each opportunity carries one MTU, unused
opportunities are wasted — so the loopback path exhibits the same
"use it or lose it" capacity process as the simulator's
:class:`~repro.netsim.trace_link.TraceLink`.

Opportunities come from either a replayed trace (an array of timestamps,
e.g. from :func:`repro.traces.formats.read_trace_seconds` or
:func:`~repro.cellular.scenarios.generate_scenario_trace`, looped when
the session outlives it) or a live
:class:`~repro.cellular.channel_model.ChannelStepper`, which draws the
channel forward in chunks as wall time advances.

Datagrams are decoded at ingress so the *real* queue disciplines from
:mod:`repro.netsim.queues` (drop-tail, the paper's RED configuration)
bound the buffer, and re-encoded on release.  Stochastic loss matches
``TraceLink``'s residual-loss model; the optional ``impairment`` hook
accepts the wrappers from :mod:`repro.netsim.impairments` — they treat
packets opaquely and schedule through the shared
:class:`~repro.live.clock.WallClock`, so the simulator's jitter /
reordering / duplication generators work unmodified on the live path.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..cellular.channel_model import ChannelStepper
from ..netsim.packet import MTU_BYTES, Packet
from ..netsim.queues import DropTailQueue
from .clock import WallClock
from .wire import WireFormatError, decode_packet, encode_packet

Address = Tuple[str, int]


@dataclass
class EmulatorStats:
    """Counters describing one emulator session."""

    data_in: int = 0
    delivered: int = 0
    bytes_delivered: int = 0
    wasted_opportunities: int = 0
    stochastic_losses: int = 0
    acks_forwarded: int = 0
    decode_errors: int = 0
    #: Datagrams deliberately damaged by an injected corruption fault.
    mangled: int = 0
    #: ACK datagrams dropped by an injected uplink blackout.
    uplink_blackout_drops: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _Socket(asyncio.DatagramProtocol):
    def __init__(self, on_datagram):
        self.on_datagram = on_datagram

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self.on_datagram(data, addr)


class LinkEmulator:
    """Forwards UDP datagrams through an emulated cellular downlink.

    Topology (all localhost)::

        sender --> [ingress socket] queue --opportunities--> [egress socket] --> receiver
               <-- [ingress socket] <------uplink delay----- [egress socket] <--

    Parameters
    ----------
    clock:
        The session's shared :class:`WallClock`; opportunity instants are
        absolute session times on this clock.
    trace:
        Replayed delivery-opportunity timestamps (seconds from session
        start), or a path to a trace file — mahimahi ``.pps``,
        newline-seconds or CSV rate series, auto-detected via
        :mod:`repro.traces.formats`.  Looped cyclically, like
        ``TraceLink``: on wraparound the next cycle continues ``gap_s``
        after the last opportunity (no dead span equal to the trace's
        first timestamp).
    stepper:
        Live channel generator; mutually exclusive with ``trace``.
    receiver:
        Where released data packets are sent.
    queue:
        Bounded queue discipline holding packets between arrival and
        release (default: drop-tail).
    downlink_delay:
        Fixed delay between a delivery opportunity releasing a packet and
        the datagram being written towards the receiver (the simulator's
        forward access path plus ``TraceLink`` core-network delay).
    uplink_delay:
        Fixed delay applied to reverse-path (ACK) datagrams.
    loss_rate:
        Residual stochastic loss applied per released data packet; needs
        ``rng``.
    impairment:
        Optional wrapper from :mod:`repro.netsim.impairments` constructed
        with this emulator's clock; its ``dst`` is set to the emulator's
        delivery tail and it replaces the plain downlink delay.
    faults:
        Optional downlink :class:`~repro.faults.injector.FaultInjector`
        (built with ``byte_corruption=True`` and this emulator's clock).
        Like ``impairment`` it replaces the plain downlink delay for
        packet-level faults (outages, burst loss, duplication, reorder
        storms), and additionally its :meth:`mangle` hook damages the
        *encoded* datagram at the delivery tail so corruption exercises
        the receiver's real parse path.  Mutually exclusive with
        ``impairment``.
    uplink_faults:
        Optional up-direction injector; only its blackout windows apply —
        ACK datagrams are dropped (and counted) while the uplink is dark.
    """

    def __init__(self, clock: WallClock,
                 trace: Optional[Sequence[float]] = None,
                 stepper: Optional[ChannelStepper] = None,
                 queue: Optional[DropTailQueue] = None,
                 downlink_delay: float = 0.010,
                 uplink_delay: float = 0.005,
                 loss_rate: float = 0.0,
                 bytes_per_opportunity: int = MTU_BYTES,
                 rng: Optional[np.random.Generator] = None,
                 stepper_chunk: float = 0.25,
                 gap_s: float = 0.001,
                 impairment=None,
                 faults=None,
                 uplink_faults=None):
        if (trace is None) == (stepper is None):
            raise ValueError("provide exactly one of trace or stepper")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1) (got {loss_rate})")
        if loss_rate > 0.0 and rng is None:
            raise ValueError("a stochastic loss rate needs a seeded rng")
        if downlink_delay < 0 or uplink_delay < 0:
            raise ValueError("delays must be non-negative")
        if gap_s <= 0:
            raise ValueError(f"gap_s must be positive (got {gap_s})")
        self.clock = clock
        self.stepper = stepper
        self.gap_s = float(gap_s)
        self.times: Optional[np.ndarray] = None
        if trace is not None:
            if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
                # Deferred import: repro.traces pulls in the campaign
                # layer, which the live path must not load eagerly.
                from ..traces.formats import read_trace_seconds
                arr = read_trace_seconds(trace)
            else:
                arr = np.asarray(trace, dtype=float)
            if arr.size == 0:
                raise ValueError("trace must contain at least one opportunity")
            if np.any(np.diff(arr) < 0):
                raise ValueError("trace timestamps must be sorted")
            self.times = arr
        self.queue = queue if queue is not None else DropTailQueue()
        self.downlink_delay = downlink_delay
        self.uplink_delay = uplink_delay
        self.loss_rate = loss_rate
        self.bytes_per_opportunity = int(bytes_per_opportunity)
        self.rng = rng
        self.stepper_chunk = stepper_chunk
        if impairment is not None and faults is not None:
            raise ValueError("impairment and faults are mutually exclusive; "
                             "express the impairment as a fault event")
        self.impairment = impairment
        if impairment is not None:
            impairment.dst = self._deliver_tail
        self.faults = faults
        if faults is not None:
            faults.dst = self._deliver_tail
        self.uplink_faults = uplink_faults
        self.stats = EmulatorStats()
        self.sender_addr: Optional[Address] = None
        self.receiver_addr: Optional[Address] = None
        self._ingress: Optional[asyncio.DatagramTransport] = None
        self._egress: Optional[asyncio.DatagramTransport] = None
        self._index = 0
        self._cycle = 0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def open(self, host: str = "127.0.0.1") -> Tuple[Address, Address]:
        """Bind both sockets; returns (ingress_addr, egress_addr)."""
        loop = asyncio.get_running_loop()
        self._ingress, _ = await loop.create_datagram_endpoint(
            lambda: _Socket(self._on_ingress), local_addr=(host, 0))
        self._egress, _ = await loop.create_datagram_endpoint(
            lambda: _Socket(self._on_egress), local_addr=(host, 0))
        return self.ingress_addr, self.egress_addr

    @property
    def ingress_addr(self) -> Address:
        """The sender-facing address."""
        if self._ingress is None:
            raise RuntimeError("emulator not open")
        return self._ingress.get_extra_info("sockname")[:2]

    @property
    def egress_addr(self) -> Address:
        """The receiver-facing address."""
        if self._egress is None:
            raise RuntimeError("emulator not open")
        return self._egress.get_extra_info("sockname")[:2]

    def start(self, receiver: Address) -> None:
        """Begin scheduling delivery opportunities towards ``receiver``."""
        if self._running:
            raise RuntimeError("emulator already started")
        self.receiver_addr = receiver
        self._running = True
        if self.stepper is not None:
            # Stay one chunk ahead of wall time so opportunities are
            # always scheduled into the future.
            self._schedule_chunk()
            self._schedule_chunk()
        else:
            self._schedule_next_replay()

    def stop(self) -> None:
        self._running = False

    def close(self) -> None:
        self.stop()
        for transport in (self._ingress, self._egress):
            if transport is not None:
                transport.close()
        self._ingress = self._egress = None

    # ------------------------------------------------------------------
    # Opportunity scheduling
    # ------------------------------------------------------------------
    def _schedule_next_replay(self) -> None:
        """Trace mode: schedule the next opportunity, looping the trace."""
        if not self._running or self.times is None:
            return
        if self._index >= self.times.size:
            self._index = 0
            self._cycle += 1
        # Same wraparound seam as TraceLink: the next cycle continues
        # gap_s after the last opportunity, not after a dead span equal
        # to the trace's first timestamp.
        period = float(self.times[-1] - self.times[0]) + self.gap_s
        when = self._cycle * period + float(self.times[self._index])
        self._index += 1
        self.clock.call_later(max(0.0, when - self.clock.now),
                              self._opportunity_replay)

    def _opportunity_replay(self) -> None:
        if not self._running:
            return
        self._opportunity()
        self._schedule_next_replay()

    def _schedule_chunk(self) -> None:
        """Stepper mode: draw one chunk of channel and schedule it."""
        if not self._running or self.stepper is None:
            return
        start = self.stepper.now
        for when in self.stepper.advance(self.stepper_chunk):
            self.clock.call_later(max(0.0, float(when) - self.clock.now),
                                  self._opportunity)
        # Refill when wall time reaches the start of the chunk just
        # drawn, keeping exactly one undrawn chunk of headroom.
        self.clock.call_later(max(0.0, start - self.clock.now),
                              self._schedule_chunk)

    def _opportunity(self) -> None:
        """One delivery opportunity: release up to one MTU of queued data."""
        if not self._running:
            return
        budget = self.bytes_per_opportunity
        served_any = False
        while budget > 0:
            head = self.queue.peek()
            if head is None or head.size > budget:
                break
            packet = self.queue.pop(self.clock.now)
            budget -= packet.size
            served_any = True
            self._release(packet)
        if not served_any:
            self.stats.wasted_opportunities += 1

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _on_ingress(self, data: bytes, addr: Address) -> None:
        """Sender-facing socket: queue data packets for the downlink."""
        self.sender_addr = addr
        try:
            packet = decode_packet(data)
        except WireFormatError:
            self.stats.decode_errors += 1
            return
        self.stats.data_in += 1
        self.queue.push(packet, self.clock.now)

    def _release(self, packet: Packet) -> None:
        """A packet won an opportunity: lose, impair, or deliver it."""
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.stats.stochastic_losses += 1
            return
        if self.faults is not None:
            self.faults.send(packet)
        elif self.impairment is not None:
            self.impairment.send(packet)
        elif self.downlink_delay > 0:
            self.clock.call_later(self.downlink_delay, self._deliver_tail, packet)
        else:
            self._deliver_tail(packet)

    def _deliver_tail(self, packet: Packet) -> None:
        if self._egress is None or self.receiver_addr is None:
            return
        data = encode_packet(packet)
        if self.faults is not None:
            damaged = self.faults.mangle(data)
            if damaged is not data:
                self.stats.mangled += 1
                data = damaged
        self._egress.sendto(data, self.receiver_addr)
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.size

    def _on_egress(self, data: bytes, addr: Address) -> None:
        """Receiver-facing socket: forward ACKs upstream after a delay.

        The reverse path is a plain delay line, as in the simulator's
        dumbbell — ACK bytes are forwarded verbatim, never re-encoded.
        """
        if self.sender_addr is None:
            return
        if self.uplink_faults is not None and self.uplink_faults.blocked():
            self.stats.uplink_blackout_drops += 1
            return
        self.stats.acks_forwarded += 1
        if self.uplink_delay > 0:
            self.clock.call_later(self.uplink_delay, self._forward_ack, data)
        else:
            self._forward_ack(data)

    def _forward_ack(self, data: bytes) -> None:
        if self._ingress is not None and self.sender_addr is not None:
            self._ingress.sendto(data, self.sender_addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LinkEmulator delivered={self.stats.delivered} "
                f"queued={len(self.queue)}>")
