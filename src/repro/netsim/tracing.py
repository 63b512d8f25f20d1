"""Counting taps: how many packets crossed one point of a path.

A :class:`PacketTap` sits in front of any destination callable, forwards
every packet unchanged, and counts the data packets and ACKs it saw.  The
audited check runs place one at each of the four points of a path
(sender out, receiver in, receiver ACK out, sender ACK in) and balance
the conservation ledger from their counts.
"""

from __future__ import annotations

from typing import Callable, Optional

from .packet import Packet

Destination = Callable[[Packet], None]


class PacketTap:
    """Transparent counting pass-through in front of ``dst``."""

    __slots__ = ("dst", "data", "acks")

    def __init__(self, dst: Optional[Destination] = None):
        self.dst = dst
        self.data = 0
        self.acks = 0

    def __call__(self, packet: Packet) -> None:
        if packet.is_ack:
            self.acks += 1
        else:
            self.data += 1
        if self.dst is not None:
            self.dst(packet)
