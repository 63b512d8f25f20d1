"""Discrete-event network simulation substrate.

This package replaces the paper's OPNET simulator and ``tc``-shaped Ethernet
testbed: a heap-scheduled event engine, rate/queue/propagation links,
trace-driven cellular links, schedule-driven variable links, queue
disciplines (drop-tail, RED with the paper's parameters, CoDel) and dumbbell
topology wiring.
"""

from .engine import Event, PeriodicTimer, SimulationError, Simulator
from .fair_queue import DRRQueue
from .flow import Clock, Demux, EventHandle, ReceiverProtocol, SenderProtocol
from .impairments import DuplicatingLink, JitterLink, ReorderingLink
from .link import DelayLine, Link, LinkPhase, LinkSchedule, VariableLink
from .packet import ACK_BYTES, MTU_BYTES, Packet, PacketPool
from .queues import CoDelQueue, DropTailQueue, QueueStats, REDQueue
from .topology import Dumbbell, FlowHandle, OnOffSource, SinkReceiver
from .trace_link import TraceLink
from .tracing import PacketTap

__all__ = [
    "ACK_BYTES",
    "Clock",
    "CoDelQueue",
    "DelayLine",
    "Demux",
    "DRRQueue",
    "DropTailQueue",
    "Dumbbell",
    "DuplicatingLink",
    "Event",
    "EventHandle",
    "JitterLink",
    "ReorderingLink",
    "FlowHandle",
    "Link",
    "LinkPhase",
    "LinkSchedule",
    "MTU_BYTES",
    "OnOffSource",
    "Packet",
    "PacketPool",
    "PacketTap",
    "PeriodicTimer",
    "QueueStats",
    "REDQueue",
    "ReceiverProtocol",
    "SenderProtocol",
    "SimulationError",
    "Simulator",
    "SinkReceiver",
    "TraceLink",
    "VariableLink",
]
