"""Session driver: sender host + link emulator + receiver host, one call.

``run_live_session`` is the live twin of
:func:`repro.experiments.runner.run_trace_contention`: it takes the same
declarative :class:`~repro.experiments.runner.FlowSpec` list, builds the
same protocol endpoints through the same factory
(:func:`~repro.experiments.runner.make_endpoints`), runs them over real
localhost UDP datagrams through the :class:`LinkEmulator`, and returns
the same :class:`~repro.experiments.runner.ExperimentResult` — so any
analysis that consumes simulator results consumes live results
unchanged, and sim-vs-live comparisons are two calls with shared
arguments.

Everything runs in one process on one asyncio loop: three logical
actors (sender host, emulator, receiver host) on four UDP sockets.  A
single shared :class:`WallClock` keeps timestamps comparable across
actors, which is what lets the receiver compute one-way delays from the
sender's ``sent_time`` stamps without clock synchronisation.

Default delays mirror the simulator's §6.2 setup (``rtt=0.01``,
``access_delay=0.005``): the emulator's downlink delay plays the role of
forward access path + core-network delay (10 ms) and its uplink delay
the reverse acknowledgement path (5 ms).

Fault injection and graceful degradation: a
:class:`~repro.faults.spec.FaultSchedule` passed as ``fault_schedule``
is compiled onto the live path — packet-level faults on the downlink,
datagram mangling at the delivery tail (exercising the wire format's
CRC), blackout gating on the ACK path.  The sender host's
ACK-inactivity watchdog is armed automatically; if a flow stays silent
past the capped backoff threshold (a dead peer, not a scheduled
blackout — the threshold is sized from the schedule's longest dark
window), the session tears down early and returns a *partial*
:class:`ExperimentResult` flagged ``degraded`` instead of idling to the
deadline.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence

import numpy as np

from ..experiments.runner import (ExperimentResult, FlowSpec, make_endpoints,
                                  seed_tree)
from ..netsim.queues import DropTailQueue, REDQueue
from .clock import WallClock
from .emulator import LinkEmulator
from .host import WATCHDOG_BACKOFF_CAP, LiveHost


class LiveSessionError(RuntimeError):
    """Raised when a live session cannot be set up or run."""


def run_live_session(specs: Sequence[FlowSpec],
                     trace: Optional[np.ndarray] = None,
                     stepper=None,
                     duration: float = 10.0,
                     downlink_delay: float = 0.010,
                     uplink_delay: float = 0.005,
                     use_red: bool = True,
                     queue_bytes: Optional[int] = None,
                     loss_rate: float = 0.0,
                     warmup: float = 1.0,
                     seed: int = 0,
                     impairment_factory=None,
                     fault_schedule=None,
                     max_silence: Optional[float] = None,
                     host: str = "127.0.0.1") -> ExperimentResult:
    """Run ``specs`` over real UDP through the link emulator.

    Parameters mirror :func:`~repro.experiments.runner.run_trace_contention`
    where they overlap.  ``impairment_factory``, if given, is called with
    the session's :class:`WallClock` and must return an impairment link
    (e.g. ``lambda clock: JitterLink(clock, 0.0, 0.004, rng=rng)``)
    inserted on the downlink.

    ``fault_schedule`` compiles a declarative
    :class:`~repro.faults.spec.FaultSchedule` onto the live path (see the
    module docstring); it is mutually exclusive with
    ``impairment_factory``.  ``max_silence`` tunes the ACK-inactivity
    watchdog: ``None`` sizes it automatically from the schedule's longest
    blackout, a non-positive value disables it.

    ``duration`` is *wall-clock* seconds: a 10-second session takes ten
    real seconds (less if the watchdog declares the peer dead — the
    result is then flagged ``degraded`` and covers the time actually
    run).

    Raises :class:`LiveSessionError` when UDP sockets are unavailable
    (sandboxes without network namespaces).
    """
    if (trace is None) == (stepper is None):
        raise ValueError("provide exactly one of trace or stepper")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if impairment_factory is not None and fault_schedule is not None:
        raise ValueError("impairment_factory and fault_schedule are "
                         "mutually exclusive")
    specs = list(specs)
    if not specs:
        raise ValueError("at least one flow spec is required")

    try:
        return asyncio.run(_session(
            specs, trace, stepper, duration, downlink_delay, uplink_delay,
            use_red, queue_bytes, loss_rate, warmup, seed,
            impairment_factory, fault_schedule, max_silence, host))
    except OSError as exc:
        raise LiveSessionError(
            f"cannot run a live UDP session here: {exc}") from exc


def _auto_silence(fault_schedule, duration: float) -> float:
    """Watchdog base threshold sized so its *fatal* cap (``base × 8``)
    clears the schedule's longest blackout: a survivable outage trips
    non-fatal stall probes only, while a genuinely dead peer is declared
    within ``max(4 s, longest blackout + 1 s)``."""
    longest = 0.0
    if fault_schedule is not None:
        longest = max((end - start for start, end
                       in fault_schedule.outage_windows("both")),
                      default=0.0)
    return max(0.5, (longest + 1.0) / WATCHDOG_BACKOFF_CAP)


async def _session(specs, trace, stepper, duration, downlink_delay,
                   uplink_delay, use_red, queue_bytes, loss_rate, warmup,
                   seed, impairment_factory, fault_schedule, max_silence,
                   host) -> ExperimentResult:
    loop = asyncio.get_running_loop()
    clock = WallClock(loop)
    # The simulator's seed tree: one stream per stochastic component.
    seeds = seed_tree(seed, len(specs))
    if use_red:
        queue = REDQueue.paper_config(np.random.default_rng(seeds.queue))
    else:
        queue = DropTailQueue(capacity_bytes=queue_bytes)
    impairment = (impairment_factory(clock)
                  if impairment_factory is not None else None)

    down_faults = up_faults = None
    if fault_schedule is not None:
        from ..faults.injector import FaultInjector
        down_faults = FaultInjector(clock, fault_schedule,
                                    rng=np.random.default_rng(seeds.down),
                                    direction="down",
                                    base_delay=downlink_delay,
                                    byte_corruption=True)
        up_faults = FaultInjector(clock, fault_schedule,
                                  rng=np.random.default_rng(seeds.up),
                                  direction="up")

    emulator = LinkEmulator(
        clock, trace=trace, stepper=stepper, queue=queue,
        downlink_delay=downlink_delay, uplink_delay=uplink_delay,
        loss_rate=loss_rate, rng=np.random.default_rng(seeds.link),
        impairment=impairment, faults=down_faults, uplink_faults=up_faults)
    receiver_host = LiveHost(clock, name="receiver-host")
    sender_host = LiveHost(clock, name="sender-host")

    stop = asyncio.Event()
    degraded_reason: Optional[str] = None
    degraded_code: Optional[str] = None

    def on_stall(event) -> None:
        nonlocal degraded_reason, degraded_code
        if event.fatal and not stop.is_set():
            # Structured code (a dead peer is a hang as seen from this
            # side) + the human message.
            degraded_code = "hang"
            degraded_reason = (
                f"flow {event.flow_id} heard no ACK for "
                f"{event.silence:.2f}s (fatal threshold "
                f"{event.threshold:.2f}s) — peer presumed dead")
            stop.set()

    senders, receivers = [], []
    try:
        await emulator.open(host)
        receiver_addr = await receiver_host.open((host, 0))
        sender_host.peer = emulator.ingress_addr
        await sender_host.open((host, 0))

        for flow_id, (spec, flow_seed) in enumerate(zip(specs, seeds.flows)):
            sender, receiver = make_endpoints(spec, flow_id, flow_seed)
            sender_host.add_sender(sender)
            receiver_host.add_receiver(receiver)
            senders.append(sender)
            receivers.append(receiver)

        silence = (max_silence if max_silence is not None
                   else _auto_silence(fault_schedule, duration))
        if silence > 0:
            sender_host.start_watchdog(silence, on_stall)

        emulator.start(receiver=receiver_addr)
        for spec, sender in zip(specs, senders):
            clock.call_later(max(0.0, spec.start_at), sender.start)

        try:
            await asyncio.wait_for(stop.wait(),
                                   timeout=max(0.0, duration - clock.now))
        except asyncio.TimeoutError:
            pass
        ended_at = min(duration, clock.now)
        for sender in senders:
            if sender.running:
                sender.stop()
        # Grace period: let in-flight datagrams and final ACKs drain so
        # receiver-side statistics include the tail of the session.
        await asyncio.sleep(min(0.25, 2 * (downlink_delay + uplink_delay)
                                 + 0.05))
    finally:
        emulator.close()
        sender_host.close()
        receiver_host.close()
        # Give the transports a loop iteration to tear down cleanly.
        await asyncio.sleep(0)

    result = ExperimentResult(specs, senders, receivers, ended_at, warmup,
                              degraded=stop.is_set(),
                              degraded_reason=degraded_reason,
                              degraded_code=degraded_code)
    result.emulator_stats = emulator.stats
    result.wall_clock = clock
    result.live_counters = {
        "sender_host": sender_host.counters(),
        "receiver_host": receiver_host.counters(),
        "emulator": emulator.stats.as_dict(),
    }
    if down_faults is not None:
        result.fault_stats = {"down": down_faults.stats.as_dict(),
                              "up": up_faults.stats.as_dict()}
    result.stalls = list(sender_host.stalls)
    return result
