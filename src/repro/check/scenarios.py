"""Audited check scenarios: deterministic runs with every monitor attached.

A :class:`CheckScenario` pins one protocol to a fully-specified,
content-addressable network setup: a schedule-driven bottleneck (so the
control law is exercised by genuine capacity changes), a bounded drop-tail
queue (so congestion drops occur), and seeded stochastic loss (so the
loss-recovery invariants fire).  :func:`run_audited` wires the path by
hand — counting taps at all four observation points, invariant monitors
on every seam — runs it, drains it, and returns the invariant report plus
the epoch-level ``(t, W, D_est, delay)`` rows the golden-trace oracle
diffs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from ..campaign.spec import _canonical_json
from ..core.sender import VerusSender
from ..experiments.runner import FlowSpec, make_endpoints
from ..netsim.engine import PeriodicTimer, Simulator
from ..netsim.link import DelayLine, LinkPhase, LinkSchedule, VariableLink
from ..netsim.packet import PacketPool
from ..netsim.queues import DropTailQueue
from ..netsim.trace_link import TraceLink
from ..netsim.topology import pooled_ack_sink
from ..netsim.tracing import PacketTap
from ..tcp.base import TcpSender
from .monitors import (
    MonotoneClockMonitor,
    QueueAccountingMonitor,
    TcpLawMonitor,
    VerusLawMonitor,
    audit_conservation,
)
from .report import InvariantReport

#: Scenarios with a pinned definition and a golden trace.  Most entries
#: are protocol names; "verus-trace" pins the same Verus sender to a
#: looped cellular-trace bottleneck instead of the schedule-driven link,
#: so the trace-replay machinery (wraparound included) sits under the
#: golden oracle too.
CHECK_PROTOCOLS = ("verus", "cubic", "vegas", "verus-trace")

#: Scenario name -> flow protocol, for scenario names that pin a variant
#: of one protocol to a different network substrate.
_FLOW_PROTOCOLS = {"verus-trace": "verus"}


def _flow_protocol(scenario_name: str) -> str:
    return _FLOW_PROTOCOLS.get(scenario_name, scenario_name)

#: Capacity multipliers applied to ``rate_bps``, one link phase each.
#: The repeating down/up pattern forces the window to track both
#: directions of capacity change within one run.
PHASE_FACTORS = (1.0, 0.5, 1.5, 0.75)


@dataclass(frozen=True)
class CheckScenario:
    """One content-addressed conformance run."""

    protocol: str
    seed: int = 7
    duration: float = 8.0
    rate_bps: float = 8e6
    rtt: float = 0.04
    queue_bytes: int = 120_000
    loss_rate: float = 0.004
    phase_seconds: float = 2.0
    sample_interval: float = 0.1
    drain: float = 2.0
    options: Tuple[Tuple[str, Any], ...] = ()
    #: "variable" (schedule-driven VariableLink) or "trace" (looped
    #: TraceLink over a short pinned cellular trace, so replay
    #: wraparound happens many times inside one audited run).
    bottleneck: str = "variable"

    def __post_init__(self) -> None:
        if isinstance(self.options, dict):
            object.__setattr__(self, "options",
                               tuple(sorted(self.options.items())))

    def to_dict(self) -> dict:
        payload = {
            "protocol": self.protocol,
            "seed": self.seed,
            "duration": self.duration,
            "rate_bps": self.rate_bps,
            "rtt": self.rtt,
            "queue_bytes": self.queue_bytes,
            "loss_rate": self.loss_rate,
            "phase_seconds": self.phase_seconds,
            "sample_interval": self.sample_interval,
            "drain": self.drain,
            "options": {k: v for k, v in self.options},
        }
        # Included only when non-default so every pre-existing scenario
        # keeps its content address (and therefore its blessed golden).
        if self.bottleneck != "variable":
            payload["bottleneck"] = self.bottleneck
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CheckScenario":
        payload = dict(payload)
        payload["options"] = tuple(sorted(payload.get("options", {}).items()))
        return cls(**payload)

    def key(self) -> str:
        """Content address of the scenario definition.

        Unlike campaign cache keys this deliberately excludes the code
        fingerprint: a golden trace should be invalidated by behaviour
        changes (which the diff detects) or scenario changes (which this
        key detects), never by a source edit alone.
        """
        return hashlib.sha256(
            _canonical_json(self.to_dict()).encode("utf-8")).hexdigest()


def build_scenario(protocol: str, **overrides) -> CheckScenario:
    """The pinned check scenario for ``protocol`` (plus overrides)."""
    if protocol not in CHECK_PROTOCOLS:
        raise ValueError(f"no check scenario for {protocol!r}; "
                         f"choose from {CHECK_PROTOCOLS}")
    options = {"r": 2.0} if _flow_protocol(protocol) == "verus" else {}
    params = dict(protocol=protocol, options=options)
    if protocol == "verus-trace":
        params["bottleneck"] = "trace"
        params["rate_bps"] = 2e6
    params.update(overrides)
    return CheckScenario(**params)


@dataclass
class AuditedRun:
    """Everything one audited scenario run produced."""

    scenario: CheckScenario
    report: InvariantReport
    #: Sampled ``[t, window, set_point, delay]`` rows (the golden trace).
    rows: List[List[float]]
    counts: Dict[str, int]
    sender: Any = None
    receiver: Any = None


def _round(value: float) -> float:
    """Stable short form for golden rows: 10 significant digits keeps the
    JSON tidy while staying far above simulation noise."""
    return float(f"{value:.10g}")


def _window_of(sender) -> float:
    if isinstance(sender, VerusSender):
        return float(sender.window)
    if isinstance(sender, TcpSender):
        return float(sender.cwnd)
    return float(getattr(sender, "window", 0.0) or 0.0)


def _setpoint_of(sender) -> float:
    if isinstance(sender, VerusSender):
        d_est = sender.window_estimator.d_est
        return float(d_est) if d_est is not None else 0.0
    if isinstance(sender, TcpSender):
        return float(sender.srtt) if sender.srtt is not None else 0.0
    return 0.0


#: Span of the pinned replay trace for "trace" bottleneck scenarios.
#: Deliberately short relative to ``duration`` + ``drain`` so the looped
#: replay wraps around many times inside one audited run — the seam
#: arithmetic (cycle base, continuation gap) is then squarely inside the
#: golden oracle's blast radius.
TRACE_SPAN_SECONDS = 1.5


def _check_trace(scenario: CheckScenario) -> np.ndarray:
    """The pinned delivery-opportunity trace for a trace-bottleneck
    scenario: derived only from scenario fields (``rate_bps`` sets the
    trace's mean rate), so the scenario's content address covers it.
    The rate is chosen low enough that the flow saturates the link and
    the queue stays loaded — replay-schedule defects then perturb
    delivery timing directly instead of hiding behind an idle link."""
    from ..cellular import generate_scenario_trace

    return generate_scenario_trace("city_stationary",
                                   duration=TRACE_SPAN_SECONDS,
                                   technology="3g", seed=scenario.seed,
                                   mean_rate_bps=scenario.rate_bps)


def run_audited(scenario: CheckScenario) -> AuditedRun:
    """Run ``scenario`` with every invariant monitor attached."""
    sim = Simulator()
    # The link draws from the root stream, the flow from its one child.
    root = np.random.SeedSequence(scenario.seed)
    rng = np.random.default_rng(root)
    spec = FlowSpec(protocol=_flow_protocol(scenario.protocol),
                    options=dict(scenario.options))
    sender, receiver = make_endpoints(spec, 0, root.spawn(1)[0])

    queue = DropTailQueue(capacity_bytes=scenario.queue_bytes)
    if scenario.bottleneck == "trace":
        link = TraceLink(sim, _check_trace(scenario), queue=queue,
                         delay=scenario.rtt / 2.0, loop=True,
                         loss_rate=scenario.loss_rate, rng=rng,
                         name="check-bottleneck")
    else:
        phases = [LinkPhase(duration=scenario.phase_seconds,
                            rate_bps=scenario.rate_bps * factor,
                            delay=scenario.rtt / 2.0,
                            loss_rate=scenario.loss_rate)
                  for factor in PHASE_FACTORS]
        link = VariableLink(sim, LinkSchedule(phases, repeat=True),
                            queue=queue, rng=rng, name="check-bottleneck")

    # Forward path: sender -> tap -> bottleneck -> tap -> receiver.
    # Reverse path: receiver -> tap -> delay line -> tap -> sender.
    in_tap = PacketTap(receiver.on_data)
    link.dst = in_tap
    out_tap = PacketTap(link.send)
    sender.attach(sim, out_tap)
    # The ACK freelist runs *under* the counting taps here, so the golden
    # comparison doubles as proof that pooling is invisible to them.
    ack_pool = PacketPool()
    receiver.ack_pool = ack_pool
    ack_in = PacketTap(pooled_ack_sink(sender.on_ack, ack_pool))
    reverse = DelayLine(sim, scenario.rtt / 2.0, dst=ack_in)
    ack_out = PacketTap(reverse.send)
    receiver.attach(sim, ack_out)

    report = InvariantReport()
    clock_monitor = MonotoneClockMonitor(report)
    sim.add_monitor(clock_monitor)
    if isinstance(sender, VerusSender):
        sender.observers.append(VerusLawMonitor(report))
    elif isinstance(sender, TcpSender):
        sender.observers.append(TcpLawMonitor(report))
    queue_monitor = QueueAccountingMonitor(report, queue, label="bottleneck")

    rows: List[List[float]] = []

    def sample() -> None:
        queue_monitor.audit(sim.now)
        delay = receiver.deliveries[-1][2] if receiver.deliveries else 0.0
        rows.append([_round(sim.now), _round(_window_of(sender)),
                     _round(_setpoint_of(sender)), _round(delay)])

    sampler = PeriodicTimer(sim, scenario.sample_interval, sample)
    sender.start()
    sampler.start()
    sim.run(until=scenario.duration)

    sampler.stop()
    if sender.running:
        sender.stop()
    # Drain: let the queue empty and every in-flight packet/ACK land, so
    # the conservation ledger balances exactly.
    sim.run(until=scenario.duration + scenario.drain)
    sim.remove_monitor(clock_monitor)

    counts = {
        "sent_data": out_tap.data,
        "received_data": in_tap.data,
        "acks_out": ack_out.acks,
        "acks_in": ack_in.acks,
        "link_delivered": link.delivered,
        "queue_dropped": queue.stats.dropped,
        "stochastic_losses": link.stochastic_losses,
        "queue_len": len(queue),
        "events": sim.events_processed,
    }
    audit_conservation(report, counts, time=sim.now)
    queue_monitor.audit(sim.now)

    return AuditedRun(scenario=scenario, report=report, rows=rows,
                      counts=counts, sender=sender, receiver=receiver)
