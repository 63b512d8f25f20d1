"""Experiment runners: wire protocols onto topologies and collect stats.

Three topology archetypes cover every experiment in the paper:

* **trace-driven contention** (§6.2): N flows share a cellular
  :class:`~repro.netsim.trace_link.TraceLink` behind the paper's RED queue;
* **fixed dumbbell** (§7): N flows share a constant-rate bottleneck, as in
  the ``tc``-shaped Ethernet micro-evaluations;
* **variable dumbbell** (§7 "rapidly changing networks"): the bottleneck
  follows a :class:`~repro.netsim.link.LinkSchedule`.

Protocols are referred to by name (``verus``, ``cubic``, ``newreno``,
``vegas``, ``sprout``) via :func:`make_endpoints`, so experiment code and
benchmarks stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core import VerusConfig, VerusReceiver, VerusSender
from ..metrics import FlowStats, flow_stats
from ..netsim import (
    DropTailQueue,
    Dumbbell,
    Link,
    LinkSchedule,
    REDQueue,
    Simulator,
    TraceLink,
    VariableLink,
)
from ..netsim.flow import ReceiverProtocol, SenderProtocol
from ..pcc import PccReceiver, PccSender
from ..sprout import SproutForecaster, SproutReceiver, SproutSender
from ..tcp import (
    BinomialSender,
    CompoundSender,
    CubicSender,
    LedbatSender,
    NewRenoSender,
    TcpReceiver,
    VegasSender,
)

if TYPE_CHECKING:
    from ..faults.spec import FaultSchedule

PROTOCOL_NAMES = ("verus", "cubic", "newreno", "vegas", "sprout",
                  "pcc", "ledbat", "compound", "binomial")


@dataclass
class FlowSpec:
    """Declarative description of one flow in an experiment."""

    protocol: str
    label: str = ""
    start_at: float = 0.0
    rtt: Optional[float] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOL_NAMES}")
        if not self.label:
            self.label = self.protocol


def make_endpoints(spec: FlowSpec, flow_id: int,
                   seed: np.random.SeedSequence
                   ) -> Tuple[SenderProtocol, ReceiverProtocol]:
    """Instantiate the sender/receiver pair for a flow spec.

    ``seed`` is the flow's own child of the run's seed tree (see
    :func:`seed_tree`); a protocol that draws random numbers builds its
    Generator from it, so no two flows share a stream.
    """
    opts = dict(spec.options)
    if spec.protocol == "verus":
        config = opts.pop("config", None)
        transfer_bytes = opts.pop("transfer_bytes", None)
        if config is None:
            config = VerusConfig(**opts)
        return (VerusSender(flow_id, config, transfer_bytes=transfer_bytes),
                VerusReceiver(flow_id))
    if spec.protocol == "cubic":
        return CubicSender(flow_id, **opts), TcpReceiver(flow_id)
    if spec.protocol == "newreno":
        return NewRenoSender(flow_id, **opts), TcpReceiver(flow_id)
    if spec.protocol == "vegas":
        return VegasSender(flow_id, **opts), TcpReceiver(flow_id)
    if spec.protocol == "sprout":
        sender_opts = {k: opts.pop(k) for k in ("rate_cap_bps",)
                       if k in opts}
        forecaster = SproutForecaster(**opts) if opts else None
        return (SproutSender(flow_id, **sender_opts),
                SproutReceiver(flow_id, forecaster))
    if spec.protocol == "pcc":
        return (PccSender(flow_id, rng=np.random.default_rng(seed), **opts),
                PccReceiver(flow_id))
    if spec.protocol == "ledbat":
        return LedbatSender(flow_id, **opts), TcpReceiver(flow_id)
    if spec.protocol == "compound":
        return CompoundSender(flow_id, **opts), TcpReceiver(flow_id)
    if spec.protocol == "binomial":
        return BinomialSender(flow_id, **opts), TcpReceiver(flow_id)
    raise ValueError(f"unknown protocol {spec.protocol!r}")


@dataclass
class ExperimentResult:
    """Everything an experiment produced, per flow."""

    specs: List[FlowSpec]
    senders: List[SenderProtocol]
    receivers: List[ReceiverProtocol]
    duration: float
    warmup: float
    #: Set when the run ended early or lost a peer (live path teardown,
    #: fault-injected blackout that never healed, ...).  Stats computed
    #: from a degraded result cover only the time actually run.
    degraded: bool = False
    degraded_reason: Optional[str] = None
    #: Structured code ("hang": a live peer went silent, "degraded": the
    #: downlink never healed) alongside the human-readable reason string
    #: above, so callers do not have to parse prose.
    degraded_code: Optional[str] = None
    #: Per-direction :class:`~repro.faults.injector.FaultStats` dicts
    #: (``{"down": ..., "up": ...}``) when a fault schedule was applied.
    #: Kept out of :meth:`summary`, which carries delivery statistics only.
    fault_stats: Optional[dict] = None

    def deliveries(self, flow_id: int):
        return self.receivers[flow_id].deliveries

    def per_flow_deliveries(self) -> Dict[int, list]:
        return {i: r.deliveries for i, r in enumerate(self.receivers)}

    def stats(self, flow_id: int) -> FlowStats:
        spec = self.specs[flow_id]
        return flow_stats(self.receivers[flow_id].deliveries,
                          flow_id=flow_id, label=spec.label,
                          start=max(self.warmup, spec.start_at),
                          end=self.duration)

    def all_stats(self) -> List[FlowStats]:
        return [self.stats(i) for i in range(len(self.specs))]

    def stats_by_label(self) -> Dict[str, List[FlowStats]]:
        grouped: Dict[str, List[FlowStats]] = {}
        for stat in self.all_stats():
            grouped.setdefault(stat.label, []).append(stat)
        return grouped

    def summary(self) -> dict:
        """JSON-safe summary of the experiment: per-flow statistics plus
        the spec each flow ran under.  Live sender/receiver objects (and
        their delivery logs) are dropped, so the payload can be persisted
        by the campaign result store and reloaded with
        :func:`summary_stats`."""
        return {
            "duration": float(self.duration),
            "warmup": float(self.warmup),
            "degraded": bool(self.degraded),
            "degraded_reason": self.degraded_reason,
            "degraded_code": self.degraded_code,
            "flows": [
                {
                    "protocol": spec.protocol,
                    "label": spec.label,
                    "start_at": float(spec.start_at),
                    "stats": stat.to_dict(),
                }
                for spec, stat in zip(self.specs, self.all_stats())
            ],
        }


def summary_stats(summary: dict) -> List[FlowStats]:
    """Rehydrate the :class:`FlowStats` list from a ``summary()`` payload."""
    return [FlowStats.from_dict(flow["stats"]) for flow in summary["flows"]]


class SeedTree(NamedTuple):
    """Every seed stream of one §6.2 run, all descended from
    ``SeedSequence(seed)``.

    The RED queue draws from the root itself, which makes exactly the
    draws ``default_rng(seed)`` does.  The link's stochastic loss and the
    downlink and uplink fault injectors take the first three spawned
    children, and each flow one child after those.  The simulator and
    the live path both seed through :func:`seed_tree`, so one seed hands
    the same stream to the same component on either backend.
    """

    queue: np.random.SeedSequence
    link: np.random.SeedSequence
    down: np.random.SeedSequence
    up: np.random.SeedSequence
    flows: List[np.random.SeedSequence]


def seed_tree(seed: int, flows: int) -> SeedTree:
    """The :class:`SeedTree` of a run with ``flows`` flows."""
    root = np.random.SeedSequence(seed)
    link, down, up = root.spawn(3)
    return SeedTree(root, link, down, up, root.spawn(flows))


def _run_dumbbell(sim: Simulator, bottleneck, specs: Sequence[FlowSpec],
                  flow_seeds: Sequence[np.random.SeedSequence],
                  duration: float, default_rtt: float, warmup: float,
                  downlink=None, uplink=None) -> ExperimentResult:
    bell = Dumbbell(sim, bottleneck, default_rtt=default_rtt,
                    downlink=downlink, uplink=uplink)
    senders, receivers = [], []
    for flow_id, (spec, flow_seed) in enumerate(zip(specs, flow_seeds)):
        sender, receiver = make_endpoints(spec, flow_id, flow_seed)
        bell.add_flow(sender, receiver, rtt=spec.rtt, start_at=spec.start_at)
        senders.append(sender)
        receivers.append(receiver)
    # Telemetry seam: when a session is active (repro run --telemetry,
    # or a faulted campaign cell's law monitors), attach it to every
    # flow.  The local import keeps repro.obs out of the hot import
    # path, and the common no-session case costs one None check per
    # experiment.
    from ..obs.timeline import current_session
    session = current_session()
    if session is not None:
        session.attach(sim, senders, specs=specs, receivers=receivers)
    sim.run(until=duration)
    if session is not None:
        session.finalize(sim)
    # Teardown: with the pending events gone and every sender cut from
    # its forward access line, nothing the result keeps (senders, their
    # timers and ACK paths, receivers) reaches the bottleneck, so the
    # link, its queue and its trace are freed by reference counting as
    # soon as this returns, not at the collector's next full pass.
    sim.drop_pending()
    for sender in senders:
        sender.detach()
    return ExperimentResult(list(specs), senders, receivers, duration, warmup)


def run_trace_contention(trace: np.ndarray, specs: Sequence[FlowSpec],
                         duration: float, rtt: float = 0.01,
                         access_delay: float = 0.005,
                         use_red: bool = True,
                         loss_rate: float = 0.0,
                         warmup: float = 5.0,
                         seed: int = 0,
                         faults: Optional[FaultSchedule] = None
                         ) -> ExperimentResult:
    """§6.2 setup: flows share a replayed cellular trace behind RED.

    The RED queue uses the paper's parameters (min 3 Mbit, max 9 Mbit,
    drop probability 10%); ``access_delay`` models the core-network path
    between the server and the base station.

    With a fault schedule, a downlink
    :class:`~repro.faults.injector.FaultInjector` sits between the
    bottleneck and the data demux and an uplink injector on the shared
    acknowledgement path, after each flow's reverse delay.  The result
    then carries the injectors' accounting as ``fault_stats`` and is
    flagged ``degraded`` when the downlink never carried a packet after
    the final blackout — the sim-side analogue of a live peer that died
    and had to be torn down.  An empty schedule changes nothing.
    """
    sim = Simulator()
    seeds = seed_tree(seed, len(specs))
    queue = (REDQueue.paper_config(np.random.default_rng(seeds.queue))
             if use_red else None)
    bottleneck = TraceLink(sim, trace, queue=queue, delay=access_delay,
                           loop=True, loss_rate=loss_rate,
                           rng=np.random.default_rng(seeds.link))
    if faults is None:
        return _run_dumbbell(sim, bottleneck, specs, seeds.flows, duration,
                             rtt, warmup)

    from ..faults.injector import FaultInjector
    down = FaultInjector(sim, faults, rng=np.random.default_rng(seeds.down),
                         direction="down")
    up = FaultInjector(sim, faults, rng=np.random.default_rng(seeds.up),
                       direction="up")
    result = _run_dumbbell(sim, bottleneck, specs, seeds.flows, duration,
                           rtt, warmup, downlink=down, uplink=up)
    result.fault_stats = {"down": down.stats.as_dict(),
                          "up": up.stats.as_dict()}
    dark_until = faults.last_outage_end("down")
    if dark_until is not None and dark_until < duration:
        healed = any(any(d[0] >= dark_until for d in r.deliveries)
                     for r in result.receivers)
        if not healed:
            result.degraded = True
            result.degraded_code = "degraded"
            result.degraded_reason = ("no downlink delivery after the "
                                      f"blackout ended at t={dark_until:g}s")
    return result


def run_fixed_dumbbell(rate_bps: float, specs: Sequence[FlowSpec],
                       duration: float, rtt: float = 0.05,
                       queue_bytes: Optional[int] = None,
                       loss_rate: float = 0.0,
                       warmup: float = 5.0,
                       seed: int = 0) -> ExperimentResult:
    """§7 setup: constant-rate Ethernet bottleneck (the tc testbed)."""
    sim = Simulator()
    seeds = seed_tree(seed, len(specs))
    queue = DropTailQueue(capacity_bytes=queue_bytes)
    bottleneck = Link(sim, rate_bps, queue=queue, loss_rate=loss_rate,
                      rng=np.random.default_rng(seeds.link))
    return _run_dumbbell(sim, bottleneck, specs, seeds.flows, duration,
                         rtt, warmup)


def run_variable_dumbbell(schedule: LinkSchedule, specs: Sequence[FlowSpec],
                          duration: float, rtt: float = 0.02,
                          queue_bytes: Optional[int] = 3_000_000,
                          warmup: float = 5.0,
                          seed: int = 0) -> ExperimentResult:
    """§7 "rapidly changing network": schedule-driven bottleneck."""
    sim = Simulator()
    seeds = seed_tree(seed, len(specs))
    queue = DropTailQueue(capacity_bytes=queue_bytes)
    bottleneck = VariableLink(sim, schedule, queue=queue,
                              rng=np.random.default_rng(seeds.link))
    return _run_dumbbell(sim, bottleneck, specs, seeds.flows, duration,
                         rtt, warmup)


def repeat_flows(protocol: str, count: int, label: Optional[str] = None,
                 start_stagger: float = 0.0, **options) -> List[FlowSpec]:
    """Convenience: N identical flows, optionally staggered in time."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return [FlowSpec(protocol=protocol,
                     label=label if label is not None else protocol,
                     start_at=i * start_stagger, options=dict(options))
            for i in range(count)]
