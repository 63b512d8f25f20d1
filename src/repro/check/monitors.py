"""Runtime invariant monitors.

Three attachment seams feed these monitors:

* :meth:`Simulator.add_monitor <repro.netsim.engine.Simulator.add_monitor>`
  runs a callable before every event — :class:`MonotoneClockMonitor` uses
  it to audit the scheduler itself;
* ``SenderProtocol.observers`` receives control-law events (``on_epoch``,
  ``on_setpoint``, ``on_loss``, ``on_window``) emitted by the concrete
  senders — :class:`VerusLawMonitor` and :class:`TcpLawMonitor` check the
  paper's §4 algorithm and the TCP skeleton against them;
* end-of-run audits (:func:`audit_conservation`,
  :class:`QueueAccountingMonitor`) reconcile packet counters across taps,
  queue statistics, and link statistics.

All monitors write into one shared
:class:`~repro.check.report.InvariantReport` and never mutate the system
under test.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from .report import InvariantReport

#: Slack for floating-point comparisons on windows/delays.
EPS = 1e-9


def _finite(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value)


class MonotoneClockMonitor:
    """Event times handed to the scheduler seam must never go backwards."""

    name = "monotone-clock"

    def __init__(self, report: InvariantReport):
        self.report = report
        self._last = float("-inf")

    def __call__(self, time: float) -> None:
        self.report.count(self.name)
        if time < self._last - EPS:
            self.report.violate(self.name, time,
                                f"event time {time:.9f} precedes "
                                f"{self._last:.9f}")
        self._last = max(self._last, time)


class VerusLawMonitor:
    """Checks the Verus control law (§4) at its observer events.

    * ``on_loss`` — eq. 6: the post-loss window must not exceed
      ``max(min_window, M × W_loss)``;
    * ``on_setpoint`` — eq. 4: ``D_est`` stays finite and at or above the
      ``D_min`` the update actually used;
    * ``on_epoch`` — the window stays positive, within the configured
      bounds, and the retransmission backlog never exceeds the in-flight
      set it is drawn from.
    """

    def __init__(self, report: InvariantReport):
        self.report = report

    # -- observer events ------------------------------------------------
    def on_loss(self, sender, *, time: float, w_loss: float,
                w_after: float, kind: str, **extra) -> None:
        cfg = sender.config
        self.report.count("loss-decrease")
        allowed = max(cfg.min_window, cfg.multiplicative_decrease * w_loss)
        if w_after > allowed + EPS:
            self.report.violate(
                "loss-decrease", time, flow_id=sender.flow_id,
                message=f"{kind} loss at W={w_loss:.3f} left window at "
                        f"{w_after:.3f} > M*W={allowed:.3f}")
        if not w_after > 0:
            self.report.violate("window-bounds", time, flow_id=sender.flow_id,
                                message=f"post-loss window {w_after!r} "
                                        f"not positive")

    def on_setpoint(self, sender, *, time: float, d_est: float,
                    d_min: float, d_max: float, window: float,
                    **extra) -> None:
        self.report.count("dest-bounds")
        if not _finite(d_est):
            self.report.violate("dest-bounds", time, flow_id=sender.flow_id,
                                message=f"D_est is {d_est!r}")
            return
        if d_est < d_min - EPS:
            self.report.violate(
                "dest-bounds", time, flow_id=sender.flow_id,
                message=f"D_est={d_est * 1e3:.3f}ms below the "
                        f"D_min={d_min * 1e3:.3f}ms floor eq. 4 used")
        cfg = sender.config
        self.report.count("window-bounds")
        if not (_finite(window)
                and cfg.min_window - EPS <= window <= cfg.max_window + EPS):
            self.report.violate(
                "window-bounds", time, flow_id=sender.flow_id,
                message=f"epoch window {window!r} outside "
                        f"[{cfg.min_window}, {cfg.max_window}]")

    def on_epoch(self, sender, *, time: float, window: float, d_est,
                 mode: str, inflight: int, pending_rtx: int,
                 **extra) -> None:
        self.report.count("window-bounds")
        if not (_finite(window) and window > 0):
            self.report.violate("window-bounds", time, flow_id=sender.flow_id,
                                message=f"window {window!r} in mode {mode}")
        self.report.count("inflight-accounting")
        if pending_rtx > inflight:
            self.report.violate(
                "inflight-accounting", time, flow_id=sender.flow_id,
                message=f"{pending_rtx} pending retransmissions exceed "
                        f"{inflight} in-flight records")


class TcpLawMonitor:
    """Checks the shared TCP skeleton at its observer events.

    * ``on_loss`` — multiplicative decrease: a loss event must not leave
      the target window above the pre-loss window (the ssthresh floor of
      2 segments is the only tolerated exception);
    * ``on_window`` — cwnd stays positive and finite, ssthresh stays at
      or above the 2-segment floor.
    """

    #: RFC floor every ssthresh computation in the skeleton respects.
    SSTHRESH_FLOOR = 2.0

    def __init__(self, report: InvariantReport):
        self.report = report

    def on_loss(self, sender, *, time: float, w_loss: float,
                w_after: float, kind: str, **extra) -> None:
        self.report.count("loss-decrease")
        decreased = w_after <= w_loss - EPS
        at_floor = w_after <= self.SSTHRESH_FLOOR + EPS
        if not (decreased or at_floor):
            self.report.violate(
                "loss-decrease", time, flow_id=sender.flow_id,
                message=f"{kind} at cwnd={w_loss:.3f} set the target to "
                        f"{w_after:.3f} (no decrease)")

    def on_window(self, sender, *, time: float, window: float,
                  ssthresh: float, flight: int, **extra) -> None:
        self.report.count("window-bounds")
        if not (_finite(window) and window > 0):
            self.report.violate("window-bounds", time, flow_id=sender.flow_id,
                                message=f"cwnd {window!r}")
        if ssthresh < self.SSTHRESH_FLOOR - EPS:
            self.report.violate(
                "window-bounds", time, flow_id=sender.flow_id,
                message=f"ssthresh {ssthresh!r} below the 2-segment floor")
        self.report.count("inflight-accounting")
        if flight < 0:
            self.report.violate("inflight-accounting", time,
                                flow_id=sender.flow_id,
                                message=f"negative flight {flight}")


def arm_monitors(report: InvariantReport, sim,
                 senders) -> MonotoneClockMonitor:
    """Arm one run: a :class:`MonotoneClockMonitor` on ``sim``'s scheduler
    seam, then each sender's control-law monitor (Verus:
    :class:`VerusLawMonitor`, TCP: :class:`TcpLawMonitor`; other senders
    have none).  Returns the clock monitor, so the caller can remove it
    before a drain phase."""
    from ..core.sender import VerusSender
    from ..tcp.base import TcpSender

    clock = MonotoneClockMonitor(report)
    sim.add_monitor(clock)
    for sender in senders:
        if isinstance(sender, VerusSender):
            sender.observers.append(VerusLawMonitor(report))
        elif isinstance(sender, TcpSender):
            sender.observers.append(TcpLawMonitor(report))
    return clock


class MonitorSession:
    """A stand-in telemetry session that records nothing but arms the
    monitors: activated with :func:`repro.obs.timeline.telemetry`, it is
    attached by the experiment runner to every run it builds, and the
    runs' violations collect in :attr:`report`."""

    def __init__(self) -> None:
        self.report = InvariantReport()

    def attach(self, sim, senders, specs=None, receivers=()) -> None:
        arm_monitors(self.report, sim, senders)

    def finalize(self, sim) -> None:
        pass


class QueueAccountingMonitor:
    """Reconciles a queue's counters with its actual contents.

    Called periodically (from the audited run's sampling timer) and once
    after the drain phase: ``enqueued == dequeued + occupancy`` must hold
    at all times, in packets and in bytes, and the byte gauge must equal
    the sum of the queued packets' sizes.
    """

    name = "queue-accounting"

    def __init__(self, report: InvariantReport, queue, label: str = "queue"):
        self.report = report
        self.queue = queue
        self.label = label

    def audit(self, time: float) -> None:
        queue, stats = self.queue, self.queue.stats
        self.report.count(self.name)
        if stats.enqueued != stats.dequeued + len(queue):
            self.report.violate(
                self.name, time,
                message=f"{self.label}: enqueued={stats.enqueued} != "
                        f"dequeued={stats.dequeued} + occupancy={len(queue)}")
        actual_bytes = sum(p.size for p in queue._queue)
        if queue.bytes != actual_bytes:
            self.report.violate(
                self.name, time,
                message=f"{self.label}: byte gauge {queue.bytes} != "
                        f"summed contents {actual_bytes}")
        if stats.bytes_enqueued != stats.bytes_dequeued + queue.bytes:
            self.report.violate(
                self.name, time,
                message=f"{self.label}: bytes_enqueued="
                        f"{stats.bytes_enqueued} != bytes_dequeued="
                        f"{stats.bytes_dequeued} + gauge={queue.bytes}")


def audit_conservation(report: InvariantReport, counts: Dict[str, int],
                       time: float) -> None:
    """End-of-run packet conservation across the audited path.

    ``counts`` comes from :func:`repro.check.scenarios.run_audited`: tap
    counters at the four observation points plus queue/link statistics.
    After the drain phase every data packet the sender emitted must be
    accounted for as delivered, queue-dropped, or stochastically lost —
    and the lossless reverse path must conserve acknowledgements exactly.
    """
    report.count("conservation", 4)
    sent = counts["sent_data"]
    explained = (counts["link_delivered"] + counts["queue_dropped"]
                 + counts["stochastic_losses"] + counts["queue_len"])
    if sent != explained:
        report.violate(
            "conservation", time,
            message=f"{sent} data packets sent but only {explained} "
                    f"accounted for (delivered={counts['link_delivered']}, "
                    f"dropped={counts['queue_dropped']}, "
                    f"lost={counts['stochastic_losses']}, "
                    f"queued={counts['queue_len']})")
    if counts["received_data"] != counts["link_delivered"]:
        report.violate(
            "conservation", time,
            message=f"link claims {counts['link_delivered']} deliveries but "
                    f"the receiver tap saw {counts['received_data']}")
    if counts["queue_len"] != 0:
        report.violate("conservation", time,
                       message=f"{counts['queue_len']} packets still queued "
                               f"after the drain phase")
    if counts["acks_in"] != counts["acks_out"]:
        report.violate(
            "conservation", time,
            message=f"lossless reverse path lost acknowledgements: "
                    f"{counts['acks_out']} sent, {counts['acks_in']} arrived")
