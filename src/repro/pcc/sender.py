"""PCC Allegro — Performance-oriented Congestion Control (NSDI 2015).

The paper singles PCC out (§2, [6]): it "proposes to empirically observe
and adopt actions that result in high performance, but PCC's adaptation
to 'rapidly' changing networks is on the order of seconds and does not
consider unpredictable fluctuations on the order of milliseconds that
occur in cellular networks."  This implementation lets the benchmarks
quantify that claim directly.

PCC is rate-based.  Time is split into *monitor intervals* (MIs) of
roughly one RTT.  Each MI measures throughput and loss and scores them
with the Allegro utility

    u(T, L) = T · (1 − 1/(1 + e^{−α(L − 0.05)})) − T·L

(α = 100; T = goodput).  The controller runs a three-state machine:

* **STARTING** — double the rate each MI while utility keeps rising;
  on the first drop, fall back to the previous rate and start testing.
* **DECISION** — run four MIs: two at rate·(1+ε), two at rate·(1−ε) in
  randomised order; move in whichever direction won both comparisons,
  otherwise stay and re-test with a larger ε.
* **ADJUSTING** — keep moving in the chosen direction with a step that
  grows each consecutive winning MI; revert and go back to DECISION as
  soon as utility falls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..netsim.engine import Event
from ..netsim.flow import ReceiverProtocol, SenderProtocol
from ..netsim.packet import MTU_BYTES, Packet

STARTING = "starting"
DECISION = "decision"
ADJUSTING = "adjusting"

#: Allegro utility parameters.
ALPHA = 100.0
LOSS_KNEE = 0.05


def allegro_utility(throughput_mbps: float, loss: float) -> float:
    """The Allegro utility function u(T, L)."""
    if throughput_mbps < 0 or not 0 <= loss <= 1:
        raise ValueError("throughput must be >= 0 and loss in [0, 1]")
    sigmoid = 1.0 / (1.0 + math.exp(-ALPHA * (loss - LOSS_KNEE)))
    return throughput_mbps * (1.0 - sigmoid) - throughput_mbps * loss


@dataclass
class MonitorInterval:
    """Bookkeeping for one monitor interval."""

    mi_id: int
    rate_pps: float
    start: float
    end: float = 0.0
    sent: int = 0
    acked: int = 0
    #: utility once evaluated
    utility: Optional[float] = None
    #: role in a decision round: +1 (rate up), -1 (rate down), 0 (plain)
    direction: int = 0

    def loss_rate(self) -> float:
        if self.sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.acked / self.sent)

    def throughput_mbps(self, packet_bytes: int) -> float:
        span = max(self.end - self.start, 1e-9)
        return self.acked * packet_bytes * 8.0 / span / 1e6


class PccSender(SenderProtocol):
    """PCC Allegro rate-based sender."""

    name = "pcc"

    def __init__(self, flow_id: int, initial_rate_pps: float = 100.0,
                 epsilon: float = 0.05, packet_bytes: int = MTU_BYTES,
                 min_rate_pps: float = 2.0, max_rate_pps: float = 50_000.0,
                 *, rng: np.random.Generator):
        super().__init__(flow_id)
        if initial_rate_pps <= 0 or epsilon <= 0 or epsilon >= 0.5:
            raise ValueError("need initial rate > 0 and 0 < epsilon < 0.5")
        self.packet_bytes = packet_bytes
        self.rate_pps = initial_rate_pps
        self.base_rate_pps = initial_rate_pps
        self.epsilon = epsilon
        self.min_rate_pps = min_rate_pps
        self.max_rate_pps = max_rate_pps
        self.rng = rng
        self.state = STARTING
        self._mi_counter = 0
        self._mis: Dict[int, MonitorInterval] = {}
        self._current_mi: Optional[MonitorInterval] = None
        self._next_seq = 0
        self._seq_to_mi: Dict[int, int] = {}
        self._send_event: Optional[Event] = None
        self._mi_event: Optional[Event] = None
        self._prev_utility: Optional[float] = None
        self._decision_queue: List[int] = []   # directions left to test
        self._decision_results: List[MonitorInterval] = []
        self._adjust_direction = 0
        self._adjust_steps = 0
        self.srtt: Optional[float] = None
        self.decisions = 0
        self.state_changes: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self._begin_mi(self.rate_pps, direction=0)
        self._emit()

    def stop(self) -> None:
        super().stop()
        for event in (self._send_event, self._mi_event):
            if event is not None:
                event.cancel()

    # ------------------------------------------------------------------
    # Paced transmission
    # ------------------------------------------------------------------
    def _emit(self) -> None:
        if not self.running:
            return
        mi = self._current_mi
        packet = Packet(flow_id=self.flow_id, seq=self._next_seq,
                        size=self.packet_bytes, sent_time=self.now)
        if mi is not None:
            mi.sent += 1
            self._seq_to_mi[self._next_seq] = mi.mi_id
        self._next_seq += 1
        self.send(packet)
        spacing = 1.0 / max(self.rate_pps, self.min_rate_pps)
        self._send_event = self.sim.schedule(spacing, self._emit)

    # ------------------------------------------------------------------
    # Monitor intervals
    # ------------------------------------------------------------------
    def _mi_duration(self) -> float:
        rtt = self.srtt if self.srtt is not None else 0.1
        return max(1.0 * rtt, 0.025)

    def _begin_mi(self, rate_pps: float, direction: int) -> None:
        self.rate_pps = float(np.clip(rate_pps, self.min_rate_pps,
                                      self.max_rate_pps))
        self._mi_counter += 1
        mi = MonitorInterval(mi_id=self._mi_counter, rate_pps=self.rate_pps,
                             start=self.now, direction=direction)
        self._mis[mi.mi_id] = mi
        self._current_mi = mi
        self._mi_event = self.sim.schedule(self._mi_duration(),
                                           self._end_mi, mi.mi_id)

    def _end_mi(self, mi_id: int) -> None:
        if not self.running:
            return
        mi = self._mis.get(mi_id)
        if mi is None:
            return
        mi.end = self.now
        # Evaluate after one RTT of grace so straggler ACKs are counted.
        grace = self.srtt if self.srtt is not None else 0.1
        self.sim.schedule(grace, self._evaluate_mi, mi_id)
        self._advance_state_machine()

    def _evaluate_mi(self, mi_id: int) -> None:
        mi = self._mis.get(mi_id)
        if mi is None or mi.utility is not None:
            return
        mi.utility = allegro_utility(mi.throughput_mbps(self.packet_bytes),
                                     mi.loss_rate())
        if mi.direction != 0:
            self._decision_results.append(mi)
            self._maybe_decide()
        elif self.state == STARTING:
            self._starting_step(mi)
        elif self.state == ADJUSTING:
            self._adjusting_step(mi)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _advance_state_machine(self) -> None:
        """Pick the rate for the next MI when the previous one closes."""
        if self.state == DECISION and self._decision_queue:
            direction = self._decision_queue.pop(0)
            rate = self.base_rate_pps * (1.0 + direction * self.epsilon)
            self._begin_mi(rate, direction=direction)
        elif self.state == DECISION:
            # Waiting for results; probe at the base rate meanwhile.
            self._begin_mi(self.base_rate_pps, direction=0)
        else:
            self._begin_mi(self.rate_pps, direction=0)

    def _enter_decision(self) -> None:
        self._set_state(DECISION)
        self.base_rate_pps = self.rate_pps
        order = [1, -1, 1, -1]
        self.rng.shuffle(order)
        self._decision_queue = order
        self._decision_results = []

    def _maybe_decide(self) -> None:
        if len(self._decision_results) < 4:
            return
        ups = [mi.utility for mi in self._decision_results
               if mi.direction > 0]
        downs = [mi.utility for mi in self._decision_results
                 if mi.direction < 0]
        self._decision_results = []
        self.decisions += 1
        if min(ups) > max(downs):
            self._start_adjusting(+1)
        elif min(downs) > max(ups):
            self._start_adjusting(-1)
        else:
            # Inconclusive: stay and re-test.
            self._enter_decision()

    def _start_adjusting(self, direction: int) -> None:
        self._set_state(ADJUSTING)
        self._adjust_direction = direction
        self._adjust_steps = 1
        self._prev_utility = None
        self.rate_pps = self.base_rate_pps * (
            1.0 + direction * self.epsilon)

    def _starting_step(self, mi: MonitorInterval) -> None:
        if self._prev_utility is None or mi.utility > self._prev_utility:
            self._prev_utility = mi.utility
            self.rate_pps = min(self.rate_pps * 2.0, self.max_rate_pps)
        else:
            self.rate_pps = max(self.rate_pps / 2.0, self.min_rate_pps)
            self._enter_decision()

    def _adjusting_step(self, mi: MonitorInterval) -> None:
        if self._prev_utility is None or mi.utility >= self._prev_utility:
            self._prev_utility = mi.utility
            self._adjust_steps += 1
            factor = 1.0 + (self._adjust_direction * self.epsilon
                            * self._adjust_steps)
            self.rate_pps = self.base_rate_pps * max(factor, 0.1)
        else:
            # Utility fell: step back once and re-enter decision making.
            back = 1.0 + (self._adjust_direction * self.epsilon
                          * max(self._adjust_steps - 1, 0))
            self.rate_pps = self.base_rate_pps * max(back, 0.1)
            self._enter_decision()

    def _set_state(self, state: str) -> None:
        if state != self.state:
            self.state = state
            self.state_changes.append(state)

    # ------------------------------------------------------------------
    # Acknowledgements
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        if not packet.is_ack or not self.running:
            return
        rtt = self.now - packet.echo_sent_time
        if rtt > 0:
            if self.srtt is None:
                self.srtt = rtt
            else:
                self.srtt += 0.125 * (rtt - self.srtt)
        mi_id = self._seq_to_mi.pop(packet.ack_seq, None)
        if mi_id is not None:
            mi = self._mis.get(mi_id)
            if mi is not None:
                mi.acked += 1


class PccReceiver(ReceiverProtocol):
    """Per-packet acknowledging receiver (PCC's feedback channel)."""
