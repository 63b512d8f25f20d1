"""Unit tests for the PCC Allegro sender internals (repro.pcc.sender).

End-to-end behaviour (convergence, adaptation to rate drops, the §2
Verus-vs-PCC comparison) lives in tests/test_extended_baselines.py.  These
tests pin the pieces underneath: monitor-interval bookkeeping, the
STARTING/DECISION/ADJUSTING state machine step functions, rate clamping,
and the acknowledgement plumbing — all at the unit level, without a
network between the sender and its feedback.
"""

import math

import numpy as np
import pytest

from repro.netsim.packet import Packet
from repro.pcc import (
    ADJUSTING,
    DECISION,
    STARTING,
    MonitorInterval,
    PccSender,
)


class FakeEvent:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    @property
    def active(self):
        return not self.cancelled


class FakeClock:
    """Minimal Clock: settable time, schedule records without firing."""

    def __init__(self):
        self.now = 0.0
        self.events = []

    def schedule(self, delay, callback, *args):
        event = FakeEvent()
        self.events.append((delay, callback, args, event))
        return event


def make_sender(**kwargs):
    sender = PccSender(0, rng=np.random.default_rng(0), **kwargs)
    sender.sent_packets = []
    sender.attach(FakeClock(), sender.sent_packets.append)
    return sender


def make_mi(mi_id, utility, direction=0, rate_pps=100.0):
    mi = MonitorInterval(mi_id=mi_id, rate_pps=rate_pps, start=0.0, end=0.1)
    mi.utility = utility
    mi.direction = direction
    return mi


class TestMonitorInterval:
    def test_loss_rate_with_nothing_sent_is_zero(self):
        mi = MonitorInterval(mi_id=1, rate_pps=10.0, start=0.0)
        assert mi.loss_rate() == 0.0

    def test_loss_rate_is_fraction_unacked(self):
        mi = MonitorInterval(mi_id=1, rate_pps=10.0, start=0.0,
                             sent=10, acked=7)
        assert mi.loss_rate() == pytest.approx(0.3)

    def test_loss_rate_clamped_when_acks_exceed_sends(self):
        # Straggler ACKs from a previous MI must not yield negative loss.
        mi = MonitorInterval(mi_id=1, rate_pps=10.0, start=0.0,
                             sent=5, acked=8)
        assert mi.loss_rate() == 0.0

    def test_throughput_from_acked_bytes_over_span(self):
        mi = MonitorInterval(mi_id=1, rate_pps=10.0, start=2.0, end=3.0,
                             sent=10, acked=10)
        assert mi.throughput_mbps(1400) == pytest.approx(10 * 1400 * 8 / 1e6)

    def test_throughput_zero_span_stays_finite(self):
        mi = MonitorInterval(mi_id=1, rate_pps=10.0, start=1.0, end=1.0,
                             sent=1, acked=1)
        assert math.isfinite(mi.throughput_mbps(1400))


class TestLifecycle:
    def test_start_emits_first_packet_and_opens_an_mi(self):
        sender = make_sender(initial_rate_pps=50.0)
        sender.start()
        assert sender.state == STARTING
        assert len(sender.sent_packets) == 1
        mi = sender._current_mi
        assert mi is not None and mi.sent == 1
        assert sender._seq_to_mi[sender.sent_packets[0].seq] == mi.mi_id

    def test_packets_are_paced_at_the_current_rate(self):
        sender = make_sender(initial_rate_pps=50.0)
        sender.start()
        spacing = [delay for delay, callback, _, _ in sender.sim.events
                   if callback == sender._emit]
        assert spacing == [pytest.approx(1.0 / 50.0)]

    def test_stop_cancels_pacing_and_mi_timers(self):
        sender = make_sender()
        sender.start()
        sender.stop()
        assert sender._send_event.cancelled
        assert sender._mi_event.cancelled
        assert not sender.running

    def test_begin_mi_clamps_rate_to_bounds(self):
        sender = make_sender(min_rate_pps=5.0, max_rate_pps=1000.0)
        sender.running = True
        sender._begin_mi(1e9, direction=0)
        assert sender.rate_pps == 1000.0
        sender._begin_mi(0.001, direction=0)
        assert sender.rate_pps == 5.0


class TestStartingPhase:
    def test_rising_utility_doubles_the_rate(self):
        sender = make_sender(initial_rate_pps=100.0)
        sender._starting_step(make_mi(1, utility=1.0))
        assert sender.rate_pps == pytest.approx(200.0)
        assert sender.state == STARTING
        sender._starting_step(make_mi(2, utility=2.0))
        assert sender.rate_pps == pytest.approx(400.0)

    def test_doubling_saturates_at_max_rate(self):
        sender = make_sender(initial_rate_pps=100.0, max_rate_pps=150.0)
        sender._starting_step(make_mi(1, utility=1.0))
        assert sender.rate_pps == 150.0

    def test_utility_drop_halves_and_enters_decision(self):
        sender = make_sender(initial_rate_pps=100.0)
        sender._starting_step(make_mi(1, utility=1.0))
        sender._starting_step(make_mi(2, utility=0.5))
        assert sender.state == DECISION
        assert sender.rate_pps == pytest.approx(100.0)     # 200 / 2
        assert sender.base_rate_pps == pytest.approx(100.0)
        assert sorted(sender._decision_queue) == [-1, -1, 1, 1]


class TestDecisionPhase:
    def _in_decision(self, epsilon=0.05):
        sender = make_sender(initial_rate_pps=100.0, epsilon=epsilon)
        sender._enter_decision()
        return sender

    def test_fewer_than_four_results_is_inconclusive(self):
        sender = self._in_decision()
        for i, direction in enumerate((1, -1, 1)):
            sender._decision_results.append(
                make_mi(i, utility=float(direction), direction=direction))
            sender._maybe_decide()
        assert sender.state == DECISION
        assert sender.decisions == 0

    def test_both_up_trials_winning_moves_up(self):
        sender = self._in_decision()
        for i, (direction, utility) in enumerate(
                ((1, 2.0), (-1, 1.0), (1, 2.5), (-1, 0.5))):
            sender._decision_results.append(
                make_mi(i, utility=utility, direction=direction))
        sender._maybe_decide()
        assert sender.state == ADJUSTING
        assert sender._adjust_direction == 1
        assert sender.rate_pps == pytest.approx(100.0 * 1.05)
        assert sender.decisions == 1

    def test_both_down_trials_winning_moves_down(self):
        sender = self._in_decision()
        for i, (direction, utility) in enumerate(
                ((1, 0.5), (-1, 2.0), (1, 1.0), (-1, 3.0))):
            sender._decision_results.append(
                make_mi(i, utility=utility, direction=direction))
        sender._maybe_decide()
        assert sender.state == ADJUSTING
        assert sender._adjust_direction == -1
        assert sender.rate_pps == pytest.approx(100.0 * 0.95)

    def test_split_trials_stay_and_retest(self):
        sender = self._in_decision()
        for i, (direction, utility) in enumerate(
                ((1, 2.0), (-1, 1.0), (1, 0.5), (-1, 3.0))):
            sender._decision_results.append(
                make_mi(i, utility=utility, direction=direction))
        sender._maybe_decide()
        assert sender.state == DECISION
        assert sender.decisions == 1
        assert len(sender._decision_queue) == 4   # re-armed for a re-test

    def test_advance_state_machine_probes_queued_directions(self):
        sender = self._in_decision()
        sender.running = True
        queued = list(sender._decision_queue)
        sender._advance_state_machine()
        assert sender._current_mi.direction == queued[0]
        expected = 100.0 * (1.0 + queued[0] * sender.epsilon)
        assert sender.rate_pps == pytest.approx(expected)

    def test_advance_with_empty_queue_probes_base_rate(self):
        sender = self._in_decision()
        sender.running = True
        sender._decision_queue = []
        sender._advance_state_machine()
        assert sender._current_mi.direction == 0
        assert sender.rate_pps == pytest.approx(100.0)


class TestAdjustingPhase:
    def _adjusting(self, direction=1, epsilon=0.05):
        sender = make_sender(initial_rate_pps=100.0, epsilon=epsilon)
        sender.base_rate_pps = 100.0
        sender._start_adjusting(direction)
        return sender

    def test_enter_adjusting_takes_one_epsilon_step(self):
        sender = self._adjusting(+1)
        assert sender.state == ADJUSTING
        assert sender.rate_pps == pytest.approx(105.0)
        assert sender._adjust_steps == 1

    def test_rising_utility_grows_the_step(self):
        sender = self._adjusting(+1)
        sender._adjusting_step(make_mi(1, utility=1.0))
        assert sender.rate_pps == pytest.approx(100.0 * (1 + 0.05 * 2))
        sender._adjusting_step(make_mi(2, utility=2.0))
        assert sender.rate_pps == pytest.approx(100.0 * (1 + 0.05 * 3))

    def test_falling_utility_steps_back_and_reenters_decision(self):
        sender = self._adjusting(+1)
        sender._adjusting_step(make_mi(1, utility=1.0))   # steps -> 2
        sender._adjusting_step(make_mi(2, utility=0.2))   # fall: revert
        assert sender.state == DECISION
        assert sender.rate_pps == pytest.approx(100.0 * (1 + 0.05 * 1))

    def test_downward_step_factor_floors_at_one_tenth(self):
        sender = self._adjusting(-1)
        sender._adjust_steps = 30                         # 1 - 0.05*31 < 0
        sender._adjusting_step(make_mi(1, utility=1.0))
        assert sender.rate_pps == pytest.approx(100.0 * 0.1)
        assert sender.rate_pps > 0

    def test_state_changes_are_recorded_once_per_transition(self):
        sender = self._adjusting(+1)
        sender._set_state(ADJUSTING)                      # no-op repeat
        assert sender.state_changes == [ADJUSTING]


class TestOnAck:
    def _acked_sender(self):
        sender = make_sender()
        sender.start()
        return sender

    def _ack_for(self, sender, seq, sent_time, now):
        data = Packet(flow_id=0, seq=seq, sent_time=sent_time)
        sender.sim.now = now
        return data.make_ack(now)

    def test_first_rtt_sample_seeds_srtt(self):
        sender = self._acked_sender()
        sender.on_ack(self._ack_for(sender, 0, sent_time=0.0, now=0.08))
        assert sender.srtt == pytest.approx(0.08)

    def test_srtt_ewma_update(self):
        sender = self._acked_sender()
        sender.on_ack(self._ack_for(sender, 0, sent_time=0.0, now=0.08))
        sender.on_ack(self._ack_for(sender, 1, sent_time=0.1, now=0.26))
        assert sender.srtt == pytest.approx(0.08 + 0.125 * (0.16 - 0.08))

    def test_ack_credits_the_owning_monitor_interval(self):
        sender = self._acked_sender()
        mi = sender._current_mi
        seq = sender.sent_packets[0].seq
        sender.on_ack(self._ack_for(sender, seq, sent_time=0.0, now=0.05))
        assert mi.acked == 1
        assert seq not in sender._seq_to_mi   # consumed exactly once

    def test_unknown_seq_and_data_packets_are_ignored(self):
        sender = self._acked_sender()
        mi = sender._current_mi
        sender.on_ack(self._ack_for(sender, 999, sent_time=0.0, now=0.05))
        sender.on_ack(Packet(flow_id=0, seq=0, sent_time=0.0))   # not an ACK
        assert mi.acked == 0

    def test_acks_after_stop_are_ignored(self):
        sender = self._acked_sender()
        seq = sender.sent_packets[0].seq
        mi = sender._current_mi
        sender.stop()
        sender.on_ack(self._ack_for(sender, seq, sent_time=0.0, now=0.05))
        assert mi.acked == 0 and sender.srtt is None
