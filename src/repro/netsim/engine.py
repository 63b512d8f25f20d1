"""Discrete-event simulation engine.

The engine is a classic heap-based event scheduler.  All network elements
(links, queues, protocol endpoints, traffic sources) schedule callbacks on a
shared :class:`Simulator` instance.  Simulated time is a float measured in
seconds; there is no wall-clock coupling, which sidesteps the timing-precision
problems a real-time Python implementation of Verus would have.

Events fire in non-decreasing time order.  Ties are broken by scheduling
order (FIFO among simultaneous events), which makes runs fully deterministic
for a fixed seed.

Performance notes
-----------------
Heap entries are 5-tuples ``(time, seq, event_or_None, callback, args)``.
Callers that never cancel use :meth:`Simulator.call_later` /
:meth:`Simulator.call_at`, which skip the :class:`Event` allocation
entirely (the third slot is ``None``); :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` still return a cancellable handle.  Both
paths draw ``seq`` from the same counter, so mixing them preserves the
FIFO tie-break exactly.  Cancelled events stay in the heap as corpses
but are counted (``_corpses``), which makes :meth:`Simulator.pending`
O(1) and lets the heap be compacted in place once corpses outnumber
live entries.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


class Event:
    """Handle for a scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be cancelled.
    A cancelled event stays in the heap but is skipped when popped.  The
    ``_sim`` backreference is non-None exactly while the event sits live
    in a simulator heap; it is cleared when the event fires, is
    cancelled, or is swept out by compaction, so the corpse counter never
    double-counts.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...], sim: "Optional[Simulator]" = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                self._sim = None
                sim._note_cancel()

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} [{state}]>"


# Compaction threshold: sweep the heap in place once cancelled corpses
# outnumber live entries, but never bother below this size — tiny heaps
# drain corpses naturally through pops.
_COMPACT_MIN_HEAP = 64


class Simulator:
    """Heap-based discrete-event scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple] = []
        self._counter = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed: int = 0
        #: Cancelled events still sitting in the heap.  Kept exact so
        #: ``pending()`` is O(1) and compaction knows when to trigger.
        self._corpses: int = 0
        # Conformance seam: callables invoked as fn(time) just before each
        # event fires (see repro.check).  Empty for normal runs, so the
        # only steady-state cost is one falsy check per event.
        self._monitors: List[Callable[[float], Any]] = []

    # ------------------------------------------------------------------
    # Monitoring (conformance seam)
    # ------------------------------------------------------------------
    def add_monitor(self, fn: Callable[[float], Any]) -> None:
        """Register ``fn(event_time)`` to run before every event fires.

        Used by :mod:`repro.check` to audit scheduler behaviour (monotone
        clock, event accounting) without touching the hot path when no
        monitor is attached.  Monitors must not schedule or cancel events.
        """
        self._monitors.append(fn)

    def remove_monitor(self, fn: Callable[[float], Any]) -> None:
        """Detach a monitor previously registered with :meth:`add_monitor`."""
        self._monitors.remove(fn)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = Event(time, callback, args, self)
        heapq.heappush(self._heap,
                       (time, next(self._counter), event, callback, args))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        event = Event(time, callback, args, self)
        heapq.heappush(self._heap,
                       (time, next(self._counter), event, callback, args))
        return event

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fast path of :meth:`schedule` for callbacks that are never
        cancelled: no :class:`Event` handle is allocated, only the heap
        tuple.  Ordering is identical to ``schedule`` — both draw their
        tie-break sequence number from the same counter."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._counter), None, callback, args))

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fast path of :meth:`schedule_at` (no cancellable handle)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        heapq.heappush(self._heap,
                       (time, next(self._counter), None, callback, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or stop().

        ``until`` is inclusive: an event scheduled exactly at ``until`` fires.
        After running with ``until``, ``now`` is advanced to ``until`` even if
        the heap drained earlier, so repeated ``run`` calls see monotone time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        # Hot loop: everything it touches per event is a local.  The
        # monitor check is one truthiness test on a (normally empty) local
        # list, which is the zero-monitor fast path; ``events_processed``
        # accumulates locally and is flushed in ``finally`` (nothing reads
        # it mid-run).  ``limit``/``stop_after`` turn the optional
        # arguments into unconditional comparisons.
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        monitors = self._monitors
        limit = float("inf") if until is None else until
        stop_after = -1 if max_events is None else max(1, max_events)
        processed = 0
        try:
            while heap:
                entry = pop(heap)
                time = entry[0]
                if time > limit:
                    push(heap, entry)
                    break
                event = entry[2]
                if event is not None:
                    if event.cancelled:
                        self._corpses -= 1
                        continue
                    event._sim = None
                if monitors:
                    for monitor in monitors:
                        monitor(time)
                self.now = time
                entry[3](*entry[4])
                processed += 1
                if self._stopped or processed == stop_after:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def step(self) -> bool:
        """Execute the single next pending event.  Returns False if none."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[2]
            if event is not None:
                if event.cancelled:
                    self._corpses -= 1
                    continue
                event._sim = None
            time = entry[0]
            if self._monitors:
                for monitor in self._monitors:
                    monitor(time)
            self.now = time
            entry[3](*entry[4])
            self.events_processed += 1
            return True
        return False

    def stop(self) -> None:
        """Stop the current ``run`` after the in-flight callback returns."""
        self._stopped = True

    def drop_pending(self) -> None:
        """Discard every queued event and cancel any handle still live.

        For the end of a run: heap entries hold bound methods of links,
        timers and in-flight packets, so dropping them lets reference
        counting free the network instead of the cyclic collector.
        """
        for entry in self._heap:
            event = entry[2]
            if event is not None:
                event.cancelled = True
                event._sim = None
        self._heap.clear()
        self._corpses = 0

    # ------------------------------------------------------------------
    # Corpse accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event is still heaped."""
        self._corpses += 1
        heap_len = len(self._heap)
        if heap_len >= _COMPACT_MIN_HEAP and self._corpses * 2 > heap_len:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled corpses and re-heapify, in place.

        In place matters: ``run()`` holds a local alias to the heap list,
        so the list object must survive compaction.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[2] is None or not entry[2].cancelled]
        heapq.heapify(heap)
        self._corpses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return len(self._heap) - self._corpses

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the heap is empty.

        Cancelled corpses at the head of the heap are popped and
        discarded on the way — they could never fire anyway, so evicting
        them here is invisible to the schedule and keeps repeated peeks
        amortised O(log n) instead of rescanning the same corpses.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event is None or not event.cancelled:
                return entry[0]
            heapq.heappop(heap)
            self._corpses -= 1
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={len(self._heap)}>"


class PeriodicTimer:
    """Repeating timer built on any :class:`~repro.netsim.flow.Clock`.

    Fires ``callback()`` every ``interval`` seconds until :meth:`stop`.
    The first firing occurs ``interval`` seconds after :meth:`start`
    (or immediately if ``fire_now`` is set).  Only ``sim.schedule`` is
    used, so the timer runs unchanged on the discrete-event
    :class:`Simulator` and on the wall-clock scheduler of
    :mod:`repro.live`.
    """

    def __init__(self, sim, interval: float, callback: Callable[[], Any]):
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive (got {interval})")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self._event: Optional[Event] = None
        self._running = False

    def start(self, fire_now: bool = False) -> None:
        self._running = True
        delay = 0.0 if fire_now else self.interval
        self._event = self.sim.schedule(delay, self._fire)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def running(self) -> bool:
        return self._running

    def _fire(self) -> None:
        if not self._running:
            return
        self.callback()
        if self._running:
            self._event = self.sim.schedule(self.interval, self._fire)
