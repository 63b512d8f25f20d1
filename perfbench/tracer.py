"""Layer-attributed tracing for the benchmark's traced run.

Everything here works from outside the program: :class:`Tracer` swaps
wrappers onto public classes and functions of ``repro`` while it is
installed and restores the originals when it is removed.  Nothing under
``src/`` knows it exists.

Spans
-----
A span has a name, a start, an end, a parent span and a group id.  Names
read ``<layer>:<what>``; the layer is one of :data:`LAYERS`, or ``bench``
for the benchmark's own pass and operation spans, or ``unattributed`` for
engine callbacks owned by a module no layer claims.  Spans of one
operation (an experiment, a sweep cell, a verdict) share a group id.
They are kept in memory in flat arrays and written out once the run
ends.

A span's self time is its duration minus the durations of its direct
children and minus the tracer's own bookkeeping done while it was the
innermost open span: entering and leaving its children, and naming the
callbacks it schedules.  A layer's self time is the sum over its spans.
Everything else -- the bookkeeping (``trace.overhead_s``), the ``bench``
spans' self time and the ``unattributed`` spans -- is reported as
``trace.unattributed_s`` and never folded into a layer, so the layer self
times plus ``trace.unattributed_s`` add up to the wall time of the traced
pass.  What the bookkeeping cannot time itself, the Python call into a
wrapper before its first clock read, stays in the caller's self time.

Where the spans come from
-------------------------
* every callback the engine dispatches: ``Simulator.schedule``,
  ``schedule_at``, ``call_later`` and ``call_at`` hand the engine a
  dispatcher that times the callback and names it after the module that
  owns it (:data:`MODULE_LAYERS`);
* ``Simulator.run`` itself (the engine's own loop) and the per-event
  monitors of ``Simulator.add_monitor``;
* the public entry points of layers that run nested inside another
  layer's callback (:meth:`Tracer._nested_targets`).

Counts are read from public attributes when an operation ends:
``Simulator.events_processed``, ``TraceLink.delivered`` and
``wasted_opportunities``, queue ``stats``, sender ``retransmissions``
and ``timeouts``, and ``DelayProfiler.interpolations``.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: The layers the per-layer metrics are reported for.
LAYERS = ("engine", "trace_link", "queues", "link", "core", "profile",
          "tcp", "sprout", "obs", "cellular", "traces", "metrics",
          "campaign", "check")

#: Module prefix -> layer; the first matching prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.netsim.engine", "engine"),
    ("repro.netsim.trace_link", "trace_link"),
    ("repro.netsim.queues", "queues"),
    ("repro.netsim.fair_queue", "queues"),
    ("repro.netsim", "link"),
    ("repro.core.delay_profiler", "profile"),
    ("repro.interp", "profile"),
    ("repro.core", "core"),
    ("repro.tcp", "tcp"),
    ("repro.sprout", "sprout"),
    ("repro.obs", "obs"),
    ("repro.cellular", "cellular"),
    ("repro.traces", "traces"),
    ("repro.metrics", "metrics"),
    ("repro.campaign", "campaign"),
    ("repro.check", "check"),
)

#: The tracer installed in this process, so a forked worker can take its
#: wrappers off again (see :func:`_uninstall_in_child`).
_ACTIVE: Optional["Tracer"] = None


def layer_of_module(module: Optional[str]) -> str:
    """The layer that owns ``module``, or ``unattributed``."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "unattributed"


def span_layer(name: str) -> str:
    return name.partition(":")[0]


def _all_subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _uninstall_in_child() -> None:
    # Worker processes forked while the tracer is installed run the
    # program untraced: their spans could never reach the parent, and the
    # wrappers would only slow the cells the worker-side timings measure.
    if _ACTIVE is not None:
        _ACTIVE._restore()


os.register_at_fork(after_in_child=_uninstall_in_child)


class Tracer:
    """Collects spans and counts while installed (a context manager)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.group = array("l")
        self.start = array("d")
        self.end = array("d")
        #: Tracer bookkeeping done while each span was innermost.
        self.overhead = array("d")
        self._stack: List[int] = [-1]
        self._group = -1
        self._groups = 0
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._callback_names: Dict[object, int] = {}
        self._registry: Dict[int, object] = {}
        self._monitor_wrappers: Dict[int, Callable] = {}
        self._table: Optional[Dict[str, np.ndarray]] = None
        self._call = self._make_call()

    # -- span primitives -------------------------------------------------
    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        # Only the benchmark's own few spans (:meth:`span`) come here; their
        # bookkeeping is not timed, as their self time is unattributed.
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.group.append(self._group)
        self.end.append(0.0)
        self.overhead.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _make_call(self) -> Callable:
        """The timed call every engine dispatch and wrapped entry point
        goes through, ``call(nid, fn, args, kwargs)``.  The clock reads sit
        right around ``fn``; the bookkeeping either side is timed and
        charged to the parent span as overhead."""
        clock = time.perf_counter
        stack, starts, ends, overhead = (self._stack, self.start, self.end,
                                         self.overhead)
        name_ids, parents, groups = self.name_id, self.parent, self.group
        tracer = self

        def call(nid, fn, args, kwargs=None):
            called = clock()
            index = len(starts)
            parent = stack[-1]
            name_ids.append(nid)
            parents.append(parent)
            groups.append(tracer._group)
            starts.append(0.0)
            ends.append(0.0)
            overhead.append(0.0)
            stack.append(index)
            started = clock()
            try:
                return fn(*args, **kwargs) if kwargs else fn(*args)
            finally:
                ended = clock()
                stack.pop()
                starts[index] = started
                ends[index] = ended
                if parent >= 0:
                    overhead[parent] += (started - called) + (clock() - ended)
        return call

    @contextmanager
    def span(self, name: str):
        index = self._enter(self.intern(name))
        try:
            yield
        finally:
            self._exit(index)

    @contextmanager
    def operation(self, label: str):
        """One benchmark operation: a new group id, a ``bench`` span, and
        the public counters of everything it built, read when it ends."""
        outer = self._group
        self._group = self._groups
        self._groups += 1
        try:
            with self.span(f"bench:op {label}"):
                yield
        finally:
            self._group = outer
            self.harvest()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid, call = self.intern(name), self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        return traced

    def _callback_name(self, callback) -> int:
        timer = getattr(callback, "__self__", None)
        if isinstance(timer, self._periodic_timer):
            # The engine's repeating timer runs its owner's callback
            # synchronously; the tick belongs to the owner's layer.
            callback = timer.callback
        key = getattr(callback, "__func__", callback)
        nid = self._callback_names.get(key)
        if nid is None:
            owner = key if inspect.isfunction(key) else type(callback)
            what = getattr(owner, "__qualname__", repr(owner))
            layer = layer_of_module(getattr(owner, "__module__", None))
            nid = self._callback_names[key] = self.intern(f"{layer}:{what}")
        return nid

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _register_on_init(self, cls) -> None:
        init = cls.__dict__["__init__"]
        registry = self._registry

        @functools.wraps(init)
        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry[id(obj)] = obj
        self._patch(cls, "__init__", registering_init)

    def _nested_targets(self):
        """``(owner, attribute, span name)`` for every nested entry point."""
        from repro import cellular
        from repro.campaign import executor, store
        from repro.check import mutation, runner, scenarios
        from repro.core import DelayProfiler
        from repro.experiments import runner as experiments_runner
        from repro.netsim.flow import ReceiverProtocol, SenderProtocol
        from repro.netsim.queues import DropTailQueue
        from repro.obs.timeline import TimelineRecorder
        from repro.sprout.forecast import SproutForecaster
        from repro.traces.corpus import Corpus

        targets = []
        for method in ("add_sample", "interpolate", "window_for_delay"):
            targets.append((DelayProfiler, method,
                            f"profile:DelayProfiler.{method}"))
        targets.append((SproutForecaster, "on_tick",
                        "sprout:SproutForecaster.on_tick"))
        for cls in [DropTailQueue] + _all_subclasses(DropTailQueue):
            for method in ("push", "pop"):
                if method in cls.__dict__:
                    targets.append((cls, method,
                                    f"queues:{cls.__qualname__}.{method}"))
        for base, method in ((SenderProtocol, "on_ack"),
                             (ReceiverProtocol, "on_data")):
            for cls in _all_subclasses(base):
                if method in cls.__dict__:
                    layer = layer_of_module(cls.__module__)
                    targets.append((cls, method,
                                    f"{layer}:{cls.__qualname__}.{method}"))
        # ``notify`` always takes the recorder's raw path; the named
        # observer methods only forward to it.
        targets.append((TimelineRecorder, "record_event",
                        "obs:TimelineRecorder.record_event"))
        targets.append((experiments_runner, "flow_stats",
                        "metrics:flow_stats"))
        targets.append((cellular, "generate_scenario_trace",
                        "cellular:generate_scenario_trace"))
        targets.append((Corpus, "load_ms", "traces:Corpus.load_ms"))
        targets.append((store.ResultStore, "get", "campaign:ResultStore.get"))
        targets.append((store.ResultStore, "put", "campaign:ResultStore.put"))
        targets.append((executor, "run_tasks", "campaign:run_tasks"))
        # The executor's wait on its workers, so ``run_tasks``'s own self
        # time is dispatch and bookkeeping only.
        targets.append((executor, "wait", "campaign:wait"))
        targets.append((runner, "run_tasks", "campaign:run_tasks"))
        targets.append((runner, "run_check_task", "check:run_check_task"))
        targets.append((runner, "run_audited", "check:run_audited"))
        targets.append((mutation, "run_audited", "check:run_audited"))
        targets.append((runner, "run_mutation_smoke",
                        "check:run_mutation_smoke"))
        targets.append((scenarios, "run_audited", "check:run_audited"))
        return targets

    # -- install / remove ------------------------------------------------
    def install(self) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        from repro.core import DelayProfiler
        from repro.netsim.engine import PeriodicTimer, Simulator
        from repro.netsim.flow import SenderProtocol
        from repro.netsim.queues import DropTailQueue
        from repro.netsim.trace_link import TraceLink
        from repro.sprout.forecast import SproutForecaster

        self._periodic_timer = PeriodicTimer
        tracer = self
        dispatch, name_of = self._call, self._callback_name
        stack, overhead = self._stack, self.overhead
        clock = time.perf_counter
        for attr in ("schedule", "schedule_at", "call_later", "call_at"):
            original = Simulator.__dict__[attr]

            def scheduling(sim, when, callback, *args, _original=original):
                called = clock()
                nid = name_of(callback)
                top = stack[-1]
                if top >= 0:
                    overhead[top] += clock() - called
                return _original(sim, when, dispatch, nid, callback, args)
            scheduling.__name__ = attr
            self._patch(Simulator, attr, scheduling)

        run = Simulator.__dict__["run"]
        run_nid = self.intern("engine:Simulator.run")

        def traced_run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return dispatch(run_nid, run, (sim,) + args, kwargs)
            finally:
                tracer.add("engine.events", sim.events_processed - before)
        self._patch(Simulator, "run", traced_run)

        add_monitor = Simulator.__dict__["add_monitor"]
        remove_monitor = Simulator.__dict__["remove_monitor"]
        wrappers = self._monitor_wrappers

        def traced_add_monitor(sim, fn):
            owner = fn if inspect.isfunction(fn) else type(fn)
            layer = layer_of_module(getattr(owner, "__module__", None))
            wrapper = self._wrap(fn, f"{layer}:monitor "
                                     f"{getattr(owner, '__qualname__', '?')}")
            wrappers[id(fn)] = wrapper
            add_monitor(sim, wrapper)

        def traced_remove_monitor(sim, fn):
            remove_monitor(sim, wrappers.pop(id(fn), fn))
        self._patch(Simulator, "add_monitor", traced_add_monitor)
        self._patch(Simulator, "remove_monitor", traced_remove_monitor)

        for owner, attr, name in self._nested_targets():
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._patch(owner, attr, self._wrap(original, name))

        # Censored Sprout ticks are counted where the forecaster sees them.
        on_tick = SproutForecaster.__dict__["on_tick"]

        def counting_on_tick(forecaster, packets, censored=False):
            if censored:
                tracer.add("sprout.censored", 1)
            return on_tick(forecaster, packets, censored=censored)
        self._patch(SproutForecaster, "on_tick",
                    functools.wraps(on_tick)(counting_on_tick))

        for cls in (TraceLink, DropTailQueue, SenderProtocol, DelayProfiler):
            self._register_on_init(cls)
        _ACTIVE = self
        return self

    def remove(self) -> None:
        global _ACTIVE
        self._restore()
        _ACTIVE = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- counts ----------------------------------------------------------
    def harvest(self) -> None:
        """Read the public counters of every object built since the last
        harvest, then let go of them."""
        from repro.core import DelayProfiler
        from repro.netsim.flow import SenderProtocol
        from repro.netsim.queues import DropTailQueue
        from repro.netsim.trace_link import TraceLink

        for obj in self._registry.values():
            if isinstance(obj, TraceLink):
                self.add("trace_link.wasted", obj.wasted_opportunities)
                self.add("trace_link.delivered", obj.delivered)
            elif isinstance(obj, DropTailQueue):
                self.add("queues.enqueued", obj.stats.enqueued)
                self.add("queues.dropped", obj.stats.dropped)
            elif isinstance(obj, SenderProtocol):
                layer = layer_of_module(type(obj).__module__)
                self.add(f"{layer}.retransmissions",
                         getattr(obj, "retransmissions", 0))
                self.add(f"{layer}.timeouts", getattr(obj, "timeouts", 0))
            elif isinstance(obj, DelayProfiler):
                self.add("profile.rebuilds", obj.interpolations)
        self._registry.clear()

    # -- analysis --------------------------------------------------------
    def span_table(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns, with per-span self time."""
        if self._table is None or len(self._table["start"]) != len(self.start):
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> Dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        overhead = np.array(self.overhead, dtype=np.float64)
        duration = end - start
        child_time = np.zeros(len(start))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        return {"name_id": np.array(self.name_id, dtype=np.int64),
                "parent": parent,
                "group": np.array(self.group, dtype=np.int64),
                "start": start, "end": end, "duration": duration,
                "overhead": overhead,
                "self": duration - child_time - overhead}

    def overhead_seconds(self) -> float:
        """The tracer's own bookkeeping, as timed inside the spans."""
        return float(self.span_table()["overhead"].sum())

    def layer_self_times(self) -> Tuple[Dict[str, float], float, float]:
        """``(self seconds per layer, unattributed seconds, root seconds)``.

        Root seconds is the summed duration of the top-level spans: the
        wall time the trace covers.  Unattributed seconds include the
        tracer's bookkeeping."""
        table = self.span_table()
        per_name = np.bincount(table["name_id"], weights=table["self"],
                               minlength=len(self.names))
        layers = {layer: 0.0 for layer in LAYERS}
        unattributed = self.overhead_seconds()
        for name, seconds in zip(self.names, per_name):
            layer = span_layer(name)
            if layer in layers:
                layers[layer] += float(seconds)
            else:
                unattributed += float(seconds)
        roots = table["parent"] < 0
        return layers, unattributed, float(table["duration"][roots].sum())

    def span_counts(self) -> Dict[str, int]:
        """Spans per name, not counting a span nested directly in one of
        the same name (an engine dispatch of a wrapped entry point)."""
        table = self.span_table()
        name_id, parent = table["name_id"], table["parent"]
        parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
        outer = name_id[parent_name != name_id]
        counts = np.bincount(outer, minlength=len(self.names))
        return {name: int(n) for name, n in zip(self.names, counts)}

    def inclusive_seconds(self, name: str) -> float:
        """Total duration of the outermost spans called ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        table = self.span_table()
        mine = table["name_id"] == nid
        parent = table["parent"]
        nested = np.zeros(len(mine), dtype=bool)
        nested[mine & (parent >= 0)] = (
            table["name_id"][parent[mine & (parent >= 0)]] == nid)
        return float(table["duration"][mine & ~nested].sum())

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        table = self.span_table()
        return float(table["self"][table["name_id"] == nid].sum())

    def write(self, path) -> None:
        """Write every span out (compressed numpy columns + names)."""
        table = self.span_table()
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: table[k] for k in
                               ("name_id", "parent", "group", "start",
                                "end", "overhead")})
