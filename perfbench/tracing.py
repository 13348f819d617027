"""Out-of-band spans around the public entry points of each layer.

The benchmark never edits ``src/``: a traced run wraps the public
functions and methods of ``repro.scenario``, ``repro.workloads``,
``repro.sim.*``, ``repro.adversary``, ``repro.core``, ``repro.net``
and ``repro.service`` from here, records one span per call (name,
start, end, parent, request id), and restores the originals when the
run ends. Self time is derived as each span's duration minus the time
its direct children cover. Spans live in memory (capped) and are
written out once, at the end of the run.

The parent of a span is tracked in a :class:`contextvars.ContextVar`,
so threads and asyncio tasks each keep their own chain: interleaved
daemon requests never adopt each other's spans. A span that awaits
(an ``async`` entry point) measures wall time, suspensions included.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable


class Frame:
    """One open span; ``child`` accumulates its direct children's time."""

    __slots__ = ("sid", "parent", "name", "start", "child", "request")

    def __init__(self, sid: int, parent: Frame | None, name: str, start: int, request: Any):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0
        self.request = request


class Tracer:
    """Span recorder with per-name call count, total and self time.

    ``clock`` returns integer nanoseconds (tests pass a fake one);
    at most ``keep`` spans are stored, the rest are only aggregated
    (``dropped`` counts them).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, keep: int = 50_000):
        self.clock = clock
        self.keep = keep
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._current: contextvars.ContextVar[Frame | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, request: Any = None) -> tuple[Frame, Any]:
        parent = self._current.get()
        if request is None and parent is not None:
            request = parent.request
        frame = Frame(next(self._ids), parent, name, self.clock(), request)
        return frame, self._current.set(frame)

    def end(self, frame: Frame, token: Any) -> int:
        """Close ``frame``; returns its duration in nanoseconds."""
        end = self.clock()
        self._current.reset(token)
        duration = end - frame.start
        parent = frame.parent
        with self._lock:
            if parent is not None:
                parent.child += duration
            entry = self.stats.get(frame.name)
            if entry is None:
                entry = self.stats[frame.name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child
            if len(self.spans) < self.keep:
                self.spans.append(
                    (frame.sid, parent.sid if parent is not None else 0,
                     frame.name, frame.start, end, frame.request)
                )
            else:
                self.dropped += 1
        return duration

    def span(self, name: str, request: Any = None) -> _Span:
        """Context manager around one span."""
        return _Span(self, name, request)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``name`` may be a function of the call's arguments (to split
        one entry point by the path it takes); ``after(result, *args)``
        sees each result, for counters. A call made while a span of
        the same name is open (a subclass delegating to ``super()``)
        opens no second span.
        """
        begin, end, current = self.begin, self.end, self._current

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            parent = current.get()
            if parent is not None and parent.name == label:
                return fn(*args, **kwargs)
            frame, token = begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(frame, token)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def wrap_async(
        self, fn: Callable[..., Any], name: str, after: Callable[..., None] | None = None
    ) -> Callable[..., Any]:
        """:meth:`wrap` for a coroutine function (wall time, awaits included)."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            frame, token = begin(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                end(frame, token)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Aggregates as plain data (picklable, JSON-ready)."""
        with self._lock:
            return {
                "stats": {name: list(entry) for name, entry in self.stats.items()},
                "counters": dict(self.counters),
            }

    def take(self, spans: int) -> dict[str, Any]:
        """Snapshot plus up to ``spans`` stored spans, then reset."""
        data = self.snapshot()
        with self._lock:
            data["spans"] = self.spans[:spans]
            self.stats.clear()
            self.counters.clear()
            self.spans.clear()
        return data

    def merge(self, data: dict[str, Any], request: Any = None) -> None:
        """Fold another tracer's :meth:`snapshot`/:meth:`take` into this one."""
        with self._lock:
            for name, (calls, total, own) in data.get("stats", {}).items():
                entry = self.stats.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, value in data.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for sid, parent, name, start, end, _request in data.get("spans", ()):
                # Another process numbers its spans from 1 too: prefix them.
                if len(self.spans) < self.keep:
                    self.spans.append((f"{request}:{sid}", f"{request}:{parent}" if parent else 0,
                                       name, start, end, request))
                else:
                    self.dropped += 1

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def mean_ns(self, name: str, own: bool = False) -> float:
        calls = self.calls(name)
        if not calls:
            return 0.0
        return (self.self_ns(name) if own else self.total_ns(name)) / calls

    def write(self, path: str) -> None:
        """Write the aggregates, then each stored span with its self time, as JSON lines."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"kind": "summary", "dropped": self.dropped,
                                  **self.snapshot()}, sort_keys=True) + "\n")
            for sid, parent, name, start, end, request in self.spans:
                out.write(json.dumps({"kind": "span", "id": sid, "parent": parent,
                                      "name": name, "start_ns": start, "end_ns": end,
                                      "self_ns": own[sid], "request": request}) + "\n")


def read_trace(path: str) -> dict[str, Any]:
    """A file written by :meth:`Tracer.write`, in :meth:`Tracer.merge` form."""
    with open(path, encoding="utf-8") as handle:
        data = json.loads(handle.readline())
        data["spans"] = [
            (row["id"], row["parent"], row["name"], row["start_ns"], row["end_ns"],
             row["request"])
            for row in map(json.loads, handle)
        ]
    return data


class _Span:
    __slots__ = ("tracer", "name", "request", "frame", "token")

    def __init__(self, tracer: Tracer, name: str, request: Any) -> None:
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self) -> Frame:
        self.frame, self.token = self.tracer.begin(self.name, self.request)
        return self.frame

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.end(self.frame, self.token)


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time per span id from stored ``(id, parent, name, start, end, ...)``.

    The offline twin of the tracer's running arithmetic: a span's
    duration minus the durations of the stored spans naming it as parent.
    """
    own = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        if span[1] in own:
            own[span[1]] -= span[4] - span[3]
    return own


# -- instrumentation ---------------------------------------------------------


@dataclass
class Patches:
    """What :func:`instrument` replaced, so :meth:`restore` can undo it."""

    undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)


def _subclasses(base: type) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [base] + found


def _patch_function(patches: Patches, module: str, attr: str, wrapper: Callable) -> None:
    """Replace ``module.attr`` wherever a loaded ``repro`` module binds it."""
    original = getattr(importlib.import_module(module), attr)
    traced = wrapper(original)
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and mod is not None:
            if mod.__dict__.get(attr) is original:
                patches.set(mod, attr, traced)


def _patch_method(patches: Patches, cls: type, attr: str, wrapper: Callable) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        patches.set(cls, attr, classmethod(wrapper(raw.__func__)))
    elif isinstance(raw, staticmethod):
        patches.set(cls, attr, staticmethod(wrapper(raw.__func__)))
    elif isinstance(raw, property):
        patches.set(cls, attr, property(wrapper(raw.fget)))
    else:
        patches.set(cls, attr, wrapper(raw))


class _PickleShim:
    """Stands in for ``pickle`` inside :mod:`repro.sim.parallel`.

    ``dumps`` there is the pooled path's up-front job pickling; the
    shim times it and counts the bytes, everything else is pickle's.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._dumps = tracer.wrap(pickle.dumps, "sim.parallel.job_pickle",
                                  after=lambda data, *a, **k: tracer.count(
                                      "sim.parallel.job_pickle_bytes", len(data)))

    def dumps(self, *args: Any, **kwargs: Any) -> bytes:
        return self._dumps(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(pickle, name)


def instrument(tracer: Tracer, dispatcher: bool = True) -> Patches:
    """Wrap every measured layer's public entry points; returns the undo log.

    ``dispatcher=False`` (inside pool workers) leaves out the job-pickle
    seam: a worker's pickling is of results, not of jobs.
    """
    import repro.adversary.base as adversary_base
    import repro.families.averaging as averaging
    import repro.scenario.spec as scenario_spec
    import repro.service.cache as service_cache
    import repro.service.jobs as service_jobs
    import repro.sim.arena as arena
    import repro.sim.batch as batch
    import repro.sim.engine as engine
    import repro.sim.node as node
    import repro.sim.parallel as parallel
    import repro.sim.runner as runner
    import repro.workloads as workloads
    from repro.net.topology import Topology

    patches = Patches()

    def timed(name: str, after: Callable | None = None) -> Callable:
        return lambda fn: tracer.wrap(fn, name, after)

    for cls in _subclasses(adversary_base.MessageAdversary):
        _patch_method(patches, cls, "choose", timed("adversary.choose"))
    for cls in _subclasses(node.ConsensusProcess):
        _patch_method(patches, cls, "broadcast", timed("core.broadcast"))
        _patch_method(patches, cls, "deliver", timed("core.deliver"))
    _patch_method(patches, engine.Engine, "run_round", timed("sim.engine.round"))

    intern = Topology._intern

    def interned(fn: Callable) -> Callable:
        # Count-only: a construction that grows (or, when full, resets)
        # the intern table built a new Topology; otherwise it was a hit.
        @functools.wraps(fn)
        def counting(*args: Any, **kwargs: Any) -> Any:
            before = len(intern)
            result = fn(*args, **kwargs)
            tracer.count("net.topology.built" if len(intern) != before
                         else "net.topology.hit")
            return result
        return counting

    for attr in ("__new__", "from_sorted_edges", "from_receiver_lists"):
        _patch_method(patches, Topology, attr, interned)

    for attr in ("build_dac_execution", "build_dbac_execution",
                 "build_mobile_execution", "build_baseline_execution"):
        _patch_function(patches, workloads.__name__, attr, timed("workloads.build"))
    _patch_function(patches, averaging.__name__, "build_averaging_execution",
                    timed("workloads.build"))
    _patch_function(patches, runner.__name__, "run_consensus", timed("sim.runner.trial"))

    def lane_path(engine_self: Any) -> str:
        kernel = getattr(engine_self, "backend", "python") == "numpy"
        return "sim.batch.kernel" if kernel else "sim.batch.fallback"

    def count_lanes(lanes: list, engine_self: Any) -> None:
        path = lane_path(engine_self)
        tracer.count(path + ".lanes", len(lanes))
        tracer.count(path + ".lane_rounds", sum(lane.rounds for lane in lanes))

    for cls in (batch.BatchEngine, batch.ByzBatchEngine, batch.BaselineBatchEngine,
                batch.GenericBatchEngine):
        _patch_method(patches, cls, "run",
                      lambda fn: tracer.wrap(fn, lane_path, count_lanes))

    _patch_function(patches, parallel.__name__, "run_trials", timed("sim.parallel.run_trials"))
    if dispatcher:
        patches.set(parallel, "pickle", _PickleShim(tracer))
    _patch_method(patches, arena.ArenaRegistry, "publish", timed("sim.arena.publish"))

    _patch_function(patches, scenario_spec.__name__, "parse_spec", timed("scenario.parse"))
    _patch_method(patches, scenario_spec.ScenarioSpec, "from_dict", timed("scenario.parse"))
    _patch_method(patches, scenario_spec.ScenarioSpec, "content_hash", timed("scenario.hash"))
    # The package re-exports resolve(), which shadows the submodule name.
    _patch_function(patches, "repro.scenario.resolve", "resolve", timed("scenario.resolve"))

    _patch_method(patches, service_cache.ResultCache, "get", timed("service.cache.get"))
    _patch_method(patches, service_cache.ResultCache, "put", timed("service.cache.put"))

    # Queue wait: jobs enter the queue in submit order and one drain
    # task runs them in that order, so the k-th enqueued job is the
    # k-th run_trials call made on the dispatch thread.
    enqueued: deque[int] = deque()

    def on_submitted(job: Any, *args: Any, **kwargs: Any) -> None:
        if job.compute_seeds:
            enqueued.append(tracer.clock())

    _patch_method(patches, service_jobs.JobManager, "submit",
                  lambda fn: tracer.wrap_async(fn, "service.jobs.submit", on_submitted))
    _patch_method(patches, service_jobs.Job, "result",
                  lambda fn: tracer.wrap_async(fn, "service.jobs.result"))
    dispatch = service_jobs.run_trials

    @functools.wraps(dispatch)
    def dispatched(*args: Any, **kwargs: Any) -> Any:
        if enqueued:
            tracer.count("service.jobs.queue_wait_ns", tracer.clock() - enqueued.popleft())
            tracer.count("service.jobs.queued", 1)
        return dispatch(*args, **kwargs)

    patches.set(service_jobs, "run_trials", dispatched)
    return patches


# -- worker side of the pooled workload ----------------------------------------


@dataclass(frozen=True)
class WorkerTrace:
    """One pooled call's spans, shipped back through ``record_event``."""

    pid: int
    data: dict[str, Any]


_worker: tuple[Tracer, Patches] | None = None
WORKER_SPANS_PER_CALL = 64


def traced_batch(real_batch_fn: Callable[..., Any], **kwargs: Any) -> Any:
    """Pool-side wrapper: run ``real_batch_fn`` under a worker-local tracer.

    Dispatched as ``functools.partial(traced_batch, real)``; the first
    call in a worker process instruments that process. The call's
    aggregates and first spans go back to the parent as a
    :class:`WorkerTrace` event via :func:`repro.sim.parallel.record_event`.
    """
    global _worker
    from repro.sim.parallel import record_event

    if _worker is None:
        tracer = Tracer(keep=WORKER_SPANS_PER_CALL)
        _worker = (tracer, instrument(tracer, dispatcher=False))
    tracer = _worker[0]
    with tracer.span("sim.parallel.worker_call"):
        results = real_batch_fn(**kwargs)
    record_event(WorkerTrace(os.getpid(), tracer.take(WORKER_SPANS_PER_CALL)))
    return results
