"""Parallel trial execution: fan independent simulations over processes.

Sweeps and repeated scenario runs are embarrassingly parallel: every
trial is a pure function of its parameter assignment and seed (the
engine is deterministic by construction, see :mod:`repro.sim.engine`).
This module is the single place that turns a list of such trials into
results using a :class:`concurrent.futures.ProcessPoolExecutor`, with
two guarantees that make ``workers=N`` a pure speed knob:

- **deterministic seeding** -- every trial's seed lives in its
  :class:`TrialSpec`, fixed *before* any work is dispatched, so the
  schedule (which worker runs what, and when) cannot influence it;
- **order-stable collection** -- results come back in spec order
  regardless of completion order, so records built from them are
  identical to a serial run's, element for element.

A second, orthogonal speed knob is **batching**: when the caller
supplies a *batched* trial function (``batch_fn(seeds=[...], **params)
-> [result, ...]``, e.g. a family trial's, which runs
:func:`repro.sim.batch.run_lanes`), consecutive specs sharing a
parameter assignment are grouped into chunks of up to ``batch`` seeds
and dispatched as one call. The contract -- asserted by the
determinism suite -- is that the batched function returns exactly
``[fn(**params, seed=s) for s in seeds]``, so ``batch=B`` composes
with ``workers=N`` (batches fan out over the pool) while leaving
results identical, element for element.

**One job shape.** Every dispatched unit is a group of seeds,
``(call, params, seeds, forward)``: ``call(seeds=[...], **params)`` is
the batched function, or ``functools.partial(_per_seed, fn)`` over
groups of one seed for per-trial runs. With ``forward`` a group's
value is ``(results, events)``. :func:`_invoke` runs one group,
serially or, chunked by :func:`_invoke_chunk`, in a pool worker.

Trial functions must be picklable (module-level functions, not lambdas
or closures) when ``workers > 1``; the serial path has no such
restriction, which keeps ad-hoc lambdas working for ``workers=1``.

**Persistent worker pool.** By default (``pool="persist"``) the
process pool is a lazily-created module-level singleton reused across
``run_trials`` / ``Sweep.run`` calls, so pool startup is paid once per
process instead of once per sweep and warm workers keep their
per-process caches (interned Topologies, routing plans, and the
kernels' round-structure tables of :mod:`repro.sim.arena`) across
sweeps. A job ships only ``(call, params, seeds, forward)``: each
worker builds the tables its kernels reach, once.
:func:`close_pool` tears the pool down explicitly (also wired to
``atexit``); ``pool="fresh"`` restores the old pool-per-call
behaviour. A crashed pool is closed and rebuilt on the next call; the
crash itself propagates. Workers cannot outlive their parent: each one
watches the parent's death and exits with it, so a parent killed by
``SIGTERM`` or ``SIGKILL`` (which skip ``atexit``) leaves no idle
workers behind.

**Adaptive dispatch.** Work is submitted as deterministically-sized
*guided* chunks (sizes decay from ``len/2W`` toward 1), so early
chunks amortize IPC while the small tail keeps heterogeneous grids
(mixed ``n``, mixed adversaries) balanced across workers without
work-stealing nondeterminism: chunk boundaries depend only on counts,
and collection stays order-stable.

**Event forwarding.** Observability events raised inside a trial
(e.g. ``repro.obs`` ``RunFinished``) used to die with their worker
process. A trial that calls :func:`record_event` now gets its events
shipped back alongside its result and replayed -- in spec order, on
the parent process -- through ``run_trials(on_event=...)``. Events
must be picklable (the bus events are frozen scalar dataclasses);
forwarding is inert unless the caller passes ``on_event``, so
ordinary sweeps pay nothing.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
import pickle
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.sim.arena import ArenaRegistry

# Process-wide defaults consulted when ``workers=None`` / ``batch=None``
# is requested. CLI entry points set these from their ``--workers`` and
# ``--batch`` flags so library code (e.g. experiments built on
# repro.bench.sweep.Sweep) picks the values up without threading them
# through every call site.
_default_workers = 1
_default_batch = 1

_POOL_MODES = ("persist", "fresh")


def set_default_workers(workers: int) -> None:
    """Set the process-wide worker default (``0`` means all CPUs)."""
    global _default_workers
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    _default_workers = workers


def get_default_workers() -> int:
    """The current process-wide worker default."""
    return _default_workers


def set_default_batch(batch: int) -> None:
    """Set the process-wide batch-size default (lanes per batched call)."""
    global _default_batch
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    _default_batch = batch


def get_default_batch() -> int:
    """The current process-wide batch-size default."""
    return _default_batch


def resolve_batch(batch: int | None) -> int:
    """Normalize a ``batch`` request to a concrete positive size.

    ``None`` means "use the process-wide default" (see
    :func:`set_default_batch`).
    """
    if batch is None:
        batch = _default_batch
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return batch


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` request to a concrete positive count.

    ``None`` means "use the process-wide default" (see
    :func:`set_default_workers`); ``0`` means "one per CPU".
    """
    if workers is None:
        workers = _default_workers
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def resolve_pool(pool: str | None) -> str:
    """Normalize a ``pool`` request to a concrete lifecycle mode.

    ``None`` means the default, ``"persist"`` (reuse the module-level
    pool across calls); ``"fresh"`` spins a pool up per call.
    """
    if pool is None:
        return "persist"
    if pool not in _POOL_MODES:
        raise ValueError(f"pool must be one of {_POOL_MODES}, got {pool!r}")
    return pool


# -- Persistent worker pool ---------------------------------------------


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit the moment the parent process dies.

    A daemon thread blocks on the parent's sentinel -- a pipe whose
    write end the parent holds, readable once it is gone, however it
    died -- and then ends the worker with ``os._exit``. A worker in the
    middle of a job dies with it; its parent is gone, so nobody is
    waiting for the result. No signal handler is installed.
    """
    parent = multiprocessing.parent_process()
    if parent is None:  # pragma: no cover - initializers run in workers
        return

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _new_executor(workers: int) -> ProcessPoolExecutor:
    # Load the batch kernels (and numpy) before the workers fork, so
    # every worker inherits them instead of importing them inside its
    # first job; serial runs never get here and never load numpy.
    import repro.sim.batch  # noqa: F401

    return ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)


_pool_executor: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_atexit_installed = False

# Guards the (_pool_executor, _pool_size) pair so concurrent
# get_pool/close_pool calls observe consistent state. The pool itself
# is still **single-owner**: one thread at a time may dispatch work
# through it (repro.service serializes all run_trials calls onto one
# dispatch thread); the lock makes lifecycle transitions safe, not
# concurrent fan-out.
_pool_lock = threading.Lock()

def arena_registry() -> ArenaRegistry:
    """Compatibility stub: an always-empty registry.

    perfbench's traced mode reads ``arena_registry().segment_names()``;
    the ``[benchmark]`` follow-up that drops that read deletes this and
    :class:`repro.sim.arena.ArenaRegistry`.
    """
    return ArenaRegistry()


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool, created lazily and grown on demand.

    A pool at least ``workers`` wide is reused as-is (idle workers are
    cheap, warm caches are not); a narrower one is drained and
    replaced. The grow path is atomic: the replacement pool is
    constructed *before* the old one is discarded, so a failing
    constructor leaves the previous pool installed and the
    ``(_pool_executor, _pool_size)`` pair consistent. First creation
    registers :func:`close_pool` with ``atexit`` so interpreter exit
    always reaches the teardown path.
    """
    global _pool_executor, _pool_size, _pool_atexit_installed
    with _pool_lock:
        if _pool_executor is not None and _pool_size < workers:
            replacement = _new_executor(workers)
            previous, _pool_executor = _pool_executor, replacement
            _pool_size = workers
            previous.shutdown(wait=True)
        if _pool_executor is None:
            _pool_executor = _new_executor(workers)
            _pool_size = workers
        if not _pool_atexit_installed:
            _pool_atexit_installed = True
            atexit.register(close_pool)
        return _pool_executor


def close_pool() -> None:
    """Shut down the persistent pool.

    Idempotent; the next pooled ``run_trials`` call simply recreates
    it. This is the deterministic cleanup point (``atexit`` funnels
    into it too). Safe to race with :func:`get_pool` from another
    thread: the module state is swapped out under the lock before the
    executor shuts down, so even a failing shutdown leaves no zombie
    pool installed.
    """
    global _pool_executor, _pool_size
    with _pool_lock:
        executor, _pool_executor = _pool_executor, None
        _pool_size = 0
    if executor is not None:
        executor.shutdown(wait=True)


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable unit: keyword parameters plus the trial's seed.

    ``params`` is a tuple of ``(name, value)`` pairs (hashable, so
    specs can be grouped); the seed is carried separately because the
    scheduler owns it -- it is fixed before dispatch, which is what
    makes ``workers=N`` deterministic.

    >>> spec = TrialSpec((("n", 9), ("window", 2)), seed=7)
    >>> spec.kwargs()
    {'n': 9, 'window': 2}
    """

    params: tuple[tuple[str, Any], ...]
    seed: int

    def kwargs(self) -> dict[str, Any]:
        """The parameter assignment as keyword arguments."""
        return dict(self.params)


# Process-local buffer for observability events raised inside trials.
# ``None`` means no collector is active (the default everywhere except
# inside a forwarding _invoke call).
_event_buffer: list[Any] | None = None


def record_event(event: Any) -> bool:
    """Buffer one event for forwarding to the dispatching process.

    Trial-side hook: called from inside a trial function (directly, or
    via a bus subscription) it appends ``event`` to the active
    collection, to be replayed through the parent's ``on_event`` after
    the trial's result is collected. Returns ``True`` when a collector
    is active, ``False`` when the event was dropped (no ``on_event``
    was requested) -- callers need not check, the no-collector case is
    exactly the "nobody is listening" case.
    """
    if _event_buffer is None:
        return False
    _event_buffer.append(event)
    return True


def _call_collecting(fn: Callable[..., Any], kwargs: dict[str, Any]) -> tuple[Any, list[Any]]:
    """Run ``fn(**kwargs)`` with an active event collector."""
    global _event_buffer
    previous = _event_buffer
    _event_buffer = collected = []
    try:
        return fn(**kwargs), collected
    finally:
        _event_buffer = previous


def _per_seed(fn: Callable[..., Any], /, *, seeds: Sequence[int], **params: Any) -> list[Any]:
    """A per-trial ``fn`` as a batched one: ``[fn(**params, seed=s) for s in seeds]``."""
    return [fn(**dict(params, seed=seed)) for seed in seeds]


def _invoke(
    payload: tuple[Callable[..., Any], tuple[tuple[str, Any], ...], tuple[int, ...], bool]
) -> Any:
    """Worker-side entry point: run one group of seeds (must be module-level)."""
    call, params, seeds, forward = payload
    kwargs = dict(params, seeds=list(seeds))
    if forward:
        results, events = _call_collecting(call, kwargs)
        return list(results), events
    return list(call(**kwargs))


def _invoke_chunk(payloads: list[Any]) -> list[Any]:
    """Worker-side entry point: run one guided chunk of groups."""
    results = []
    for payload in payloads:
        call, params, seeds, forward = payload
        value = _invoke(payload)
        if forward:
            _check_returnable(value, call, params, seeds)
        results.append(value)
    return results


def _batch_groups(
    specs: Sequence[TrialSpec], size: int
) -> list[tuple[tuple[tuple[str, Any], ...], list[int]]]:
    """Group *consecutive* same-parameter specs into seed batches.

    Only adjacency is exploited (sweep grids emit their repeats
    back-to-back), so flattening group results in group order restores
    exactly the original spec order.
    """
    groups: list[tuple[tuple[tuple[str, Any], ...], list[int]]] = []
    for spec in specs:
        if groups and groups[-1][0] == spec.params and len(groups[-1][1]) < size:
            groups[-1][1].append(spec.seed)
        else:
            groups.append((spec.params, [spec.seed]))
    return groups


def _check_shippable(fn: Callable[..., Any], jobs: Any, count: int) -> None:
    # Check shippability of *every* job up front -- the full chunks as
    # dispatched (an unpicklable value may hide in any spec's
    # parameters) -- so a pickling failure is diagnosed as such before
    # anything reaches the pool, and so exceptions raised *by* fn
    # inside workers propagate untouched instead of being mislabelled.
    try:
        pickle.dumps(jobs)
    except Exception as exc:
        raise ValueError(
            f"workers={count} requires a picklable trial function and "
            f"parameters, but {fn!r} (or a spec's parameters, or the "
            "dispatched job envelope) could not be shipped to worker "
            "processes; use a module-level function and picklable "
            "parameter values, or run with workers=1"
        ) from exc


def _check_returnable(value: Any, fn: Callable[..., Any], params: Any, seeds: Any) -> None:
    # Worker-side guard for the *return* path: with event forwarding on,
    # the shipped-back value carries whatever the trial handed to
    # record_event. An unpicklable event would otherwise die inside the
    # executor's result pipe as an opaque pool error; pickling here
    # names the offending trial while its identity is still in hand.
    try:
        pickle.dumps(value)
    except Exception as exc:
        raise ValueError(
            f"trial function {fn!r} (params {dict(params)!r}, seeds "
            f"{list(seeds)!r}) produced a result or forwarded event that "
            "could not be pickled back to the dispatching process; "
            "forwarded events must be picklable (the repro.obs bus "
            "events are frozen scalar dataclasses), or drop on_event"
        ) from exc


def _chunk_bounds(count: int, max_workers: int) -> list[tuple[int, int]]:
    """Deterministic guided chunking over ``range(count)``.

    Each chunk takes ``remaining // (2 * max_workers)`` items (at least
    one), so sizes decay geometrically: early chunks amortize IPC, the
    tail of single-item chunks keeps heterogeneous grids balanced.
    Boundaries depend only on the two counts -- never on timing -- so
    dispatch stays reproducible.
    """
    bounds: list[tuple[int, int]] = []
    start = 0
    while start < count:
        size = max(1, (count - start) // (max_workers * 2))
        bounds.append((start, start + size))
        start += size
    return bounds


def _collect(
    executor: ProcessPoolExecutor, chunk_fn: Callable[[Any], list[Any]], jobs: list[Any]
) -> list[Any]:
    # Submission order == collection order: order-stable by construction.
    futures = [executor.submit(chunk_fn, job) for job in jobs]
    results: list[Any] = []
    for future in futures:
        results.extend(future.result())
    return results


def _fan_out(
    chunk_fn: Callable[[Any], list[Any]],
    jobs: list[Any],
    max_workers: int,
    pool_mode: str,
) -> list[Any]:
    if pool_mode == "fresh":
        with _new_executor(max_workers) as executor:
            return _collect(executor, chunk_fn, jobs)
    executor = get_pool(max_workers)
    try:
        return _collect(executor, chunk_fn, jobs)
    except BrokenProcessPool:
        # A dead pool cannot be reused: tear it down so the next call
        # starts clean, then let the crash propagate.
        close_pool()
        raise


def run_trials(
    fn: Callable[..., Any],
    specs: Sequence[TrialSpec],
    workers: int | None = 1,
    batch: int | None = 1,
    batch_fn: Callable[..., Sequence[Any]] | None = None,
    on_event: Callable[[Any], None] | None = None,
    pool: str | None = None,
    arenas: bool | None = None,
) -> list[Any]:
    """Run ``fn(**spec.params, seed=spec.seed)`` for every spec, in order.

    With one resolved worker (or at most one spec) this runs serially
    in-process -- no pool, no pickling requirement. Otherwise trials
    fan out over a process pool; results return in the order of
    ``specs`` (never completion order), and each trial's seed is taken
    from its spec, so for deterministic ``fn`` the output is identical
    to the serial path's.

    ``pool`` selects the pool lifecycle: ``"persist"`` (the default)
    reuses the module-level pool across calls (see :func:`get_pool` /
    :func:`close_pool`), ``"fresh"`` spins one up per call.
    ``arenas`` is accepted and ignored: a compatibility stub for
    perfbench's pooled workload, dropped by the ``[benchmark]``
    follow-up that stops passing it.

    ``batch`` (with a ``batch_fn``, defaulting to ``fn``'s own
    ``batch_fn`` attribute) additionally groups consecutive
    same-parameter specs into one ``batch_fn(seeds=[...], **params)``
    call of up to ``batch`` seeds -- see the module docstring for the
    equivalence contract. An explicit ``batch > 1`` without a batched
    form is an error; a process-wide *default* batch (``None`` here)
    silently degrades to unbatched execution for trial functions that
    have no batched form.

    >>> specs = [TrialSpec((("scale", 10),), seed=s) for s in (1, 2, 3)]
    >>> run_trials(lambda scale, seed: scale * seed, specs)
    [10, 20, 30]

    The batch_fn contract -- one result per seed, in seed order, equal
    to the per-trial calls (what every family trial's ``batch_fn`` in
    :mod:`repro.scenario.trial` keeps, kernel-backed where the family
    vectorizes):

    >>> def scaled(scale, seed):
    ...     return scale * seed
    >>> def scaled_batch(scale, seeds=()):
    ...     return [scale * seed for seed in seeds]
    >>> run_trials(scaled, specs, batch=2, batch_fn=scaled_batch)
    [10, 20, 30]

    ``on_event`` opts into **event forwarding**: events a trial hands
    to :func:`record_event` -- on any worker, at any batch size -- are
    replayed as ``on_event(event)`` on the calling process, in spec
    order (events of trial *i* before events of trial *i+1*, each
    trial's in emission order), before this function returns. Without
    ``on_event``, recorded events are dropped at the source.
    """
    count = resolve_workers(workers)
    size = resolve_batch(batch)
    pool_mode = resolve_pool(pool)
    specs = list(specs)
    forward = on_event is not None
    if batch_fn is None:
        batch_fn = getattr(fn, "batch_fn", None)
    if size > 1 and batch_fn is None:
        if batch is not None:
            raise ValueError(
                f"batch={size} requires a batched trial function "
                "(batch_fn=... or an fn.batch_fn attribute); run with "
                "batch=1 for plain per-trial execution"
            )
        size = 1
    call = batch_fn if size > 1 else functools.partial(_per_seed, fn)
    groups = _batch_groups(specs, size)
    payloads = [(call, params, tuple(seeds), forward) for params, seeds in groups]
    if count <= 1 or len(payloads) <= 1:
        nested = [_invoke(payload) for payload in payloads]
    else:
        max_workers = min(count, len(payloads))
        jobs = [
            payloads[start:stop]
            for start, stop in _chunk_bounds(len(payloads), max_workers)
        ]
        _check_shippable(call, jobs, count)
        nested = _fan_out(_invoke_chunk, jobs, max_workers, pool_mode)
    results = []
    for (params, seeds), group_results in zip(groups, nested):
        if forward:
            group_results, events = group_results
            for event in events:
                on_event(event)
        if len(group_results) != len(seeds):
            raise ValueError(
                f"batched trial function {call!r} returned "
                f"{len(group_results)} results for {len(seeds)} seeds "
                f"(params {params!r}); it must return one result per seed, "
                "in seed order"
            )
        results.extend(group_results)
    return results
