"""Async job management: bounded queue, coalescing, per-job event logs.

The :class:`JobManager` is the daemon's scheduling heart. A submitted
spec resolves (:func:`repro.scenario.resolve.resolve`), each requested
seed becomes one potential trial, and three outcomes are possible per
seed, decided synchronously at submission time. Resolution is
memoized per manager on the exact text submitted (at most
``SPEC_MEMO_SIZE`` spellings, oldest evicted first), so a repeated
spelling skips parsing, resolution and the content hash.

- **hit** -- the :class:`~repro.service.cache.ResultCache` already
  holds ``(scenario_key, seed)``: the result is returned without any
  scheduling;
- **coalesced** -- another in-flight job is already computing exactly
  this key: the submission attaches to that computation's future
  instead of enqueueing a duplicate (concurrent identical submissions
  share one computation);
- **computed** -- the seed is claimed (an in-flight future is
  registered under its key) and the job is enqueued on the bounded
  queue; ``submit`` itself applies backpressure by awaiting queue
  space.

Trials run on the existing process-pool machinery --
``run_trials(workers=N, batch=B, pool="persist")`` -- offloaded
through ``loop.run_in_executor`` onto a **single-thread** executor so
the event loop never blocks. That executor thread is the single owner
of the module-level persistent pool: :mod:`repro.sim.parallel`
documents pooled dispatch as single-owner, and funneling every
``run_trials`` call through one thread is how the service honors it
(``close_pool`` itself is safe to race from shutdown paths).

Every job carries an append-only :class:`JobEventLog`. Observability
events the trials hand to :func:`repro.sim.parallel.record_event`
ride back over the PR 7/8 forwarding path (``run_trials(on_event=...)``
replays them in spec order) and are appended to the log alongside the
manager's own lifecycle entries; HTTP clients tail the log as a
chunked progress stream (:mod:`repro.service.server`). Logs and
result payloads carry no wall-clock or scheduling-dependent values:
given the same request sequence, every payload is byte-identical.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from collections.abc import AsyncIterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any

from repro.scenario.resolve import ResolvedScenario, resolve
from repro.scenario.spec import ScenarioSpec
from repro.service.cache import ResultCache, scenario_identity
from repro.sim.parallel import TrialSpec, close_pool, run_trials

__all__ = ["Job", "JobEventLog", "JobManager"]

#: How many submitted spellings one manager's spec memo keeps; the
#: oldest is evicted first.
SPEC_MEMO_SIZE = 256
#: Longer spellings (padding, comments) are resolved every time, so the
#: memo holds at most ``SPEC_MEMO_SIZE * SPEC_MEMO_KEY_CHARS`` characters.
SPEC_MEMO_KEY_CHARS = 4096


def _memo_key(spec: Any) -> Any:
    """The spec memo's key for a submission, or ``None`` (not memoized).

    DSL or JSON text is its own key. A spec JSON object is keyed by its
    sorted-key JSON text, which tells ``5``, ``5.0`` and ``true`` apart;
    a :class:`ScenarioSpec` would not, since its parameters compare
    ``5 == 5.0 == True`` equal.
    """
    if isinstance(spec, str):
        text, key = spec, spec
    elif isinstance(spec, dict):
        try:
            text = json.dumps(spec, sort_keys=True)
        except (TypeError, ValueError, RecursionError):
            return None  # not JSON data; from_dict reports it
        key = ("json", text)  # the tag keeps it apart from submitted text
    else:
        return None
    return key if len(text) <= SPEC_MEMO_KEY_CHARS else None


def _envelope(event: Any) -> dict[str, Any]:
    """One forwarded observer event as a plain JSON-ready log entry."""
    if dataclasses.is_dataclass(event) and not isinstance(event, type):
        return {
            "kind": "event",
            "event": type(event).__name__,
            **dataclasses.asdict(event),
        }
    return {"kind": "event", "event": type(event).__name__, "repr": repr(event)}


class JobEventLog:
    """An append-only event log one or more clients can tail.

    Appends happen on the event-loop thread only (the manager replays
    worker-forwarded events there), so tailers never observe a torn
    entry; :meth:`close` marks the log complete, after which
    :meth:`tail` drains the remainder and stops.
    """

    def __init__(self) -> None:
        self._entries: list[dict[str, Any]] = []
        self._closed = False
        self._wakeup = asyncio.Event()

    @property
    def entries(self) -> list[dict[str, Any]]:
        """A snapshot of everything logged so far."""
        return list(self._entries)

    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, entry: dict[str, Any]) -> None:
        """Append one entry (dropped once the log is closed)."""
        if self._closed:
            return
        self._entries.append(entry)
        self._wakeup.set()

    def close(self) -> None:
        """Mark the log complete and wake every tailer."""
        self._closed = True
        self._wakeup.set()

    async def tail(self) -> AsyncIterator[dict[str, Any]]:
        """Yield entries in order, waiting for new ones until closed."""
        index = 0
        while True:
            while index < len(self._entries):
                yield self._entries[index]
                index += 1
            if self._closed:
                return
            self._wakeup.clear()
            if index < len(self._entries) or self._closed:
                continue
            await self._wakeup.wait()


class Job:
    """One accepted submission: seeds, per-seed outcomes, event log."""

    def __init__(
        self,
        job_id: str,
        resolved: ResolvedScenario,
        scenario: str,
        canonical: dict[str, Any],
        seeds: tuple[int, ...],
        events_requested: bool,
    ) -> None:
        self.id = job_id
        self.resolved = resolved
        self.scenario = scenario
        self.canonical = canonical
        self.seeds = seeds
        self.events_requested = events_requested
        self.log = JobEventLog()
        #: seed -> ("hit" | "coalesced" | "computed", result-or-future)
        self.statuses: dict[int, tuple[str, Any]] = {}
        #: the seeds this job itself computes, in request order
        self.compute_seeds: list[int] = []

    async def result(self) -> dict[str, Any]:
        """Await every seed's outcome; the deterministic response payload.

        Raises whatever the computation raised (for this job's own
        trials or a coalesced-into computation's); failed trials are
        never cached, so a retry recomputes.
        """
        results: list[dict[str, Any]] = []
        counts = {"computed": 0, "hit": 0, "coalesced": 0}
        for seed in self.seeds:
            status, value = self.statuses[seed]
            if asyncio.isfuture(value):
                value = await value
            counts[status] += 1
            results.append({"seed": seed, "status": status, "result": value})
        return {
            "job": self.id,
            "scenario": self.scenario,
            "spec": self.canonical,
            "results": results,
            **counts,
        }


class JobManager:
    """Bounded async scheduler over the pooled trial executors.

    One instance owns one :class:`~repro.service.cache.ResultCache`,
    one bounded :class:`asyncio.Queue` of jobs, the in-flight
    coalescing table, and the single-thread executor that serializes
    all pooled dispatch (the single-owner contract of
    :mod:`repro.sim.parallel`). ``workers``/``batch`` are handed
    through to ``run_trials`` unchanged -- the service adds no
    execution semantics of its own, which is what keeps its payloads
    byte-identical to direct ``resolve(spec).run(seed)`` calls.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        workers: int = 1,
        batch: int = 1,
        queue_size: int = 16,
        pool: str = "persist",
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.batch = batch
        self.pool = pool
        self._queue: asyncio.Queue[Job] = asyncio.Queue(maxsize=queue_size)
        self._inflight: dict[tuple[str, int], asyncio.Future] = {}
        #: submitted spelling -> (resolved, scenario key, canonical dict)
        self._spec_memo: dict[Any, tuple[ResolvedScenario, str, dict[str, Any]]] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-dispatch"
        )
        self._worker_task: asyncio.Task | None = None
        self._job_counter = 0
        self.jobs_accepted = 0
        self.jobs_finished = 0
        self.jobs_failed = 0
        self.trials_computed = 0
        self.trials_coalesced = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start the queue-draining worker task (idempotent)."""
        if self._worker_task is None or self._worker_task.done():
            self._worker_task = asyncio.get_running_loop().create_task(
                self._drain(), name="repro-service-jobs"
            )

    async def close(self, shutdown_pool: bool = True) -> None:
        """Stop the worker, fail pending futures, release the executor.

        ``shutdown_pool`` additionally tears down the module-level
        persistent pool (on the dispatch thread, so teardown and any
        interrupted dispatch serialize); pass ``False`` when the
        surrounding process keeps using the pool.
        """
        task, self._worker_task = self._worker_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        pending = list(self._inflight.values())
        self._inflight.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    RuntimeError("service shut down before the trial ran")
                )
        if shutdown_pool:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, close_pool)
        self._executor.shutdown(wait=True)
        self.cache.close()

    def stats(self) -> dict[str, Any]:
        """Deterministic counters (the ``/stats`` endpoint payload)."""
        return {
            "jobs": {
                "accepted": self.jobs_accepted,
                "finished": self.jobs_finished,
                "failed": self.jobs_failed,
                "queued": self._queue.qsize(),
                "inflight_trials": len(self._inflight),
            },
            "trials": {
                "computed": self.trials_computed,
                "coalesced": self.trials_coalesced,
            },
            "cache": self.cache.stats(),
            "dispatch": {
                "workers": self.workers,
                "batch": self.batch,
                "pool": self.pool,
            },
        }

    # -- submission -------------------------------------------------------

    async def submit(
        self,
        spec: Any,
        seeds: Sequence[int] | None = None,
        events: bool = False,
    ) -> Job:
        """Resolve a spec, decide per-seed outcomes, enqueue what's new.

        ``spec`` is anything :func:`repro.scenario.resolve.resolve`
        accepts (DSL text, JSON text, or a :class:`ScenarioSpec`), a
        spec JSON object, or an already-resolved scenario. ``seeds``
        defaults to the spec's own seed. ``events=True`` asks for
        trial-level observer events in the job log. Raises
        :class:`~repro.scenario.spec.SpecError` on a bad spec; awaiting
        queue space is the backpressure path.
        """
        self.start()
        resolved, scenario, canonical = self._identify(spec)
        chosen = (
            (resolved.spec.seed,)
            if seeds is None
            else tuple(int(seed) for seed in seeds)
        )
        if not chosen:
            raise ValueError("seeds must name at least one seed")
        self._job_counter += 1
        self.jobs_accepted += 1
        job = Job(
            job_id=f"job-{self._job_counter}",
            resolved=resolved,
            scenario=scenario,
            canonical=canonical,
            seeds=chosen,
            events_requested=events,
        )
        loop = asyncio.get_running_loop()
        for seed in chosen:
            if seed in job.statuses:
                continue  # duplicate seed in one request: one outcome
            key = (scenario, seed)
            cached = self.cache.get(key)
            if cached is not None:
                job.statuses[seed] = ("hit", cached)
            elif key in self._inflight:
                self.trials_coalesced += 1
                job.statuses[seed] = ("coalesced", self._inflight[key])
            else:
                future: asyncio.Future = loop.create_future()
                self._inflight[key] = future
                job.statuses[seed] = ("computed", future)
                job.compute_seeds.append(seed)
        job.log.append(
            {
                "kind": "job",
                "job": job.id,
                "status": "accepted",
                "scenario": scenario,
                "seeds": list(chosen),
                "computed": len(job.compute_seeds),
                "hit": sum(1 for s, _ in job.statuses.values() if s == "hit"),
                "coalesced": sum(
                    1 for s, _ in job.statuses.values() if s == "coalesced"
                ),
            }
        )
        if job.compute_seeds:
            try:
                await self._queue.put(job)
            except BaseException:
                # The backpressure await was cancelled (or failed)
                # before the job made it onto the queue: release the
                # claimed keys so identical resubmissions recompute
                # instead of coalescing onto a future nobody will ever
                # resolve. Coalesced waiters see the failure too.
                error = RuntimeError(
                    "submission abandoned before the job was enqueued"
                )
                for seed in job.compute_seeds:
                    future = self._inflight.pop((job.scenario, seed), None)
                    if future is not None and not future.done():
                        future.set_exception(error)
                        future.exception()  # retrieved: no GC warning
                job.log.append(
                    {"kind": "job", "job": job.id, "status": "abandoned"}
                )
                job.log.close()
                raise
            job.log.append({"kind": "job", "job": job.id, "status": "queued"})
        else:
            self.jobs_finished += 1
            job.log.append({"kind": "job", "job": job.id, "status": "finished"})
            job.log.close()
        return job

    def _identify(self, spec: Any) -> tuple[ResolvedScenario, str, dict[str, Any]]:
        """``(resolved, scenario key, canonical dict)`` for one submission.

        Text and spec JSON objects go through a per-manager memo keyed
        by what was submitted (:func:`_memo_key`): a repeat skips
        parsing, resolution and hashing. Only successful resolutions are
        stored, so a bad spec raises the same :class:`SpecError` every
        time. The canonical dict is shared by every job of the
        spelling and must not be mutated.
        """
        if isinstance(spec, ResolvedScenario):
            return (spec, *scenario_identity(spec))
        key = _memo_key(spec)
        memo = self._spec_memo.get(key)
        if memo is not None:
            return memo
        if isinstance(spec, dict):
            spec = ScenarioSpec.from_dict(spec)
        resolved = resolve(spec)
        memo = (resolved, *scenario_identity(resolved))
        if key is not None:
            self._spec_memo[key] = memo
            if len(self._spec_memo) > SPEC_MEMO_SIZE:
                del self._spec_memo[next(iter(self._spec_memo))]
        return memo

    # -- execution --------------------------------------------------------

    async def _drain(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                await self._execute(job)
            finally:
                self._queue.task_done()

    async def _execute(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        kwargs = dict(job.resolved.trial_kwargs())
        # Event streaming rides on the trial's observe knob; the
        # injected "metrics" key is stripped again below so cached
        # payloads stay identical to bare resolve(spec).run(seed)
        # results (observation is read-only by the repro.obs contract).
        strip_metrics = job.events_requested
        if strip_metrics:
            kwargs["observe"] = True
        params = tuple(sorted(kwargs.items()))
        specs = [TrialSpec(params, seed=seed) for seed in job.compute_seeds]
        # run_trials replays forwarded events after collection, so the
        # buffer is complete (and in spec order) by the time the
        # executor call returns; replaying it on the loop thread keeps
        # log appends single-threaded.
        forwarded: list[Any] = []
        call = partial(
            run_trials,
            job.resolved.trial_fn,
            specs,
            workers=self.workers,
            batch=self.batch,
            pool=self.pool,
            on_event=forwarded.append,
        )
        job.log.append(
            {
                "kind": "job",
                "job": job.id,
                "status": "running",
                "trials": len(specs),
            }
        )
        # Result processing shares the executor call's failure path: a
        # cache.put that cannot serialize an outcome must still resolve
        # the job's remaining futures, or coalesced waiters hang and
        # the _drain task dies mid-job.
        try:
            outcomes = await loop.run_in_executor(self._executor, call)
            for event in forwarded:
                job.log.append(_envelope(event))
            for seed, outcome in zip(job.compute_seeds, outcomes):
                if strip_metrics and isinstance(outcome, dict):
                    outcome = {
                        k: v for k, v in outcome.items() if k != "metrics"
                    }
                key = (job.scenario, seed)
                self.cache.put(key, outcome, spec=job.canonical)
                self.trials_computed += 1
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(outcome)
                job.log.append(
                    {"kind": "trial", "seed": seed, "status": "computed"}
                )
        except BaseException as exc:
            self.jobs_failed += 1
            for seed in job.compute_seeds:
                future = self._inflight.pop((job.scenario, seed), None)
                if future is not None and not future.done():
                    future.set_exception(exc)
                    future.exception()  # retrieved: no GC warning
            job.log.append(
                {
                    "kind": "job",
                    "job": job.id,
                    "status": "failed",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            job.log.close()
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        self.jobs_finished += 1
        job.log.append({"kind": "job", "job": job.id, "status": "finished"})
        job.log.close()
