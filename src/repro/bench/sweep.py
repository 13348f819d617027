"""Parameter-sweep driver: cartesian grids over execution builders.

The experiment functions in :mod:`repro.bench.experiments` hand-roll
their loops for readability; this module is the general-purpose
version exposed to users: declare a grid, point it at a runner
callback, get structured records back with grouping/aggregation
helpers and table/markdown rendering.

Example
-------
>>> from repro.bench.sweep import Sweep
>>> from repro.sim.runner import run_consensus
>>> from repro.workloads import build_dac_execution
>>> sweep = Sweep(grid={"n": [5, 9], "window": [1, 3]}, repeats=2)
>>> records = sweep.run(
...     lambda n, window, seed: run_consensus(
...         **build_dac_execution(n=n, f=(n - 1) // 2, seed=seed, window=window)
...     ).rounds
... )
>>> len(records)
8
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.statistics import Summary, summarize
from repro.bench.tables import TableResult
from repro.sim.parallel import TrialSpec, run_trials


@dataclass(frozen=True)
class SweepRecord:
    """One cell of a sweep: the parameter assignment and its result."""

    params: tuple[tuple[str, Any], ...]
    seed: int
    result: Any

    def param(self, name: str) -> Any:
        """Value of one parameter in this record."""
        for key, value in self.params:
            if key == name:
                return value
        available = ", ".join(repr(key) for key, _ in self.params) or "<none>"
        raise KeyError(
            f"no parameter {name!r} in record {self.params!r} "
            f"(seed={self.seed}; available parameters: {available})"
        )


@dataclass
class Sweep:
    """A cartesian parameter grid with per-cell repetition.

    Parameters
    ----------
    grid:
        Mapping from parameter name to the values to sweep. The
        cartesian product of all values is executed.
    repeats:
        Trials per cell; trial ``i`` receives ``seed = seed0 + i``.
    seed0:
        Base seed for the repetition counter.
    """

    grid: Mapping[str, Sequence[Any]]
    repeats: int = 1
    seed0: int = 0
    records: list[SweepRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("sweep needs at least one parameter")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def cells(self) -> list[dict[str, Any]]:
        """All parameter assignments, in deterministic order."""
        names = list(self.grid)
        out = []
        for combo in itertools.product(*(self.grid[name] for name in names)):
            out.append(dict(zip(names, combo)))
        return out

    def run(
        self,
        fn: Callable[..., Any] | str | Any,
        *,
        workers: int | None = None,
        batch: int | None = None,
        batch_fn: Callable[..., Sequence[Any]] | None = None,
        pool: str | None = None,
    ) -> list[SweepRecord]:
        """Execute ``fn(**params, seed=...)`` over the whole grid.

        ``fn`` may also be a **scenario spec** -- a
        :class:`repro.scenario.ScenarioSpec` or its text/JSON form
        (see ``docs/scenarios.md``). The spec resolves through the
        registry (:func:`repro.scenario.resolve_trial`) to the
        family's module-level trial function plus its fully-defaulted
        parameters; grid cells override spec parameters key-by-key,
        and the ``batch_fn`` attachment rides along, so
        every knob below works identically for spec-driven sweeps.
        The spec's own ``seed`` is ignored here -- sweep seeding stays
        with ``seed0``/``repeats``.

        ``workers`` fans independent trials out over a process pool
        (see :mod:`repro.sim.parallel`): ``1`` runs serially
        in-process, ``0`` means one worker per CPU, and ``None`` (the
        default) uses the process-wide default (serial unless a CLI
        ``--workers`` flag raised it). Seeds are scheduled before any
        dispatch and results are collected in grid order, so the
        records are identical -- same results, same order -- for every
        worker count; parallelism is purely a speed knob. ``fn`` must
        be picklable (a module-level function) when more than one
        worker is used.

        ``batch`` composes the second speed knob: repeats of one grid
        cell are grouped into single calls of a *batched* trial
        function (``batch_fn``, defaulting to ``fn``'s ``batch_fn``
        attribute -- e.g. :func:`repro.workloads.run_dac_trial` carries
        its :mod:`repro.sim.batch`-backed form). Batching is equally a
        pure speed knob: ``workers=N, batch=B`` records are identical
        to ``workers=1, batch=1`` records. ``None`` uses the
        process-wide default (a CLI ``--batch`` flag), which degrades
        to unbatched execution for functions without a batched form.

        ``pool`` passes through to
        :func:`repro.sim.parallel.run_trials`: by default parallel runs
        reuse the persistent module-level worker pool;
        ``pool="fresh"`` spins a pool up for this call only. Either way
        is a pure speed knob -- records are identical.

        Results are collected into :attr:`records` (appending across
        multiple ``run`` calls) and returned.
        """
        base: dict[str, Any] = {}
        if not callable(fn):
            from repro.scenario.resolve import resolve_trial

            fn, base = resolve_trial(fn)
        specs = [
            TrialSpec(tuple(sorted({**base, **cell}.items())), self.seed0 + trial)
            for cell in self.cells()
            for trial in range(self.repeats)
        ]
        results = run_trials(
            fn,
            specs,
            workers=workers,
            batch=batch,
            batch_fn=batch_fn,
            pool=pool,
        )
        new_records = [
            SweepRecord(spec.params, spec.seed, result)
            for spec, result in zip(specs, results)
        ]
        self.records.extend(new_records)
        return new_records

    # -- Aggregation -----------------------------------------------------

    def group_by(self, *names: str) -> dict[tuple, list[SweepRecord]]:
        """Bucket the records by the given parameter names.

        Raises ``ValueError`` when any accumulated record lacks one of
        the names. That happens when :meth:`run` was called more than
        once over different grids (records append across runs): group
        only by parameters common to every grid, or use a fresh Sweep
        per grid.
        """
        groups: dict[tuple, list[SweepRecord]] = {}
        for record in self.records:
            try:
                key = tuple(record.param(name) for name in names)
            except KeyError as exc:
                raise ValueError(
                    f"cannot group heterogeneous records by {names!r}: "
                    f"{exc.args[0]}. Records accumulated from runs over "
                    "different grids can only be grouped by their common "
                    "parameters."
                ) from exc
            groups.setdefault(key, []).append(record)
        return groups

    def summarize_by(
        self, *names: str, value: Callable[[SweepRecord], float] = lambda r: float(r.result)
    ) -> dict[tuple, Summary]:
        """Per-group statistics of a numeric projection of the results."""
        return {
            key: summarize([value(r) for r in records])
            for key, records in self.group_by(*names).items()
        }

    def to_table(
        self,
        *names: str,
        title: str = "sweep",
        experiment_id: str = "SWEEP",
        value: Callable[[SweepRecord], float] = lambda r: float(r.result),
    ) -> TableResult:
        """Render grouped mean +/- CI as a :class:`TableResult`."""
        table = TableResult(
            experiment_id,
            title,
            [*names, "trials", "mean", "ci low", "ci high"],
        )
        for key, stats in sorted(self.summarize_by(*names, value=value).items()):
            table.add_row(*key, stats.count, stats.mean, stats.ci_low, stats.ci_high)
        return table
