"""The three sweep workloads: serial, batched and pooled grid passes.

A pass runs every cell of the grid once through ``run_trials``; the
timed window repeats whole passes on the same trial seeds, so every
pass does the same work and can be checked against one reference.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import time
from typing import Any

from perfbench import grid
from perfbench.tracing import Tracer, WorkerTrace, traced_batch

MODES = {
    # mode: (cells, workers, batch)
    "serial": (grid.SWEEP_CELLS, 1, 1),
    "batched": (grid.SWEEP_CELLS, 1, grid.SWEEP_BATCH),
    "pooled": (grid.POOLED_CELLS, grid.POOLED_WORKERS, grid.POOLED_BATCH),
}


def digest(cells: list[grid.Cell], results: list[dict[str, Any]]) -> str:
    """Order-sensitive hash of one pass's ``(cell, seed, result)`` triples."""
    rows = []
    position = 0
    for cell in cells:
        for seed in cell.seeds:
            rows.append([cell.index, seed, results[position]])
            position += 1
    if position != len(results):
        raise ValueError(f"{len(results)} results for {position} trials")
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failed_trials(results: list[dict[str, Any]], reference: list[dict[str, Any]]) -> int:
    """Trials that differ from the reference or miss the paper's verdicts."""
    if len(results) != len(reference):
        return max(len(results), len(reference))
    return sum(
        1
        for got, want in zip(results, reference)
        if got != want or not (got.get("correct") and got.get("terminated"))
    )


class SweepWorkload:
    """One grid, run through ``run_trials`` in one of :data:`MODES`."""

    def __init__(self, mode: str, seed: int,
                 cells: tuple[tuple[str, int], ...] | None = None) -> None:
        default_cells, self.workers, self.batch = MODES[mode]
        self.cells = grid.sweep_grid(seed, cells or default_cells)
        self.trials_per_pass = sum(len(cell.seeds) for cell in self.cells)
        self.tracer: Tracer | None = None

    def setup(self) -> dict[str, float]:
        """Import, resolve every cell, warm up; returns timed sub-steps."""
        from repro.scenario import resolve
        from repro.sim.parallel import TrialSpec, get_pool

        self._resolved = [resolve(cell.spec) for cell in self.cells]
        self._specs = []
        for cell, resolved in zip(self.cells, self._resolved):
            params = tuple(sorted(resolved.trial_kwargs().items()))
            self._specs.append([TrialSpec(params, seed) for seed in cell.seeds])
        steps: dict[str, float] = {}
        if self.workers > 1:
            # Pool spawn plus one dispatch that reaches every worker.
            start = time.perf_counter()
            get_pool(self.workers)
            self.run_cell(0)
            steps["pool_start_s"] = time.perf_counter() - start
        # Warm-up: one trial per cell on the workload's own path fills
        # Topology interning, routing plans and kernel structure caches
        # (and, pooled, publishes every cell's arena tables).
        for index in range(len(self.cells)):
            self.run_cell(index, warm_up=self.workers == 1)
        return steps

    def run_cell(self, index: int, warm_up: bool = False) -> list[dict[str, Any]]:
        """One cell's ``run_trials`` call; ``warm_up`` runs its first seed only."""
        from repro.sim.parallel import run_trials

        specs = self._specs[index][:1] if warm_up else self._specs[index]
        resolved = self._resolved[index]
        batch_fn = resolved.batch_fn
        on_event = None
        if self.tracer is not None and self.workers > 1:
            # Worker-side spans ride back on the event-forwarding path.
            real = batch_fn
            batch_fn = functools.partial(traced_batch, real)
            batch_fn.arena_plan = real.arena_plan
            on_event = self._merge_worker
        return run_trials(
            resolved.trial_fn,
            specs,
            workers=self.workers,
            batch=self.batch,
            batch_fn=batch_fn if self.batch > 1 else None,
            pool="persist",
            arenas=True,
            on_event=on_event,
        )

    def pids(self) -> list[int]:
        """This process and its pool workers: whose CPU time a call costs."""
        return [os.getpid()] + [child.pid for child in multiprocessing.active_children()]

    def _merge_worker(self, event: Any) -> None:
        if isinstance(event, WorkerTrace):
            self.tracer.merge(event.data, request=f"worker-{event.pid}")

    def reference(self) -> list[dict[str, Any]]:
        """Direct ``resolve(spec).run(seed)`` calls for every trial of a pass."""
        return [
            resolved.run(seed)
            for cell, resolved in zip(self.cells, self._resolved)
            for seed in cell.seeds
        ]

    def close(self) -> None:
        from repro.sim.parallel import close_pool

        close_pool()
