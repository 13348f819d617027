# lint-corpus-module: repro.bench.widget
"""Known-good twin: the kernel is imported where a kernel runs, and
typing-only imports load nothing."""

from typing import TYPE_CHECKING

from repro.sim import run_trials  # not a kernel name

if TYPE_CHECKING:
    from repro.sim.batch import LaneResult


def lanes(family, seeds) -> "list[LaneResult]":
    from repro.sim.batch import run_lanes

    return run_lanes(family, seeds)


def backend() -> str:
    import repro

    return "numpy" if repro.numpy_available() else "python"


def serial(fn, specs):
    return run_trials(fn, specs)
