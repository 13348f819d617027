"""The experiment registry: id -> function, used by the CLI and benches."""

from __future__ import annotations

from collections.abc import Callable

from repro.bench.experiments import (
    experiment_e1,
    experiment_e2,
    experiment_e3,
    experiment_e4,
    experiment_e5,
    experiment_f1,
    experiment_i1,
    experiment_i2,
    experiment_i4,
    experiment_s1,
    experiment_s2,
    experiment_s3,
    experiment_s4,
    experiment_x1,
    experiment_x2,
    experiment_x3,
    experiment_x4,
)
from repro.bench.experiments_ext import (
    experiment_x5,
    experiment_x6,
    experiment_x7,
    experiment_x8,
)
from repro.bench.tables import TableResult

EXPERIMENTS: dict[str, Callable[[bool], TableResult]] = {
    "F1": experiment_f1,
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "I1": experiment_i1,
    "I2": experiment_i2,
    "I4": experiment_i4,
    "X1": experiment_x1,
    "X2": experiment_x2,
    "X3": experiment_x3,
    "X4": experiment_x4,
    "X5": experiment_x5,
    "X6": experiment_x6,
    "X7": experiment_x7,
    "X8": experiment_x8,
    "S1": experiment_s1,
    "S2": experiment_s2,
    "S3": experiment_s3,
    "S4": experiment_s4,
}


def run_experiment(experiment_id: str, quick: bool = True) -> TableResult:
    """Run one experiment by its :data:`EXPERIMENTS` id (e.g. ``"E1"``)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key](quick)
