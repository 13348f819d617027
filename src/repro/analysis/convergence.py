"""Convergence-rate extraction from per-phase range series.

Experiments E2, E5 and X4 print the *measured* contraction of
``range(V(p))`` next to the proven bounds (``1/2`` for DAC,
``1 - 2^-n`` for DBAC), which :mod:`repro.analysis.guarantees` judges.
Measured ranges come from :class:`repro.sim.metrics.PhaseRangeSeries`
and rates from :func:`repro.sim.metrics.convergence_rates`; this module
reduces them to summary numbers: a rate series' worst,
best and mean (the observers' metrics), a geometric fit over the whole
series, and the first phase within epsilon.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def summarize_rates(rates: Sequence[float]) -> dict[str, float]:
    """Worst, best, and mean per-phase contraction of a rate series."""
    if not rates:
        return {"max": 0.0, "min": 0.0, "mean": 0.0, "phases": 0.0}
    return {
        "max": max(rates),
        "min": min(rates),
        "mean": sum(rates) / len(rates),
        "phases": float(len(rates)),
    }


def fit_geometric_rate(
    range_series: Sequence[float], floor: float = 1e-12
) -> float | None:
    """Least-squares geometric rate of a decaying range series.

    Fits ``log(range_p) ~ log(range_0) + p * log(rho)`` over the phases
    with range above ``floor`` and returns ``rho``. ``None`` when fewer
    than two usable points exist. A pure geometric decay (e.g. DAC on a
    clean network) recovers its rate exactly.
    """
    points = [(p, math.log(r)) for p, r in enumerate(range_series) if r > floor]
    if len(points) < 2:
        return None
    count = len(points)
    mean_x = sum(p for p, _ in points) / count
    mean_y = sum(y for _, y in points) / count
    var_x = sum((p - mean_x) ** 2 for p, _ in points)
    if var_x == 0.0:
        return None
    slope = sum((p - mean_x) * (y - mean_y) for p, y in points) / var_x
    return math.exp(slope)


def phases_until(range_series: Sequence[float], epsilon: float) -> int | None:
    """Index of the first phase with range <= epsilon (``None`` if never)."""
    for phase, spread in enumerate(range_series):
        if spread <= epsilon:
            return phase
    return None
