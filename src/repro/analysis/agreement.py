"""Standalone verdicts on output vectors (Definitions 2 and 3).

:func:`judge_outputs` applies the runner's one verdict rule
(:func:`repro.sim.runner.output_verdict`, the float slack included) to
arbitrary output collections -- e.g. group-wise verdicts in the
impossibility experiments, where we must show that *each group*
internally agrees while the *groups* disagree. Unlike the runner, it
refuses an empty output set instead of judging it vacuously.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.sim.runner import OutputVerdict, output_verdict

__all__ = ["OutputVerdict", "cross_group_gap", "groupwise_spread", "judge_outputs"]


def judge_outputs(
    outputs: Mapping[int, float],
    inputs: Mapping[int, float],
    epsilon: float,
) -> OutputVerdict:
    """Judge epsilon-agreement and validity.

    ``inputs`` must be the *non-Byzantine* inputs: validity requires
    every output inside their convex hull (Definition 3(ii)).
    """
    if not outputs:
        raise ValueError("cannot judge an empty output set")
    if not inputs:
        raise ValueError("cannot judge against an empty input set")
    return output_verdict(outputs, inputs, epsilon)


def groupwise_spread(
    outputs: Mapping[int, float],
    groups: Mapping[str, frozenset[int]],
) -> dict[str, float]:
    """Per-group output spread (for the Theorem 9/10 demonstrations).

    Only nodes present in ``outputs`` count; a group with fewer than
    one reporting node yields spread 0.0.
    """
    spreads: dict[str, float] = {}
    for name, members in groups.items():
        values = [outputs[v] for v in members if v in outputs]
        spreads[name] = (max(values) - min(values)) if values else 0.0
    return spreads


def cross_group_gap(
    outputs: Mapping[int, float],
    group_a: frozenset[int],
    group_b: frozenset[int],
) -> float:
    """Smallest |output_a - output_b| across the two groups.

    A large gap with small within-group spreads is the signature of the
    forced-disagreement constructions.
    """
    values_a = [outputs[v] for v in group_a if v in outputs]
    values_b = [outputs[v] for v in group_b if v in outputs]
    if not values_a or not values_b:
        return 0.0
    return min(abs(a - b) for a in values_a for b in values_b)
