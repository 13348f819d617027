"""The Charron-Bost averaging family, registered via the public API.

This module is the registry's pluggability proof and the recipe new
families copy (see ``docs/scenarios.md``): one module that

1. implements (or imports) its process --
   :class:`repro.core.averaging.AveragingProcess` -- and derives the
   seed-independent lane family, :func:`averaging_lane_family`, with
   :func:`repro.workloads.lane_family`;
2. writes the execution builder, :func:`build_averaging_execution`, as
   :func:`repro.workloads.lane_execution` of that family and a seed;
3. subclasses :class:`repro.scenario.registry.AlgorithmFamily` with
   ``build`` and ``lanes`` and registers it with
   :func:`repro.scenario.registry.register_algorithm` at import time,
   reusing the declared component vocabulary (``dynadegree`` /
   ``quorum``).

A family needs no kernel: :func:`repro.sim.batch.run_lanes` runs
lanes no kernel accepts on :class:`repro.sim.batch.GenericBatchEngine`.
Averaging's are fast anyway, because its process class has an entry in
the kernel table: :class:`repro.sim.batch.BaselineBatchEngine` runs
them (the ``rule`` read off the template process picks the update),
and ``GenericBatchEngine`` only without numpy. The trial every
executor runs -- serial, batched, pooled, observed -- comes from
:func:`repro.scenario.trial.family_trial`. Averaging has no
termination detection: a trial's ``correct`` reports whether the
fixed budget actually reached epsilon-agreement, which under the
enforcing adversary it typically does not (the paper's point).

Beyond that kernel entry nothing here is special-cased: the
conformance suite (`tests/test_scenario_conformance.py`) discovers the
family from the registry and enrolls it in the differential harness
-- serial, traced, batch and pooled legs -- with zero new test code.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.constrained import LastMinuteQuorumAdversary
from repro.core.averaging import AVERAGING_RULES, AveragingProcess
from repro.core.phases import dac_end_phase
from repro.scenario.registry import AlgorithmFamily, ParamSpec, register_algorithm
from repro.workloads import (
    EPSILON_POSITIVE,
    F_BELOW_N,
    MAX_N,
    MAX_ROUNDS,
    QUORUM_N,
    LaneFamily,
    dac_degree,
    lane_execution,
    lane_family,
)


def averaging_lane_family(
    n: int,
    rule: str = "mean",
    f: int = 0,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
) -> LaneFamily:
    """The :class:`~repro.workloads.LaneFamily` of :func:`build_averaging_execution`."""
    if num_rounds is None:
        num_rounds = dac_end_phase(epsilon)
    return lane_family(
        n=n,
        f=f,
        epsilon=epsilon,
        stop_mode="output",
        # One averaging round per delivery batch; a window of slack
        # covers the last batch, as for the reliable baselines.
        max_rounds=num_rounds + 2 * window,
        degree=dac_degree(n),
        window=window,
        selector=selector,
        make_adversary=lambda: LastMinuteQuorumAdversary(
            window, dac_degree(n), selector=selector
        ),
        make_process=lambda value, port: AveragingProcess(
            n, f, value, port, rule=rule, num_rounds=num_rounds
        ),
    )


def build_averaging_execution(
    n: int,
    rule: str = "mean",
    f: int = 0,
    epsilon: float = 1e-3,
    seed: int = 0,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
) -> dict[str, Any]:
    """Per-round neighbor averaging under DAC's boundary adversary.

    The same enforcing ``(window, floor(n/2))`` adversary and
    input/port streams as :func:`repro.workloads.build_dac_execution`,
    with :class:`~repro.core.averaging.AveragingProcess` nodes
    (``rule`` in ``mean``/``midpoint``) running a fixed
    ``num_rounds`` budget (default: DAC's ``p_end``). Returns kwargs
    for :func:`repro.sim.runner.run_consensus`.
    """
    family = averaging_lane_family(
        n, rule=rule, f=f, epsilon=epsilon, window=window, selector=selector, num_rounds=num_rounds
    )
    return lane_execution(family, seed)


@register_algorithm("averaging", version=1)
class AveragingFamily(AlgorithmFamily):
    """Charron-Bost per-round neighbor averaging under the quorum adversary."""

    params = (
        ParamSpec("n", "int", low=1, high=MAX_N),
        ParamSpec("rule", "str", default="mean", choices=AVERAGING_RULES),
        ParamSpec("f", "int", default=0, low=0, high=MAX_N),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec(
            "num_rounds", "int", default=None, nullable=True, low=0, high=MAX_ROUNDS
        ),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
    }
    constraints = (EPSILON_POSITIVE, F_BELOW_N, QUORUM_N)
    conformance = {
        "quorum": ({"n": 5}, {"n": 6, "rule": "midpoint"}),
    }
    rounds_param = "num_rounds"

    def build(self, *, seed, **params):
        return build_averaging_execution(seed=seed, **params)

    def lanes(self, **params):
        return averaging_lane_family(**params)
