"""The Charron-Bost averaging family, registered via the public API.

This module is the registry's pluggability proof and the recipe new
families copy (see ``docs/scenarios.md``): one module that

1. implements (or imports) its process --
   :class:`repro.core.averaging.AveragingProcess`;
2. defines a module-level picklable trial function with a
   ``batch_fn`` attachment (here simply the serial trial once per
   seed -- no dedicated kernel needed);
3. subclasses :class:`repro.scenario.registry.AlgorithmFamily` and
   registers it with :func:`repro.scenario.registry.register_algorithm`
   at import time, reusing the declared component vocabulary
   (``dynadegree`` / ``quorum``).

Nothing here is special-cased anywhere else: the conformance suite
(`tests/test_scenario_conformance.py`) discovers the family from the
registry and enrolls it in the differential harness -- serial,
traced, batch and pooled legs -- with zero new test code.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.adversary.constrained import (
    LastMinuteQuorumAdversary,
    RotatingQuorumAdversary,
)
from repro.core.averaging import AVERAGING_RULES, AveragingProcess
from repro.core.phases import dac_end_phase
from repro.faults.base import FaultPlan
from repro.net.ports import random_ports
from repro.scenario.registry import AlgorithmFamily, ParamSpec, register_algorithm
from repro.sim.arena import empty_arena_plan
from repro.sim.rng import child_rng, spawn_inputs
from repro.workloads import dac_degree


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
    if num_rounds is None:
        num_rounds = dac_end_phase(epsilon)
    inputs = spawn_inputs(seed, n)
    ports = random_ports(n, child_rng(seed, "ports"))
    processes = {
        node: AveragingProcess(
            n, f, inputs[node], ports.self_port(node), rule=rule, num_rounds=num_rounds
        )
        for node in range(n)
    }
    degree = dac_degree(n)
    if window == 1:
        adversary = RotatingQuorumAdversary(degree, selector=selector)
    else:
        adversary = LastMinuteQuorumAdversary(window, degree, selector=selector)
    return {
        "processes": processes,
        "adversary": adversary,
        "ports": ports,
        "epsilon": epsilon,
        "f": f,
        "fault_plan": FaultPlan.fault_free_plan(n),
        "stop_mode": "output",
        # One averaging round per delivery batch; a window of slack
        # covers the last batch, as for the reliable baselines.
        "max_rounds": num_rounds + 2 * window,
        "seed": seed,
    }


def run_averaging_trial(
    n: int,
    rule: str = "mean",
    f: int = 0,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
    seed: int = 0,
) -> dict[str, Any]:
    """One averaging execution reduced to the standard trial summary.

    Module-level and picklable, so it fans out under ``workers=N``
    and batches under ``batch=B`` through the attached ``batch_fn``
    exactly like the :mod:`repro.workloads` trials. Averaging has no
    termination detection -- ``correct`` reports whether the fixed
    budget actually reached epsilon-agreement, which under the
    enforcing adversary it typically does not (the paper's point).

    >>> summary = run_averaging_trial(n=5, seed=0)
    >>> sorted(summary)
    ['correct', 'rounds', 'spread', 'terminated']
    >>> run_averaging_trial.batch_fn(n=5, seeds=[0]) == [summary]
    True
    """
    from repro.sim.runner import run_consensus

    # The summary reads no trace, promise check or phase series, so
    # the run takes the engine's fast path like every run_*_trial.
    report = run_consensus(
        **build_averaging_execution(
            n=n,
            rule=rule,
            f=f,
            epsilon=epsilon,
            seed=seed,
            window=window,
            selector=selector,
            num_rounds=num_rounds,
        ),
        record_trace=False,
        verify_promise=False,
        track_phases=False,
    )
    return {
        "rounds": report.rounds,
        "spread": report.output_spread,
        "terminated": report.terminated,
        "correct": report.correct,
    }


def run_averaging_trial_batch(
    n: int,
    rule: str = "mean",
    f: int = 0,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
    seeds: Any = (),
) -> list[dict[str, Any]]:
    """Batched :func:`run_averaging_trial`: one summary per seed, in order.

    Averaging has no kernel, so its batched form is the serial trial
    once per seed -- equal to per-seed calls by construction.
    """
    return [
        run_averaging_trial(
            n=n,
            rule=rule,
            f=f,
            epsilon=epsilon,
            window=window,
            selector=selector,
            num_rounds=num_rounds,
            seed=int(seed),
        )
        for seed in seeds
    ]


def _averaging_build_for_seed(seed: int, **params: Any) -> dict[str, Any]:
    """Seed-first adapter for :class:`repro.sim.batch.GenericBatchEngine`."""
    return build_averaging_execution(seed=seed, **params)


run_averaging_trial.batch_fn = run_averaging_trial_batch  # type: ignore[attr-defined]
run_averaging_trial_batch.arena_plan = empty_arena_plan  # type: ignore[attr-defined]


@register_algorithm("averaging", version=1)
class AveragingFamily(AlgorithmFamily):
    """Charron-Bost per-round neighbor averaging under the quorum adversary."""

    params = (
        ParamSpec("n", "int"),
        ParamSpec("rule", "str", default="mean", choices=AVERAGING_RULES),
        ParamSpec("f", "int", default=0),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec("num_rounds", "int", default=None, nullable=True),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
    }
    conformance = {
        "quorum": ({"n": 5}, {"n": 6, "rule": "midpoint"}),
    }
    rounds_param = "num_rounds"
    trial = staticmethod(run_averaging_trial)

    def build(self, *, seed, **params):
        return build_averaging_execution(seed=seed, **params)

    def batch(self, seeds, **params):
        from repro.sim.batch import run_generic_batch

        build = functools.partial(_averaging_build_for_seed, **params)
        return run_generic_batch(seeds, build)
