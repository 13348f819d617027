"""Auto-enrolling conformance suite over the algorithm registry.

Nothing in this file names a family. The parametrization iterates
``repro.scenario.algorithm_entries()`` and each family's declared
``conformance`` configurations, so registering a new algorithm --
:mod:`repro.families.averaging` is the living example -- enrolls it
here with zero new test code:

* every declared algorithm x adversary pairing runs through the full
  differential executor suite (serial sweep, traced, the family's
  batch lanes, ``workers=4``, and the pooled batched leg) pinned to
  full ``state_key`` equality;
* the same pairings re-run on deterministically fuzzed seeds, so the
  pinning is not an artifact of seed 0;
* spec resolution is checked against the family trial -- same
  callable, same summary -- and so is an observed trial;
* a guard fails if a module under :mod:`repro.workloads` or
  :mod:`repro.families` grows its own ``run_*_trial`` or ``batch_fn``,
  a second dispatch convention next to the families' hooks.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import random
import re

import pytest

import repro.families
import repro.workloads
from repro.scenario import (
    AlgorithmFamily,
    algorithm_entries,
    family_trial,
    resolve,
    spec_for,
)
from tests.helpers import assert_equivalent_runs, differential_executors


def _conformance_cases():
    cases = []
    for entry in algorithm_entries():
        for adversary, configs in sorted(entry.obj.conformance.items()):
            for i, params in enumerate(configs):
                cases.append(
                    pytest.param(
                        entry.name,
                        dict(params),
                        id=f"{entry.name}-{adversary}-{i}",
                    )
                )
    return cases


_CASES = _conformance_cases()


@pytest.mark.parametrize("family,params", _CASES)
def test_pairing_pins_all_executors(family, params):
    """Declared configs agree across every executor, pool leg included."""
    config = {"family": family, **params, "seeds": (0, 1)}
    assert_equivalent_runs([config], differential_executors(pooled=2))


@pytest.mark.parametrize(
    "family,params,case_index",
    [
        pytest.param(*case.values, index, id=f"{case.id}-fuzz")
        for index, case in enumerate(_CASES)
    ],
)
def test_pairing_pins_fuzzed_seeds(family, params, case_index):
    """The same pairings hold on fuzzed seeds, not just seed 0."""
    rng = random.Random(9_000 + case_index)
    seeds = tuple(rng.randrange(10_000) for _ in range(2))
    config = {"family": family, **params, "seeds": seeds}
    assert_equivalent_runs([config], differential_executors())


_ENTRIES = pytest.mark.parametrize(
    "entry", algorithm_entries(), ids=lambda e: f"{e.name}@{e.version}"
)


def _first_config(entry):
    _adversary, configs = next(iter(sorted(entry.obj.conformance.items())))
    return dict(configs[0])


@_ENTRIES
def test_spec_resolution_matches_direct_trial(entry):
    """``spec_for`` round-trips a conformance config onto the family trial.

    The trial fills missing parameters itself, so calling it on the bare
    config gives what the fully resolved spec gives.
    """
    params = _first_config(entry)
    resolved = resolve(spec_for(entry.name, params, version=entry.version))
    trial = family_trial(entry.name, entry.version)
    assert resolved.trial_fn is trial
    direct = trial(seed=3, **resolved.trial_kwargs())
    assert resolved.run(3) == direct
    assert trial(seed=3, **params) == direct


@_ENTRIES
def test_observed_trial_matches_bare_trial(entry):
    """Every family takes ``observe``; observing changes no verdict.

    The observed summary is the bare one plus a ``"metrics"`` key, and
    the observed batched form equals the observed serial calls.
    """
    params = _first_config(entry)
    trial = family_trial(entry.name, entry.version)
    seeds = [0, 1]
    observed = [trial(seed=seed, observe=True, **params) for seed in seeds]
    for seed, summary in zip(seeds, observed):
        assert "metrics" in summary
        bare = {k: v for k, v in summary.items() if k != "metrics"}
        assert bare == trial(seed=seed, **params)
    assert trial.batch_fn(seeds=seeds, observe=True, **params) == observed


@_ENTRIES
def test_family_declares_a_complete_surface(entry):
    """Every family ships conformance configs, a builder and its own
    ``lanes`` hook, which returns a lane family."""
    from repro.sim.batch import kernel_refusal
    from repro.workloads import LaneFamily

    family = entry.obj
    assert family.conformance, (
        f"family {entry.name!r} declares no conformance configurations; "
        "the suite cannot pin it"
    )
    assert type(family).build is not AlgorithmFamily.build, (
        f"family {entry.name!r} does not implement build"
    )
    assert type(family).lanes is not AlgorithmFamily.lanes, (
        f"family {entry.name!r} does not implement lanes"
    )
    resolved = resolve(spec_for(entry.name, _first_config(entry), version=entry.version))
    lanes = family.lanes(**resolved.params)
    assert isinstance(lanes, LaneFamily)
    reason = kernel_refusal(lanes)
    assert reason is None or isinstance(reason, str)


def _trial_modules():
    yield repro.workloads
    for info in pkgutil.iter_modules(repro.families.__path__):
        yield importlib.import_module(f"repro.families.{info.name}")


def test_no_family_module_defines_its_own_trial():
    """One trial contract: families supply ``build``/``lanes`` only.

    No module under :mod:`repro.workloads` or :mod:`repro.families`
    defines a ``run_*_trial`` function or attaches a ``batch_fn``; the
    trial every executor dispatches is
    :func:`repro.scenario.family_trial`.
    """
    found = []
    for module in _trial_modules():
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and re.fullmatch(
                r"run_\w+_trial(_batch)?", node.name
            ):
                found.append(f"{module.__name__}:{node.lineno} defines {node.name}")
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Attribute) and target.attr == "batch_fn"
                for target in node.targets
            ):
                found.append(f"{module.__name__}:{node.lineno} assigns .batch_fn")
    assert not found, (
        "a second trial convention (move it onto the family's build/lanes "
        f"hooks): {'; '.join(found)}"
    )
