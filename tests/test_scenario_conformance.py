"""Auto-enrolling conformance suite over the algorithm registry.

Nothing in this file names a family. The parametrization iterates
``repro.scenario.algorithm_entries()`` and each family's declared
``conformance`` configurations, so registering a new algorithm --
:mod:`repro.families.averaging` is the living example -- enrolls it
here with zero new test code:

* every declared algorithm x adversary pairing runs through the full
  differential executor suite (serial sweep, legacy loop, traced,
  the family's batch lanes, ``workers=4``, and the pooled batched leg)
  pinned to full ``state_key`` equality;
* the same pairings re-run on deterministically fuzzed seeds, so the
  pinning is not an artifact of seed 0;
* spec resolution is checked against the direct trial function --
  same module-level callable, same summary;
* a completeness check fails if a ``run_*_trial`` family exists in
  :mod:`repro.workloads` or :mod:`repro.families` that no registry
  entry claims, so the registry cannot silently drift from the
  workloads.
"""

from __future__ import annotations

import importlib
import pkgutil
import random

import pytest

import repro.families
import repro.workloads
from repro.scenario import algorithm_entries, resolve, spec_for
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


@pytest.mark.parametrize(
    "entry", algorithm_entries(), ids=lambda e: f"{e.name}@{e.version}"
)
def test_spec_resolution_matches_direct_trial(entry):
    """``spec_for`` round-trips a conformance config onto the exact trial."""
    adversary, configs = next(iter(sorted(entry.obj.conformance.items())))
    resolved = resolve(spec_for(entry.name, dict(configs[0]), version=entry.version))
    assert resolved.trial_fn is entry.obj.trial
    direct = entry.obj.trial(seed=3, **resolved.trial_kwargs())
    assert resolved.run(3) == direct


@pytest.mark.parametrize(
    "entry", algorithm_entries(), ids=lambda e: f"{e.name}@{e.version}"
)
def test_family_declares_a_complete_surface(entry):
    """Every family ships conformance configs and a batched trial form."""
    family = entry.obj
    assert family.conformance, (
        f"family {entry.name!r} declares no conformance configurations; "
        "the suite cannot pin it"
    )
    assert callable(family.trial), f"family {entry.name!r} has no trial"
    # Module-level (hence picklable under workers=N) with the batched
    # attachment Sweep's batch knob dispatches to.
    module = importlib.import_module(family.trial.__module__)
    assert getattr(module, family.trial.__name__) is family.trial
    assert callable(getattr(family.trial, "batch_fn", None)), (
        f"trial of family {entry.name!r} carries no batch_fn attachment"
    )


def _trial_modules():
    yield repro.workloads
    for info in pkgutil.iter_modules(repro.families.__path__):
        yield importlib.import_module(f"repro.families.{info.name}")


def test_every_trial_family_is_registered():
    """Completeness: no ``run_*_trial`` exists outside the registry."""
    claimed = {entry.obj.trial for entry in algorithm_entries()}
    missing = []
    for module in _trial_modules():
        for name, obj in sorted(vars(module).items()):
            if (
                name.startswith("run_")
                and name.endswith("_trial")
                and callable(obj)
                and getattr(obj, "__module__", None) == module.__name__
                and obj not in claimed
            ):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, (
        "trial families with no registry entry (register them so the "
        f"conformance suite can pin them): {', '.join(missing)}"
    )
