"""The declared domain of every family equals the domain its builder accepts.

A family states where its builder refuses as data: ``ParamSpec``
bounds plus ``constraints`` (the paper's preconditions, such as DAC's
``n >= 2f+1``), held by :func:`repro.scenario.registry.validate_params`.
Over a small grid of every registered family, :func:`resolve` must
raise :class:`SpecError` exactly when the family's build raises
``ValueError`` -- so no spec resolves and then fails to build, and no
buildable spec is refused.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.scenario import SpecError, resolve, spec_for
from repro.scenario.resolve import algorithm_entries, flat_params

_FAMILIES = [entry.name for entry in algorithm_entries()]


def _grid(space):
    """Flat parameter dicts: n 1-9, f 0..n+1, crash_nodes 0..n, both
    baseline algorithms and epsilon in {0, 1e-3}, where the family takes them."""
    for n in range(1, 10):
        axes = {
            "f": range(n + 2),
            "crash_nodes": range(n + 1),
            "algorithm": ("midpoint", "trimmed"),
            "epsilon": (0.0, 1e-3),
        }
        names = [name for name in axes if name in space]
        for values in itertools.product(*(axes[name] for name in names)):
            yield {"n": n, **dict(zip(names, values))}


@pytest.mark.parametrize("name", _FAMILIES)
def test_resolve_refuses_exactly_what_the_builder_refuses(name, monkeypatch):
    entry = next(entry for entry in algorithm_entries() if entry.name == name)
    family = entry.obj
    checked = refused = 0
    for params in _grid(flat_params(entry)):
        spec = spec_for(name, params)
        try:
            resolve(spec)
            declared_ok = True
        except SpecError:
            declared_ok = False
        # The same spec with the constraints lifted: does the builder take it?
        monkeypatch.setattr(family, "constraints", (), raising=False)
        try:
            resolve(spec).build_execution(0)
            builds = True
        except ValueError:
            builds = False
        finally:
            monkeypatch.undo()
        assert declared_ok == builds, (name, params)
        checked += 1
        refused += not builds
    assert checked and refused, (name, checked, refused)


@pytest.mark.parametrize(
    "text, field",
    [
        ("algorithm: dac@1(n=5, epsilon=nan)", "algorithm.epsilon"),
        ("algorithm: dac@1(n=5, epsilon=inf)", "algorithm.epsilon"),
        ("algorithm: dbac@1(n=6, epsilon=-inf)", "algorithm.epsilon"),
        ("algorithm: byz@1(n=5, epsilon=0)", "algorithm.epsilon"),
        ("algorithm: averaging@1(n=5, epsilon=-0.5)", "algorithm.epsilon"),
        ("algorithm: dac@1(n=4, f=2)", "algorithm.f"),
        ("algorithm: dac@1(n=1)", "algorithm.n"),
        ("algorithm: dac@1(n=7, f=1); faults: crash@1(crash_nodes=2)", "faults.crash_nodes"),
        ("algorithm: dbac@1(n=10, f=2)", "algorithm.f"),
        ("algorithm: baseline@1(n=5, f=5)", "algorithm.f"),
        ("algorithm: averaging@1(n=1)", "algorithm.n"),
    ],
)
def test_resolve_refuses_non_finite_and_infeasible_specs(text, field):
    with pytest.raises(SpecError) as err:
        resolve(text)
    assert err.value.field == field


def test_json_specs_with_non_finite_floats_are_refused():
    for value in ("NaN", "Infinity", "-Infinity"):
        text = (
            '{"algorithm": {"name": "dac", "params": {"n": 5, "epsilon": %s}}}' % value
        )
        assert json.loads(text)  # the stdlib parser takes these literals
        with pytest.raises(SpecError) as err:
            resolve(text)
        assert err.value.field == "algorithm.epsilon"


def test_feasible_boundaries_resolve():
    assert resolve("algorithm: dac@1(n=5, f=2)").params["f"] == 2
    assert resolve("algorithm: dbac@1(n=6, f=1)").params["f"] == 1
    assert resolve("algorithm: dac@1(n=2)").params["f"] == 0
    resolved = resolve("algorithm: dac@1(n=5, f=2); faults: crash@1(crash_nodes=2)")
    assert resolved.params["crash_nodes"] == 2


def test_trials_refuse_what_resolve_refuses():
    from repro.scenario import family_trial

    with pytest.raises(SpecError) as err:
        family_trial("dac")(n=4, f=2)
    assert err.value.field == "algorithm.f"
    with pytest.raises(SpecError) as err:
        family_trial("dbac").batch_fn(n=6, epsilon=float("nan"), seeds=[0, 1])
    assert err.value.field == "algorithm.epsilon"
