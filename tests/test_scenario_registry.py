"""Registry mechanics: versioning, validation, and proved openness.

The registry's contract has three parts. *Versioning*: ``(kind, name,
version)`` keys are immutable -- re-registering raises, old versions
stay resolvable, ``version=None`` takes the latest. *Validation*:
declared :class:`ParamSpec`s gate every resolved parameter with
field-named errors. *Openness*: a family registered through nothing
but the public API resolves, runs, and sweeps exactly like the
built-ins -- including spec-driven :class:`repro.bench.sweep.Sweep`
runs and pickled dispatch.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.bench.sweep import Sweep
from repro.scenario import (
    AlgorithmFamily,
    ParamSpec,
    SpecError,
    declare_adversary,
    lookup,
    register_algorithm,
    resolve,
    resolve_trial,
    run_spec_trial,
    spec_for,
    unregister,
)
from repro.scenario.registry import MISSING, validate_params
from repro.workloads import run_dac_trial


# -- a toy family, registered only through the public API ------------------


def run_toysum_trial(seed=0, n=4, scale=1.0, max_rounds=16):
    """Deterministic stand-in trial: no engine, just seeded arithmetic."""
    rng = random.Random(seed)
    total = sum(rng.random() for _ in range(n)) * scale
    return {"terminated": True, "rounds": min(n, max_rounds), "value": total}


@pytest.fixture
def toy_entry():
    @register_algorithm("toysum", version=1, description="test-only family")
    class ToySumFamily(AlgorithmFamily):
        params = (
            ParamSpec("n", "int"),
            ParamSpec("scale", "float", default=1.0),
            ParamSpec("max_rounds", "int", default=16),
        )
        components = {}
        trial = staticmethod(run_toysum_trial)

    try:
        yield lookup("algorithm", "toysum")
    finally:
        unregister("algorithm", "toysum", 1)


# -- versioning ------------------------------------------------------------


def test_duplicate_registration_raises(toy_entry):
    with pytest.raises(ValueError, match="bump the version"):

        @register_algorithm("toysum", version=1)
        class Clone(AlgorithmFamily):
            trial = staticmethod(run_toysum_trial)


def test_versions_coexist_and_latest_wins():
    declare_adversary("toy-adv", version=1, params=(ParamSpec("k", "int"),))
    declare_adversary("toy-adv", version=2)
    try:
        assert lookup("adversary", "toy-adv").version == 2
        assert lookup("adversary", "toy-adv", 1).version == 1
        assert lookup("adversary", "toy-adv", 1).param("k") is not None
        with pytest.raises(SpecError) as err:
            lookup("adversary", "toy-adv", 3)
        assert err.value.field == "adversary"
        assert "1, 2" in str(err.value)
    finally:
        unregister("adversary", "toy-adv", 1)
        unregister("adversary", "toy-adv", 2)


def test_unknown_name_lists_what_is_registered():
    with pytest.raises(SpecError) as err:
        lookup("adversary", "nosuch", field="adversary")
    assert err.value.field == "adversary"
    assert "mobile" in str(err.value) and "quorum" in str(err.value)


def test_duplicate_param_declaration_raises():
    with pytest.raises(ValueError, match="twice"):
        declare_adversary(
            "toy-dup", params=(ParamSpec("k", "int"), ParamSpec("k", "str"))
        )


# -- ParamSpec validation --------------------------------------------------


def test_float_param_accepts_int_and_canonicalizes():
    value = ParamSpec("x", "float").check("a.x", 3)
    assert value == 3.0 and isinstance(value, float)


def test_int_param_rejects_bool():
    with pytest.raises(SpecError) as err:
        ParamSpec("x", "int").check("a.x", True)
    assert err.value.field == "a.x"


def test_choices_are_enforced():
    spec = ParamSpec("x", "str", choices=("a", "b"))
    assert spec.check("a.x", "b") == "b"
    with pytest.raises(SpecError, match="not one of"):
        spec.check("a.x", "c")


def test_nullable_admits_none_nonnullable_rejects():
    assert ParamSpec("x", "int", nullable=True).check("a.x", None) is None
    with pytest.raises(SpecError, match="not nullable"):
        ParamSpec("x", "int").check("a.x", None)


def test_unknown_type_is_a_registration_error():
    with pytest.raises(ValueError, match="unknown parameter type"):
        ParamSpec("x", "complex")


def test_validate_params_fills_defaults_and_names_fields(toy_entry):
    filled = validate_params(toy_entry, {"n": 5}, prefix="algorithm")
    assert filled == {"n": 5, "scale": 1.0, "max_rounds": 16}
    with pytest.raises(SpecError) as err:
        validate_params(toy_entry, {"n": 5, "zap": 1}, prefix="algorithm")
    assert err.value.field == "algorithm.zap"
    with pytest.raises(SpecError) as err:
        validate_params(toy_entry, {}, prefix="algorithm")
    assert err.value.field == "algorithm.n"


def test_validate_params_defaults_override(toy_entry):
    filled = validate_params(
        toy_entry, {"n": 4}, prefix="algorithm", defaults_override={"scale": 2.5}
    )
    assert filled["scale"] == 2.5
    # An explicit value still beats the override.
    filled = validate_params(
        toy_entry,
        {"n": 4, "scale": 3.0},
        prefix="algorithm",
        defaults_override={"scale": 2.5},
    )
    assert filled["scale"] == 3.0


def test_missing_sentinel_is_not_a_value():
    assert ParamSpec("x", "int").required
    assert not ParamSpec("x", "int", default=0).required
    assert ParamSpec("x", "int", default=MISSING).required


# -- openness: the toy family behaves exactly like a built-in --------------


def test_dynamic_family_resolves_and_runs(toy_entry):
    resolved = resolve("algorithm: toysum@1(n=6, scale=2.0); seed: 3; rounds: 4")
    assert resolved.trial_fn is run_toysum_trial
    assert resolved.params == {"n": 6, "scale": 2.0, "max_rounds": 4}
    assert resolved.run() == run_toysum_trial(seed=3, n=6, scale=2.0, max_rounds=4)
    canonical = resolved.canonical_spec()
    assert resolve(canonical.encode()).canonical_spec() == canonical


def test_dynamic_family_rejects_undeclared_sections(toy_entry):
    with pytest.raises(SpecError) as err:
        resolve("algorithm: toysum@1(n=4); network: dynadegree@1")
    assert err.value.field == "network"


def test_spec_for_routes_flat_params(toy_entry):
    spec = spec_for("toysum", {"n": 5, "scale": 0.5}, seed=9)
    assert spec.algorithm.kwargs() == {"n": 5, "scale": 0.5}
    assert spec.seed == 9
    assert resolve(spec).run()["rounds"] == 5


def test_sweep_accepts_spec_for_dynamic_family(toy_entry):
    text = "algorithm: toysum@1(n=4, scale=2.0)"
    sweep = Sweep(grid={"n": [4, 6]}, repeats=2, seed0=5)
    records = sweep.run(text)
    assert [rec.param("n") for rec in records] == [4, 4, 6, 6]
    for rec in records:
        # Cells override the spec key-by-key; untouched spec params ride
        # along into every cell, exactly as documented.
        assert rec.param("scale") == 2.0
        assert rec.result == run_toysum_trial(seed=rec.seed, **dict(rec.params))


# -- spec-driven sweeps match direct-function sweeps -----------------------


def test_sweep_spec_records_match_direct_fn():
    text = "algorithm: dac@1(n=5); rounds: 300"
    fn, base = resolve_trial(text)
    assert fn is run_dac_trial
    spec_sweep = Sweep(grid={"n": [5, 7]}, repeats=2, seed0=11)
    direct_sweep = Sweep(grid={"n": [5, 7]}, repeats=2, seed0=11)
    spec_records = spec_sweep.run(text)
    direct_records = direct_sweep.run(
        run_dac_trial, batch_fn=run_dac_trial.batch_fn
    )
    assert len(spec_records) == len(direct_records) == 4
    for spec_rec in spec_records:
        params = dict(spec_rec.params)
        # Spec-driven cells carry the full resolved parameter set; the
        # result must equal calling the trial with those kwargs directly.
        assert params["max_rounds"] == 300
        assert spec_rec.result == run_dac_trial(seed=spec_rec.seed, **params)


def test_resolve_trial_keeps_batch_attachments():
    fn, base = resolve_trial("algorithm: dac@1(n=5)")
    assert fn.batch_fn is run_dac_trial.batch_fn
    assert base["n"] == 5 and base["f"] == 2


# -- picklability ----------------------------------------------------------


def test_run_spec_trial_is_picklable():
    clone = pickle.loads(pickle.dumps(run_spec_trial))
    text = "algorithm: dac@1(n=5); rounds: 200"
    assert clone(text, 7) == run_spec_trial(text, 7)


def test_resolved_trial_fns_are_picklable():
    fn, base = resolve_trial("algorithm: averaging@1(n=5); rounds: 6")
    clone = pickle.loads(pickle.dumps(fn))
    assert clone(seed=3, **base) == fn(seed=3, **base)


@pytest.mark.parametrize("params", [
    {"n": 7, "num_rounds": 40},
    {"n": 6, "rule": "midpoint", "window": 2, "selector": "nearest", "num_rounds": 30},
])
def test_averaging_fast_trial_matches_fully_checked_run(params):
    # The trial runs untraced, without the promise check or phase
    # series; the fully checked run must reach the same verdicts.
    from repro.families.averaging import build_averaging_execution, run_averaging_trial
    from repro.sim.runner import run_consensus

    for seed in range(6):
        report = run_consensus(**build_averaging_execution(seed=seed, **params))
        assert run_averaging_trial(seed=seed, **params) == {
            "rounds": report.rounds,
            "spread": report.output_spread,
            "terminated": report.terminated,
            "correct": report.correct,
        }
