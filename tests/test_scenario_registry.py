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

import pytest

from repro.bench.sweep import Sweep
from repro.scenario import (
    AlgorithmFamily,
    ParamSpec,
    SpecError,
    declare_adversary,
    lookup,
    register_algorithm,
    family_trial,
    resolve,
    spec_for,
    unregister,
)
from repro.scenario.registry import MISSING, Constraint, validate_params
from repro.scenario.resolve import algorithm_entries, flat_params
from repro.sim.runner import run_consensus
from repro.workloads import MAX_N, MAX_ROUNDS, MAX_WINDOW, build_dac_execution


# -- a toy family, registered only through the public API ------------------


def toy_execution(seed, n, scale, max_rounds):
    """Fault-free DAC on ``n`` nodes, epsilon scaled from 1e-2."""
    return build_dac_execution(
        n=n, f=0, epsilon=1e-2 * scale, seed=seed, max_rounds=max_rounds
    )


def toy_summary(seed, **params):
    """What the toy family's trial must return: one untraced run, reduced."""
    report = run_consensus(**toy_execution(seed, **params), record_trace=False)
    return {
        "rounds": report.rounds,
        "spread": report.output_spread,
        "terminated": report.terminated,
        "correct": report.correct,
    }


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

        def build(self, *, seed, **params):
            return toy_execution(seed, **params)

    try:
        yield lookup("algorithm", "toysum")
    finally:
        unregister("algorithm", "toysum", 1)


# -- versioning ------------------------------------------------------------


def test_duplicate_registration_raises(toy_entry):
    with pytest.raises(ValueError, match="bump the version"):

        @register_algorithm("toysum", version=1)
        class Clone(AlgorithmFamily):
            params = (ParamSpec("n", "int"),)


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
    filled = validate_params(toy_entry, {"n": 5})
    assert filled == {"n": 5, "scale": 1.0, "max_rounds": 16}
    with pytest.raises(SpecError) as err:
        validate_params(toy_entry, {"n": 5, "zap": 1})
    assert err.value.field == "algorithm.zap"
    with pytest.raises(SpecError) as err:
        validate_params(toy_entry, {})
    assert err.value.field == "algorithm.n"
    with pytest.raises(SpecError) as err:
        validate_params(toy_entry, {"n": 5, "scale": "big"})
    assert err.value.field == "algorithm.scale"


def test_validate_params_defaults_override():
    dbac = lookup("algorithm", "dbac")
    # dbac's component_param_defaults shift the network selector.
    assert validate_params(dbac, {"n": 6})["selector"] == "nearest"
    # An explicit value still beats the override.
    assert validate_params(dbac, {"n": 6, "selector": "rotate"})["selector"] == "rotate"


def test_validate_params_names_the_section_of_a_flat_parameter():
    dac = lookup("algorithm", "dac")
    with pytest.raises(SpecError) as err:
        validate_params(dac, {"n": 5, "window": 0})
    assert err.value.field == "network.window"
    with pytest.raises(SpecError) as err:
        validate_params(dac, {"n": 5, "crash_start": -1})
    assert err.value.field == "faults.crash_start"


def test_constraints_name_their_field(toy_entry, monkeypatch):
    need = Constraint("algorithm.scale", lambda p: p["scale"] < p["n"], "need scale < n={n}")
    monkeypatch.setattr(toy_entry.obj, "constraints", (need,), raising=False)
    assert validate_params(toy_entry, {"n": 5, "scale": 4.5})["scale"] == 4.5
    with pytest.raises(SpecError, match=r"algorithm\.scale: need scale < n=5") as err:
        validate_params(toy_entry, {"n": 5, "scale": 5})
    assert err.value.field == "algorithm.scale"


def test_bounds_are_inclusive_and_name_the_field():
    spec = ParamSpec("x", "int", low=1, high=4)
    assert spec.check("a.x", 1) == 1 and spec.check("a.x", 4) == 4
    for value in (0, 5):
        with pytest.raises(SpecError, match=r"outside \[1, 4\]") as err:
            spec.check("a.x", value)
        assert err.value.field == "a.x"
    with pytest.raises(SpecError, match=r"outside \[-inf, 2\]"):
        ParamSpec("x", "int", high=2).check("a.x", 3)
    assert ParamSpec("x", "int", nullable=True, low=0, high=2).check("a.x", None) is None


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_float_params_must_be_finite(value):
    with pytest.raises(SpecError, match="expected a finite float") as err:
        ParamSpec("x", "float").check("a.x", value)
    assert err.value.field == "a.x"


# -- declared ceilings: resolve builds nothing, so these fail safely ----------

_SIZE_PARAMS = ("n", "f", "max_rounds", "num_rounds", "window", "crash_nodes", "crash_start")
_HUGE = 10**30


def test_every_size_bearing_parameter_declares_its_bounds():
    for entry in algorithm_entries():
        for name, (_section, spec) in flat_params(entry).items():
            if name in _SIZE_PARAMS:
                assert spec.low is not None and spec.high is not None, (entry.name, name)


@pytest.mark.parametrize(
    "text, field",
    [
        (f"algorithm: dac@1(n={_HUGE})", "algorithm.n"),
        (f"algorithm: dbac@1(n=11, f={_HUGE})", "algorithm.f"),
        (f"algorithm: byz@1(n={MAX_N + 1})", "algorithm.n"),
        (f"algorithm: dac@1(n=5, max_rounds={MAX_ROUNDS + 1})", "algorithm.max_rounds"),
        (f"algorithm: dac@1(n=5); rounds: {MAX_ROUNDS + 1}", "rounds"),
        (f"algorithm: averaging@1(n=5); rounds: {_HUGE}", "rounds"),
        (f"algorithm: baseline@1(n=5, num_rounds={MAX_ROUNDS + 1})", "algorithm.num_rounds"),
        (f"algorithm: dac@1(n=5); network: dynadegree@1(window={MAX_WINDOW + 1})",
         "network.window"),
        ("algorithm: dac@1(n=5); network: dynadegree@1(window=0)", "network.window"),
        (f"algorithm: dac@1(n=5); faults: crash@1(crash_nodes={_HUGE})", "faults.crash_nodes"),
        ("algorithm: dac@1(n=5); faults: crash@1(crash_start=-1)", "faults.crash_start"),
        ("algorithm: averaging@1(n=0)", "algorithm.n"),
    ],
)
def test_resolve_rejects_values_past_their_bounds(text, field):
    with pytest.raises(SpecError) as err:
        resolve(text)
    assert err.value.field == field


def test_values_at_the_ceilings_resolve():
    resolved = resolve(
        f"algorithm: dac@1(n={MAX_N}, f=0); network: dynadegree@1(window={MAX_WINDOW}); "
        f"faults: crash@1(crash_nodes=0, crash_start={MAX_ROUNDS}); rounds: {MAX_ROUNDS}"
    )
    assert resolved.params["n"] == MAX_N
    assert resolved.params["max_rounds"] == MAX_ROUNDS


def test_missing_sentinel_is_not_a_value():
    assert ParamSpec("x", "int").required
    assert not ParamSpec("x", "int", default=0).required
    assert ParamSpec("x", "int", default=MISSING).required


# -- openness: the toy family behaves exactly like a built-in --------------


def test_dynamic_family_resolves_and_runs(toy_entry):
    resolved = resolve("algorithm: toysum@1(n=6, scale=2.0); seed: 3; rounds: 4")
    assert resolved.trial_fn is family_trial("toysum")
    assert resolved.params == {"n": 6, "scale": 2.0, "max_rounds": 4}
    assert resolved.run() == toy_summary(3, n=6, scale=2.0, max_rounds=4)
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
    assert resolve(spec).run() == toy_summary(9, n=5, scale=0.5, max_rounds=16)


def test_sweep_accepts_spec_for_dynamic_family(toy_entry):
    text = "algorithm: toysum@1(n=4, scale=2.0)"
    sweep = Sweep(grid={"n": [4, 6]}, repeats=2, seed0=5)
    records = sweep.run(text)
    assert [rec.param("n") for rec in records] == [4, 4, 6, 6]
    for rec in records:
        # Cells override the spec key-by-key; untouched spec params ride
        # along into every cell, exactly as documented.
        assert rec.param("scale") == 2.0
        assert rec.result == toy_summary(rec.seed, **dict(rec.params))


# -- spec-driven sweeps match direct-function sweeps -----------------------


def test_sweep_spec_records_match_direct_fn():
    text = "algorithm: dac@1(n=5); rounds: 300"
    fn = resolve(text).trial_fn
    assert fn is family_trial("dac")
    spec_sweep = Sweep(grid={"n": [5, 7]}, repeats=2, seed0=11)
    direct_sweep = Sweep(grid={"n": [5, 7]}, repeats=2, seed0=11)
    spec_records = spec_sweep.run(text)
    direct_records = direct_sweep.run(fn, batch_fn=fn.batch_fn)
    assert len(spec_records) == len(direct_records) == 4
    for spec_rec in spec_records:
        params = dict(spec_rec.params)
        # Spec-driven cells carry the full resolved parameter set; the
        # result must equal calling the trial with those kwargs directly.
        assert params["max_rounds"] == 300
        assert spec_rec.result == fn(seed=spec_rec.seed, **params)


def test_resolved_scenario_keeps_the_batched_form():
    resolved = resolve("algorithm: dac@1(n=5)")
    assert resolved.batch_fn == family_trial("dac").batch_fn
    base = resolved.trial_kwargs()
    assert base["n"] == 5 and base["f"] == 2


def test_sweep_cells_derive_omitted_parameters_per_cell():
    # f is left to the family, so each cell derives it from its own n;
    # an explicit f rides into every cell as given.
    derived = Sweep(grid={"n": [11, 16]}).run("algorithm: dbac@1(n=11)")
    assert [(r.param("n"), r.param("f")) for r in derived] == [(11, 2), (16, 3)]
    explicit = Sweep(grid={"n": [11, 16]}).run("algorithm: dbac@1(n=11, f=2)")
    assert [(r.param("n"), r.param("f")) for r in explicit] == [(11, 2), (16, 2)]


def test_out_of_domain_sweep_cell_raises_before_dispatch(monkeypatch):
    import repro.bench.sweep as sweep_module

    def no_dispatch(*args, **kwargs):
        raise AssertionError("a trial was dispatched")

    monkeypatch.setattr(sweep_module, "run_trials", no_dispatch)
    for text, grid, field in [
        ("algorithm: dac@1(n=5)", {"n": [5, 300]}, "algorithm.n"),
        ("algorithm: dbac@1(n=11, f=2)", {"n": [11, 6]}, "algorithm.f"),
        ("algorithm: dac@1(n=5)", {"n": [5], "window": [1, 0]}, "network.window"),
        ("algorithm: dac@1(n=5)", {"n": [5], "zap": [1]}, "algorithm.zap"),
    ]:
        with pytest.raises(SpecError) as err:
            Sweep(grid=grid).run(text)
        assert err.value.field == field, text


# -- picklability ----------------------------------------------------------


def test_family_trials_pickle_by_reference(toy_entry):
    for name in ("dac", "toysum"):
        trial = family_trial(name)
        assert pickle.loads(pickle.dumps(trial)) is trial
        assert pickle.loads(pickle.dumps(trial.batch_fn)) == trial.batch_fn


def test_resolved_trial_fns_are_picklable():
    resolved = resolve("algorithm: averaging@1(n=5); rounds: 6")
    fn, base = resolved.trial_fn, resolved.trial_kwargs()
    clone = pickle.loads(pickle.dumps(fn))
    assert clone(seed=3, **base) == fn(seed=3, **base)


@pytest.mark.parametrize("params", [
    {"n": 7, "num_rounds": 40},
    {"n": 6, "rule": "midpoint", "window": 2, "selector": "nearest", "num_rounds": 30},
])
def test_averaging_fast_trial_matches_fully_checked_run(params):
    # The trial runs untraced, without the promise check or phase
    # series; the fully checked run must reach the same verdicts.
    from repro.families.averaging import build_averaging_execution

    trial = family_trial("averaging")
    for seed in range(6):
        report = run_consensus(**build_averaging_execution(seed=seed, **params))
        assert trial(seed=seed, **params) == {
            "rounds": report.rounds,
            "spread": report.output_spread,
            "terminated": report.terminated,
            "correct": report.correct,
        }
