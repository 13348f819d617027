"""The guarantee checker: the paper's promises read off one report.

Pins each check of :func:`repro.analysis.guarantees.check_guarantees`
on hand-altered copies of a real report, the float slack on the
contraction bound, which families declare guarantees, and that the
differential harness and the experiments fail runs that break them.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

import repro.bench.experiments
import repro.workloads
import tests.helpers
from repro.analysis.guarantees import (
    RATE_SLACK_ULPS,
    Guarantees,
    check_guarantees,
    shows_necessity_horn,
)
from repro.bench.registry import run_experiment
from repro.core.phases import dac_convergence_rate, dbac_convergence_rate
from repro.scenario import algorithm_entries, resolve
from repro.sim.runner import run_consensus
from tests.helpers import (
    _config_params,
    assert_equivalent_runs,
    family_entry,
    normalize_config,
    serial_executor,
)

DAC = {"family": "dac", "n": 7, "window": 1, "selector": "rotate", "seeds": (1,)}


def _report_and_guarantees(config=DAC, seed=1):
    config = normalize_config(config)
    family = family_entry(config["family"]).obj
    params = _config_params(config)
    return run_consensus(**family.build(seed=seed, **params)), family.guarantees(**params)


def test_a_boundary_dac_run_keeps_every_guarantee():
    report, guarantees = _report_and_guarantees()
    assert guarantees == Guarantees(rate=0.5, window=1, end_phase=10)
    assert report.terminated and report.dynadegree_verified is True
    assert check_guarantees(report, guarantees) == ([], [])


@pytest.mark.parametrize(
    "change,expected",
    [
        ({"validity": False}, "validity:"),
        ({"epsilon_agreement": False}, "agreement:"),
        ({"rounds": 11}, "rounds: terminated after 11 rounds, bound 10"),
        ({"terminated": False}, "rounds: still running after 10 rounds, bound 10"),
        ({"phase_ranges": [1.0, 0.75]}, "rate: phase 0 -> 1 contracted by 0.75, bound 0.5"),
        ({"phase_ranges": [1.0, 0.0, 1e-9]}, "rate: phase 1 -> 2 contracted by inf, bound 0.5"),
        ({"dynadegree_verified": False}, "dynadegree: the trace breaks the promised (1, 3)"),
    ],
)
def test_each_broken_guarantee_is_named(change, expected):
    report, guarantees = _report_and_guarantees()
    violations, missing = check_guarantees(dataclasses.replace(report, **change), guarantees)
    assert len(violations) == 1 and violations[0].startswith(expected) and missing == []


@pytest.mark.parametrize(
    "change,expected",
    [
        (
            {"rounds": 9, "terminated": False, "outputs": {}},
            "termination: still running after 9 rounds",
        ),
        ({"phase_ranges": []}, "rate: no phase contraction was recorded"),
        ({"dynadegree_verified": None}, "dynadegree: the trace was not re-checked"),
    ],
)
def test_each_kind_of_missing_evidence_is_named(change, expected):
    report, guarantees = _report_and_guarantees()
    assert check_guarantees(dataclasses.replace(report, **change), guarantees) == ([], [expected])


def test_runs_capped_below_the_bound_are_no_evidence():
    report, guarantees = _report_and_guarantees()
    capped = dataclasses.replace(report, rounds=9, terminated=False, outputs={})
    missing = ["termination: still running after 9 rounds"]
    assert check_guarantees(capped, guarantees) == ([], missing)
    # An oracle run's values are not outputs until it stops.
    unfinished = dataclasses.replace(capped, stop_mode="oracle", epsilon_agreement=False)
    assert check_guarantees(unfinished, guarantees) == ([], missing)


@pytest.mark.parametrize(
    "eager,terminated,agreement,shown",
    [
        (True, True, False, True),
        (True, False, False, False),
        (True, True, True, False),
        (False, False, True, True),
        (False, True, False, False),
    ],
)
def test_necessity_horns(eager, terminated, agreement, shown):
    # Theorems 9/10: the eager run decides apart, the plain run never decides.
    report, _ = _report_and_guarantees()
    run = dataclasses.replace(report, terminated=terminated, epsilon_agreement=agreement)
    assert shows_necessity_horn(run, eager=eager) is shown


def test_rate_slack_is_a_few_ulps_of_the_inputs():
    report, guarantees = _report_and_guarantees()
    slack = RATE_SLACK_ULPS * math.ulp(max(map(abs, report.inputs.values())))
    inside = dataclasses.replace(report, phase_ranges=[1e-3, 0.5e-3 + slack])
    outside = dataclasses.replace(report, phase_ranges=[1e-3, 0.5e-3 + 2 * slack])
    assert check_guarantees(inside, guarantees) == ([], [])
    assert check_guarantees(outside, guarantees)[0][0].startswith("rate: phase 0 -> 1")
    # The measured rate itself may exceed 1/2 by far more than an ulp.
    assert (0.5e-3 + slack) / 1e-3 - 0.5 > 100 * math.ulp(0.5)


def test_families_declare_the_papers_rates():
    declared = {}
    for entry in algorithm_entries():
        for params in next(iter(entry.obj.conformance.values())):
            config = normalize_config({"family": entry.name, **params})
            declared[entry.name] = entry.obj.guarantees(**_config_params(config))
    assert declared["dac"].rate == dac_convergence_rate()
    assert declared["byz"].rate == dac_convergence_rate()
    assert declared["dbac"].rate == dbac_convergence_rate(6)
    assert declared["baseline"] is None and declared["averaging"] is None


def test_byz_declares_nothing_where_mobile_omission_starves_dac():
    # At n = 2 one lost in-link per round leaves (1, 0)-dynaDegree, and
    # block_min keeps DAC running however many rounds it is given.
    starved = resolve(
        'algorithm: byz@1(n=2, max_rounds=300); adversary: mobile@1(mode="block_min")'
    )
    assert not run_consensus(**starved.build_execution()).terminated
    assert starved.family.guarantees(**starved.params) is None
    for n in (1, 3):
        resolved = resolve(f"algorithm: byz@1(n={n})")
        assert resolved.family.guarantees(**resolved.params) is not None


def _tighten_dac(monkeypatch, tighten):
    declared = repro.workloads.DacFamily.guarantees
    monkeypatch.setattr(
        repro.workloads.DacFamily, "guarantees", lambda self, **p: tighten(declared(self, **p))
    )


def _failures(table):
    return [note for note in table.notes if note.startswith("FAILED: ")]


@pytest.mark.parametrize("experiment_id", ["E2", "X4"])
def test_experiments_judge_the_declared_rate(monkeypatch, experiment_id):
    _tighten_dac(monkeypatch, lambda declared: dataclasses.replace(declared, rate=0.45))
    table = run_experiment(experiment_id)
    assert not table.passed
    assert all(": rate: phase " in note for note in _failures(table))


def test_e3_judges_the_declared_round_bound(monkeypatch):
    _tighten_dac(
        monkeypatch,
        lambda declared: dataclasses.replace(declared, end_phase=declared.end_phase - 1),
    )
    table = run_experiment("E3")
    # One violation per cell, each failing the table once.
    failures = _failures(table)
    assert not table.passed and len(failures) == len(table.rows)
    assert all(": rounds: terminated after " in note for note in failures)


def _run_experiment_with(monkeypatch, experiment_id, **override):
    """Run ``experiment_id`` with every ``run_consensus`` call given ``override``."""
    module = repro.bench.experiments
    real = module.run_consensus
    monkeypatch.setattr(
        module, "run_consensus", lambda *args, **kwargs: real(*args, **{**kwargs, **override})
    )
    return run_experiment(experiment_id)


def test_e4_fails_runs_that_never_terminate(monkeypatch):
    # Capped far below T * p_end, the checker sees no evidence either
    # way; the experiment still demands termination.
    table = _run_experiment_with(monkeypatch, "E4", max_rounds=5)
    assert not table.passed
    assert "FAILED: n=6 extreme T=1: termination: still running after 5 rounds" in table.notes


@pytest.mark.parametrize("experiment_id", ["E2", "X4"])
def test_experiments_fail_runs_with_no_phase_series(monkeypatch, experiment_id):
    # With no phase series the rate check holds vacuously.
    table = _run_experiment_with(monkeypatch, experiment_id, track_phases=False)
    assert not table.passed
    assert all(": rate: no phase contraction was recorded" in note for note in _failures(table))


@pytest.mark.parametrize("experiment_id", ["E1", "E4"])
def test_experiments_fail_runs_whose_trace_went_unchecked(monkeypatch, experiment_id):
    table = _run_experiment_with(monkeypatch, experiment_id, verify_promise=False)
    failures = _failures(table)
    assert not table.passed and len(failures) == len(table.rows)
    assert all(": dynadegree: the trace was not re-checked" in note for note in failures)


def test_the_harness_fails_a_reference_that_breaks_a_guarantee(monkeypatch):
    tight = Guarantees(rate=0.1, window=1, end_phase=10)
    monkeypatch.setattr(repro.workloads.DacFamily, "guarantees", lambda self, **p: tight)
    with pytest.raises(AssertionError, match="guarantees fail on seed 1"):
        assert_equivalent_runs([DAC], {"serial": serial_executor()})


@pytest.mark.parametrize(
    "override,expected",
    [
        ({"track_phases": False}, "rate: no phase contraction was recorded"),
        ({"verify_promise": False}, "dynadegree: the trace was not re-checked"),
    ],
)
def test_the_harness_fails_a_run_that_lacks_evidence(monkeypatch, override, expected):
    real = tests.helpers.run_consensus
    monkeypatch.setattr(
        tests.helpers, "run_consensus", lambda **kwargs: real(**{**kwargs, **override})
    )
    with pytest.raises(AssertionError, match=expected):
        assert_equivalent_runs([DAC], {"serial": serial_executor()})


DBAC = {"family": "dbac", "n": 11, "window": 2, "selector": "rotate", "seeds": (3,)}


def test_the_harness_cap_is_a_termination_bound(monkeypatch):
    # A cap of 3 rounds stops this lane early. Set by the config, it is
    # no evidence; as the family's harness default it is a violation,
    # although T * p_end lies far beyond it.
    assert_equivalent_runs([{**DBAC, "max_rounds": 3}], {"serial": serial_executor()})
    monkeypatch.setattr(repro.workloads.DbacFamily, "harness_defaults", {"max_rounds": 3})
    with pytest.raises(AssertionError, match="termination: still running after 3 rounds"):
        assert_equivalent_runs([DBAC], {"serial": serial_executor()})
