"""Unit tests for the ready-made execution builders."""

import pytest

from repro.sim.runner import run_consensus
from repro.workloads import (
    build_dac_execution,
    build_dbac_execution,
    dac_degree,
    dbac_degree,
    theorem9_part2_execution,
    theorem9_split_execution,
    theorem10_split_execution,
)


class TestDegreeThresholds:
    def test_dac_degree(self):
        assert dac_degree(9) == 4
        assert dac_degree(10) == 5

    def test_dbac_degree(self):
        assert dbac_degree(6, 1) == 4
        assert dbac_degree(11, 2) == 8
        assert dbac_degree(16, 3) == 12


class TestBuildDac:
    def test_resilience_bound_enforced(self):
        with pytest.raises(ValueError, match="2f"):
            build_dac_execution(n=8, f=4)

    def test_crash_budget_enforced(self):
        with pytest.raises(ValueError, match="fault bound"):
            build_dac_execution(n=9, f=2, crash_nodes=3)

    def test_default_crashes_f_nodes(self):
        ex = build_dac_execution(n=9, f=4)
        assert len(ex["fault_plan"].crashes) == 4
        assert set(ex["fault_plan"].crashes) == {5, 6, 7, 8}

    def test_processes_cover_all_nodes(self):
        ex = build_dac_execution(n=7, f=3)
        assert set(ex["processes"]) == set(range(7))

    def test_window_selects_adversary(self):
        ex1 = build_dac_execution(n=5, f=0, window=1)
        ex3 = build_dac_execution(n=5, f=0, window=3)
        assert ex1["adversary"].promised_dynadegree() == (1, 2)
        assert ex3["adversary"].promised_dynadegree() == (3, 2)

    def test_runs_correctly(self):
        report = run_consensus(**build_dac_execution(n=7, f=3, epsilon=1e-2, seed=1))
        assert report.correct
        assert report.dynadegree_verified


class TestBuildDbac:
    def test_resilience_bound_enforced(self):
        with pytest.raises(ValueError, match="5f"):
            build_dbac_execution(n=10, f=2)

    def test_byzantine_assignment(self):
        ex = build_dbac_execution(n=11, f=2)
        assert set(ex["fault_plan"].byzantine) == {9, 10}
        assert set(ex["processes"]) == set(range(9))

    def test_custom_byzantine_factory(self):
        from repro.faults.byzantine import FixedValueByzantine

        ex = build_dbac_execution(
            n=6, f=1, byzantine_factory=lambda node: FixedValueByzantine(0.0)
        )
        assert isinstance(ex["fault_plan"].byzantine[5], FixedValueByzantine)

    def test_runs_correctly_oracle(self):
        report = run_consensus(**build_dbac_execution(n=6, f=1, epsilon=5e-2, seed=3))
        assert report.terminated
        assert report.validity
        assert report.epsilon_agreement


class TestTheoremScenarios:
    def test_theorem9_eager_disagrees(self):
        report = run_consensus(**theorem9_split_execution(n=8, seed=0))
        assert report.terminated
        assert not report.epsilon_agreement
        outputs = set(report.outputs.values())
        assert 0.0 in outputs and 1.0 in outputs

    def test_theorem9_plain_dac_stalls(self):
        report = run_consensus(
            **theorem9_split_execution(n=8, seed=0, eager_quorum=False, max_rounds=150)
        )
        assert not report.terminated
        assert report.outputs == {}

    def test_theorem9_needs_reasonable_n(self):
        with pytest.raises(ValueError, match="n >= 4"):
            theorem9_split_execution(n=3)

    def test_theorem9_part2_disagrees_despite_stability(self):
        report = run_consensus(**theorem9_part2_execution(n=8, seed=1))
        assert report.terminated
        assert not report.epsilon_agreement

    def test_theorem9_part2_needs_even_n(self):
        with pytest.raises(ValueError, match="even"):
            theorem9_part2_execution(n=7)

    def test_theorem10_eager_disagrees(self):
        report = run_consensus(**theorem10_split_execution(f=1, seed=2))
        assert report.terminated
        assert not report.epsilon_agreement
        # Exclusive listeners land on opposite sides.
        assert report.outputs[0] < 0.1
        assert report.outputs[5] > 0.9

    def test_theorem10_plain_dbac_stalls(self):
        report = run_consensus(
            **theorem10_split_execution(f=1, seed=2, eager_quorum=False, max_rounds=150)
        )
        assert not report.terminated

    def test_theorem10_trace_is_one_short_of_required(self):
        ex = theorem10_split_execution(f=1, seed=2)
        promise = ex["adversary"].promised_dynadegree()
        assert promise == (1, dbac_degree(6, 1) - 1)

    def test_theorem10_needs_faults(self):
        with pytest.raises(ValueError, match="f >= 1"):
            theorem10_split_execution(f=0)


class TestFamilyTrials:
    """The registered families' trials for parallel comparative grids."""

    def test_dbac_trial_summary_and_boundary_default(self):
        from repro.scenario import family_trial

        summary = family_trial("dbac")(n=6, seed=3)  # f defaults to (6-1)//5 = 1
        assert set(summary) == {"rounds", "spread", "terminated", "correct"}
        assert summary["terminated"]
        assert summary["correct"]

    def test_baseline_trial_midpoint_and_trimmed(self):
        from repro.scenario import family_trial

        baseline = family_trial("baseline")
        midpoint = baseline(n=9, seed=1)
        assert midpoint["terminated"]
        trimmed = baseline(n=9, algorithm="trimmed", f=1, seed=1)
        assert trimmed["terminated"]
        with pytest.raises(ValueError, match="algorithm"):
            baseline(n=9, algorithm="gossip")

    def test_trials_fan_out_over_worker_processes(self):
        # The ROADMAP contract: DBAC and baseline grids must run through
        # Sweep.run(workers=N) -- i.e. the trials pickle and the
        # parallel records equal the serial records.
        from repro.bench.sweep import Sweep
        from repro.scenario import family_trial

        for name, grid in (
            ("dbac", {"n": [6, 11]}),
            ("baseline", {"n": [9], "algorithm": ["midpoint", "trimmed"]}),
        ):
            serial = Sweep(grid=grid, repeats=2)
            parallel = Sweep(grid=grid, repeats=2)
            serial.run(family_trial(name), workers=1)
            parallel.run(family_trial(name), workers=2)
            assert serial.records == parallel.records

    def test_baseline_breaks_where_dac_survives(self):
        # The comparative point of the grids: once the window-T
        # adversary withholds deliveries (message loss), the reliable-
        # channel baseline loses epsilon-agreement -- it burns its
        # round budget on silent rounds -- while DAC stays correct
        # under the identical adversary and input stream.
        from repro.scenario import family_trial

        dac = family_trial("dac")(n=9, f=0, epsilon=1e-3, window=3, seed=0)
        baseline = family_trial("baseline")(n=9, epsilon=1e-3, window=3, seed=0)
        assert dac["correct"]
        assert baseline["terminated"] and not baseline["correct"]


class TestLaneFamily:
    """Builders are a seed-independent family plus per-seed material."""

    def test_family_carries_the_process_constants(self):
        from repro.workloads import (
            baseline_lane_family,
            build_baseline_execution,
            build_mobile_execution,
            dac_lane_family,
            dbac_lane_family,
            mobile_lane_family,
        )

        cases = (
            (dac_lane_family(9, 4, window=2), build_dac_execution(n=9, f=4, window=2)),
            (dbac_lane_family(11, 2, end_phase=7), build_dbac_execution(n=11, f=2, end_phase=7)),
            (mobile_lane_family(6, mode="rotate"), build_mobile_execution(n=6, mode="rotate")),
            (
                baseline_lane_family(6, algorithm="trimmed", f=1, num_rounds=5),
                build_baseline_execution(6, algorithm="trimmed", f=1, num_rounds=5),
            ),
        )
        for family, execution in cases:
            process = next(iter(execution["processes"].values()))
            for name in ("quorum", "end_phase", "trim", "num_rounds"):
                assert getattr(family, name) == getattr(process, name, None), name
            assert family.max_rounds == execution["max_rounds"]
            plan = execution["fault_plan"]
            assert family.fault_free == tuple(sorted(plan.fault_free))
            assert family.byzantine == tuple(sorted(plan.byzantine))
            assert family.crashes == plan.crashes
            assert family.degree == getattr(execution["adversary"], "degree", 0)

    def test_family_rejects_what_the_builder_rejects(self):
        from repro.workloads import baseline_lane_family, dac_lane_family, dbac_lane_family

        with pytest.raises(ValueError, match="2f"):
            dac_lane_family(8, 4)
        with pytest.raises(ValueError, match="selector"):
            dac_lane_family(9, 4, selector="bogus")
        with pytest.raises(ValueError, match="window"):
            dac_lane_family(9, 4, window=0)
        with pytest.raises(ValueError, match="5f"):
            dbac_lane_family(10, 2)
        with pytest.raises(ValueError, match="non-negative"):
            baseline_lane_family(6, num_rounds=-1)
        with pytest.raises(ValueError, match="degree"):
            baseline_lane_family(1)

    def test_one_family_serves_many_seeds(self):
        # The adversary and the Byzantine strategies carry per-run state:
        # every execution built from a shared family gets fresh ones, so
        # reusing a family is the same as calling the builder per seed.
        from repro.faults.byzantine import RandomByzantine
        from repro.workloads import dbac_lane_family, lane_execution

        family = dbac_lane_family(
            11, 2, byzantine_factory=lambda node: RandomByzantine(), max_rounds=200
        )
        first, second = lane_execution(family, 1), lane_execution(family, 2)
        assert first["adversary"] is not second["adversary"]
        assert not set(map(id, first["fault_plan"].byzantine.values())) & set(
            map(id, second["fault_plan"].byzantine.values())
        )
        for seed, shared in ((1, first), (2, second), (1, lane_execution(family, 1))):
            fresh = build_dbac_execution(
                n=11,
                f=2,
                seed=seed,
                byzantine_factory=lambda node: RandomByzantine(),
                max_rounds=200,
            )
            a, b = run_consensus(**shared), run_consensus(**fresh)
            assert (a.rounds, a.outputs, a.phase_ranges) == (b.rounds, b.outputs, b.phase_ranges)
