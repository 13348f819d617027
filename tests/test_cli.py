"""Tests for both command-line entry points."""

import dataclasses
import json

import pytest

import repro.cli
from repro.bench.cli import main as bench_main
from repro.cli import main as scenario_main
from repro.scenario.resolve import ResolvedScenario


class TestScenarioCli:
    def test_dac_succeeds(self, capsys):
        rc = scenario_main(["dac", "--n", "5", "--f", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[OK]" in out

    def test_dac_verbose_prints_details(self, capsys):
        rc = scenario_main(["dac", "--n", "5", "-v"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "outputs" in out and "rates" in out

    def test_dbac_succeeds(self, capsys):
        rc = scenario_main(["dbac", "--n", "6", "--f", "1", "--strategy", "extreme"])
        assert rc == 0
        assert "[OK]" in capsys.readouterr().out

    def test_boundary_exit_requires_termination(self, monkeypatch, capsys):
        # Five rounds are far below DBAC's T * p_end, where the checker
        # sees no evidence either way; the command still exits 1.
        real = repro.cli.run_consensus
        monkeypatch.setattr(
            repro.cli, "run_consensus", lambda **kwargs: real(**{**kwargs, "max_rounds": 5})
        )
        assert scenario_main(["dbac", "--n", "6"]) == 1
        assert "terminated=False" in capsys.readouterr().out

    @pytest.mark.parametrize("override", [{"track_phases": False}, {"verify_promise": False}])
    def test_boundary_exit_requires_the_evidence(self, monkeypatch, override, capsys):
        # With no phase series or no re-checked trace the run shows nothing.
        real = repro.cli.run_consensus
        monkeypatch.setattr(
            repro.cli, "run_consensus", lambda **kwargs: real(**{**kwargs, **override})
        )
        assert scenario_main(["dac", "--n", "7"]) == 1
        assert "[OK]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, field",
        [(["dbac", "--n", "6", "--f", "2"], "algorithm.f"), (["dac", "--n", "1"], "algorithm.n")],
    )
    def test_boundary_out_of_domain_flags_exit_2(self, argv, field, capsys):
        assert scenario_main(argv) == 2
        assert capsys.readouterr().out.startswith(f"error: {field}: ")

    def test_boundary_trace_out_accepts_the_unchecked_trace(self, tmp_path, capsys):
        # The streamed trace is spilled, not re-checked, and the run still passes.
        path = tmp_path / "run.jsonl"
        assert scenario_main(["dac", "--n", "7", "--trace-out", str(path)]) == 0
        assert path.exists() and "[OK]" in capsys.readouterr().out

    def test_necessity_eager_run_must_terminate(self, monkeypatch, capsys):
        # Disagreeing values that were never final show no horn.
        real = repro.cli.run_consensus
        monkeypatch.setattr(
            repro.cli,
            "run_consensus",
            lambda **kwargs: dataclasses.replace(real(**kwargs), terminated=False),
        )
        assert scenario_main(["theorem9", "--n", "6"]) == 1
        assert "eps-agreement=False" in capsys.readouterr().out

    def test_theorem9_reports_expected_violation(self, capsys):
        rc = scenario_main(["theorem9", "--n", "6"])
        out = capsys.readouterr().out
        assert rc == 0  # the violation IS the expected outcome
        assert "[VIOLATION]" in out

    def test_theorem9_plain_stalls(self, capsys):
        rc = scenario_main(["theorem9", "--n", "6", "--plain"])
        assert rc == 0
        assert "terminated=False" in capsys.readouterr().out

    def test_theorem10_reports_expected_violation(self, capsys):
        rc = scenario_main(["theorem10", "--f", "1"])
        assert rc == 0
        assert "[VIOLATION]" in capsys.readouterr().out

    def test_figure1_runs(self, capsys):
        rc = scenario_main(["figure1"])
        assert rc == 0
        assert "[OK]" in capsys.readouterr().out

    def test_save_trace_writes_json(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        rc = scenario_main(["dac", "--n", "5", "--save-trace", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["n"] == 5
        assert payload["rounds"]

    def test_default_f_derived_from_n(self, capsys):
        rc = scenario_main(["dac", "--n", "7"])
        assert rc == 0
        assert "f=3" in capsys.readouterr().out

    def test_sweep_runs_grid(self, capsys):
        rc = scenario_main(
            ["sweep", "--n", "5", "7", "--window", "1", "--repeats", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 trials" in out
        assert "DAC rounds to output" in out

    def test_sweep_with_workers(self, capsys):
        rc = scenario_main(
            ["sweep", "--n", "5", "--repeats", "2", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "workers=2" in out

    def test_sweep_honors_epsilon(self, capsys):
        # A looser tolerance terminates in fewer phases -> fewer rounds.
        scenario_main(["sweep", "--n", "9", "--repeats", "1", "--epsilon", "0.2"])
        loose = capsys.readouterr().out
        scenario_main(["sweep", "--n", "9", "--repeats", "1", "--epsilon", "1e-6"])
        tight = capsys.readouterr().out
        assert "eps=0.2" in loose and "eps=1e-06" in tight
        assert loose != tight

    def test_sweep_rejects_save_trace(self, capsys):
        rc = scenario_main(["sweep", "--n", "5", "--save-trace", "x.json"])
        assert rc == 2
        assert "not supported" in capsys.readouterr().out

    def test_sweep_verbose_prints_records(self, capsys):
        rc = scenario_main(["sweep", "--n", "5", "--repeats", "1", "-v"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed=0" in out and "'rounds'" in out

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--family", "dac", "--n", "5", "300"], "algorithm.n"),
            (["--family", "dac", "--n", "5", "--window", "1", "0"], "network.window"),
            (["--spec", "algorithm: dbac@1(n=11, f=2)", "--n", "11", "6"], "algorithm.f"),
        ],
    )
    def test_sweep_out_of_domain_cell_exits_2_before_any_trial(
        self, argv, field, capsys, monkeypatch
    ):
        import repro.bench.sweep as sweep_module

        def no_dispatch(*args, **kwargs):
            raise AssertionError("a trial was dispatched")

        monkeypatch.setattr(sweep_module, "run_trials", no_dispatch)
        rc = scenario_main(["sweep", *argv, "--repeats", "1"])
        assert rc == 2
        assert f"error: {field}: " in capsys.readouterr().out

    def test_sweep_spec_derives_f_per_cell(self, capsys):
        # dbac@1(n=11) leaves f out: the n=6 cell derives f=1 (n >= 5f+1
        # holds) instead of keeping n=11's f=2.
        rc = scenario_main(
            ["sweep", "--spec", "algorithm: dbac@1(n=11)", "--n", "6", "--repeats", "1", "-v"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "f=1, " in out and "n=6, " in out

    @pytest.mark.parametrize(
        "text, field",
        [
            ("algorithm: dac@1(n=4, f=2)", "algorithm.f"),
            ("algorithm: dac@1(n=5, epsilon=nan)", "algorithm.epsilon"),
        ],
    )
    def test_spec_infeasible_or_non_finite_exits_2(self, text, field, capsys):
        assert scenario_main(["spec", text]) == 2
        assert capsys.readouterr().out.startswith(f"error: {field}: ")

    def test_spec_seed_flag_overrides_the_spec_seed_even_when_zero(self, capsys):
        spec = "algorithm: byz@1(n=9, epsilon=1e-6); seed: {}"

        def result(*argv):
            assert scenario_main(["spec", *argv]) == 0
            return capsys.readouterr().out.split("result : ")[1]

        assert result(spec.format(3), "--seed", "0") == result(spec.format(0))
        assert result(spec.format(3), "--seed", "0") != result(spec.format(3))
        assert result(spec.format(0), "--seed", "3") == result(spec.format(3))

    def test_spec_exit_keeps_what_the_family_declares(self, monkeypatch, capsys):
        # dac declares guarantees, so a terminated run must be correct;
        # averaging declares none, so terminating is all it must do.
        summary = {"rounds": 1, "spread": 1.0, "terminated": True, "correct": False}
        monkeypatch.setattr(ResolvedScenario, "run", lambda self, seed=None: dict(summary))
        assert scenario_main(["spec", "algorithm: dac@1(n=5)"]) == 1
        assert scenario_main(["spec", "algorithm: averaging@1(n=5)"]) == 0

    def test_submit_exit_keeps_what_the_family_declares(self, monkeypatch, capsys):
        # The same rule as spec, applied to every row the daemon returns.
        from repro.service import ServiceClient

        rows = [
            {"rounds": 9, "spread": 0.0, "terminated": True, "correct": True},
            {"rounds": 1, "spread": 1.0, "terminated": True, "correct": False},
        ]

        def submit(self, spec, seeds=None, stream=False, on_event=None):
            results = [
                {"seed": seed, "status": "computed", "result": row}
                for seed, row in enumerate(rows)
            ]
            return {"job": "j1", "scenario": "s", "computed": 2, "hit": 0,
                    "coalesced": 0, "results": results}

        monkeypatch.setattr(ServiceClient, "submit", submit)
        assert scenario_main(["submit", "algorithm: dac@1(n=5)"]) == 1
        assert scenario_main(["submit", "algorithm: averaging@1(n=5)"]) == 0
        rows.pop()
        assert scenario_main(["submit", "algorithm: dac@1(n=5)"]) == 0
        assert scenario_main(["submit", "algorithm: dac@1(n=4, f=2)"]) == 2
        assert "error: algorithm.f" in capsys.readouterr().out


class TestBenchCli:
    def test_list(self, capsys):
        rc = bench_main(["--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for experiment_id in ("F1", "E1", "I4", "X7", "S1"):
            assert experiment_id in out

    def test_single_experiment(self, capsys):
        rc = bench_main(["-e", "F1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "Figure 1" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            bench_main(["-e", "Z9"])

    def test_workers_flag_sets_sweep_default(self, capsys):
        from repro.sim.parallel import get_default_workers, set_default_workers

        try:
            rc = bench_main(["--list", "--workers", "2"])
            assert rc == 0
            assert get_default_workers() == 2
        finally:
            set_default_workers(1)
