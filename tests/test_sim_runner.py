"""Unit tests for run_consensus and ExecutionReport."""

import pytest

from repro.adversary.base import StaticAdversary
from repro.adversary.constrained import LastMinuteQuorumAdversary
from repro.core.dac import DACProcess
from repro.faults.base import FaultPlan
from repro.faults.byzantine import FixedValueByzantine
from repro.net.ports import identity_ports
from repro.sim.engine import Engine
from repro.sim.metrics import PhaseRangeSeries
from repro.sim.runner import run_consensus

from tests.helpers import spread_inputs


def dac_processes(n, f, epsilon=1e-2, ports=None, **kwargs):
    ports = ports or identity_ports(n)
    inputs = spread_inputs(n)
    return {
        v: DACProcess(n, f, inputs[v], ports.self_port(v), epsilon=epsilon, **kwargs)
        for v in range(n)
    }


class TestStopModes:
    def test_output_mode_waits_for_algorithm(self):
        n = 5
        procs = dac_processes(n, 0)
        report = run_consensus(
            procs, StaticAdversary(), identity_ports(n), epsilon=1e-2, max_rounds=100
        )
        assert report.terminated
        assert report.stop_mode == "output"
        assert len(report.outputs) == n
        assert report.correct

    def test_oracle_mode_stops_at_epsilon(self):
        n = 5
        procs = dac_processes(n, 0, epsilon=1e-2)
        report = run_consensus(
            procs,
            StaticAdversary(),
            identity_ports(n),
            epsilon=0.3,
            stop_mode="oracle",
            max_rounds=100,
        )
        assert report.terminated
        assert report.output_spread <= 0.3 + 1e-9
        # Oracle stops earlier than the full p_end run would.
        assert report.rounds <= 5

    def test_unknown_stop_mode_rejected(self):
        with pytest.raises(ValueError, match="stop_mode"):
            run_consensus(
                dac_processes(3, 0),
                StaticAdversary(),
                identity_ports(3),
                epsilon=0.1,
                stop_mode="banana",
            )

    def test_max_rounds_cap_reports_nontermination(self):
        n = 5
        procs = dac_processes(n, 0, epsilon=1e-6)
        report = run_consensus(
            procs, StaticAdversary(), identity_ports(n), epsilon=1e-6, max_rounds=2
        )
        assert not report.terminated
        assert not report.correct
        # Vacuous safety: no outputs yet, so no violation to report.
        assert report.validity
        assert report.epsilon_agreement


class TestVerdicts:
    def test_validity_checked_against_input_hull(self):
        n = 5
        report = run_consensus(
            dac_processes(n, 0),
            StaticAdversary(),
            identity_ports(n),
            epsilon=1e-2,
            max_rounds=100,
        )
        lo, hi = min(report.inputs.values()), max(report.inputs.values())
        assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in report.outputs.values())
        assert report.validity

    def test_summary_strings(self):
        n = 5
        report = run_consensus(
            dac_processes(n, 0),
            StaticAdversary(),
            identity_ports(n),
            epsilon=1e-2,
            max_rounds=100,
        )
        assert "[OK]" in report.summary()
        bad = run_consensus(
            dac_processes(n, 0, epsilon=1e-6),
            StaticAdversary(),
            identity_ports(n),
            epsilon=1e-6,
            max_rounds=1,
        )
        assert "[VIOLATION]" in bad.summary()

    def test_phase_ranges_present(self):
        n = 5
        report = run_consensus(
            dac_processes(n, 0),
            StaticAdversary(),
            identity_ports(n),
            epsilon=1e-2,
            max_rounds=100,
        )
        assert report.phase_ranges[0] == pytest.approx(1.0)
        assert report.phase_ranges == sorted(report.phase_ranges, reverse=True)
        assert all(rate <= 0.5 + 1e-9 for rate in report.convergence_rates)

    @pytest.mark.parametrize("stop_mode", ["output", "oracle"])
    def test_untracked_runs_keep_the_bare_stop_condition(self, monkeypatch, stop_mode):
        # A tracked run folds the series in at every round boundary (before
        # each round and once after the last); an untracked one never does,
        # and in output mode hands the engine the runner's stop rule itself.
        stops, observed = [], []
        real_run, real_observe = Engine.run, PhaseRangeSeries.observe

        def run(engine, max_rounds, stop_when=None):
            stops.append(stop_when)
            return real_run(engine, max_rounds, stop_when)

        def observe(series):
            observed.append(series)
            real_observe(series)

        monkeypatch.setattr(Engine, "run", run)
        monkeypatch.setattr(PhaseRangeSeries, "observe", observe)
        n = 5
        reports = []
        for tracked in (False, True):
            observed.clear()
            reports.append(run_consensus(
                dac_processes(n, 0), StaticAdversary(), identity_ports(n),
                epsilon=1e-2, stop_mode=stop_mode, track_phases=tracked,
            ))
            assert len(observed) == (reports[-1].rounds + 1 if tracked else 0)
        if stop_mode == "output":
            assert stops[0] is Engine.all_fault_free_output
        assert reports[0].phase_ranges == [] and reports[1].phase_ranges
        assert (reports[0].rounds, reports[0].outputs) == (reports[1].rounds, reports[1].outputs)


class TestPromiseVerification:
    def test_promise_verified_on_trace(self):
        n = 6
        report = run_consensus(
            dac_processes(n, 0),
            LastMinuteQuorumAdversary(1, n // 2),
            identity_ports(n),
            epsilon=1e-2,
            max_rounds=100,
        )
        assert report.dynadegree_promise == (1, 3)
        assert report.dynadegree_verified is True

    def test_promise_skippable(self):
        n = 5
        report = run_consensus(
            dac_processes(n, 0),
            LastMinuteQuorumAdversary(1, n // 2),
            identity_ports(n),
            epsilon=1e-2,
            max_rounds=100,
            verify_promise=False,
        )
        assert report.dynadegree_verified is None

    def test_no_promise_no_verification(self):
        n = 5

        class Mute(StaticAdversary):
            def promised_dynadegree(self):
                return None

        report = run_consensus(
            dac_processes(n, 0),
            Mute(),
            identity_ports(n),
            epsilon=1e-2,
            max_rounds=100,
        )
        assert report.dynadegree_promise is None
        assert report.dynadegree_verified is None


class TestWatchedNodes:
    def test_byzantine_excluded_from_phase_series(self):
        # With a Byzantine node pinned at a wild value, V(p) must only
        # reflect fault-free nodes, so phase-0 range stays within the
        # fault-free inputs.
        n = 6
        ports = identity_ports(n)
        inputs = spread_inputs(n)
        plan = FaultPlan(n, byzantine={5: FixedValueByzantine(40.0, phase_mode=0)})
        procs = {
            v: DACProcess(n, 1, inputs[v], ports.self_port(v), epsilon=1e-2)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            StaticAdversary(),
            ports,
            epsilon=1e-2,
            f=1,
            fault_plan=plan,
            max_rounds=60,
        )
        assert report.phase_ranges[0] <= 1.0 + 1e-9
