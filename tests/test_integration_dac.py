"""Integration tests: DAC end-to-end (Theorem 3 and Section IV).

Each test runs the real algorithm on the real engine against a real
adversary and asserts the paper's guarantees: termination, validity,
epsilon-agreement, the 1/2 convergence rate, and the T * p_end round
bound -- at the exact feasibility boundary n = 2f + 1 with f crashes
and D = floor(n/2).
"""

import pytest

from repro.adversary.constrained import (
    LastMinuteQuorumAdversary,
    PhaseSkewAdversary,
)
from repro.adversary.periodic import figure1_adversary
from repro.core.dac import DACProcess
from repro.core.phases import dac_end_phase, rounds_upper_bound
from repro.faults.base import FaultPlan
from repro.faults.crash import CrashEvent, partial_crash
from repro.net.ports import random_ports
from repro.sim.rng import child_rng, spawn_inputs
from repro.sim.runner import run_consensus
from repro.workloads import build_dac_execution


class TestBoundaryCorrectness:
    """n = 2f+1, f crashes, D = floor(n/2): the tight corner."""

    @pytest.mark.parametrize("n", [5, 9, 15])
    @pytest.mark.parametrize("window", [1, 3])
    def test_correct_at_the_boundary(self, n, window):
        f = (n - 1) // 2
        report = run_consensus(
            **build_dac_execution(n=n, f=f, epsilon=1e-3, seed=n * 10 + window, window=window)
        )
        assert report.correct, report.summary()
        assert report.dynadegree_verified is True

    @pytest.mark.parametrize("selector", ["rotate", "nearest", "random"])
    def test_correct_under_every_selector(self, selector):
        report = run_consensus(
            **build_dac_execution(n=9, f=4, epsilon=1e-3, seed=7, selector=selector)
        )
        assert report.correct, f"{selector}: {report.summary()}"

    def test_agreement_tightens_with_epsilon(self):
        spreads = []
        for eps in (0.1, 0.01, 0.001):
            report = run_consensus(
                **build_dac_execution(n=9, f=4, epsilon=eps, seed=3)
            )
            assert report.correct
            spreads.append(report.output_spread)
            assert report.output_spread <= eps + 1e-9
        assert spreads[2] <= spreads[0]


class TestConvergenceRate:
    def test_measured_rate_never_exceeds_half(self):
        # Remark 1: range(V(p+1)) <= range(V(p)) / 2, every phase.
        for seed in range(5):
            report = run_consensus(
                **build_dac_execution(n=9, f=4, epsilon=1e-4, seed=seed)
            )
            assert report.correct
            for rate in report.convergence_rates:
                assert rate <= 0.5 + 1e-9, report.convergence_rates

    def test_worst_case_adversary_achieves_half(self):
        # The nearest-value selector realizes the worst case: some
        # phase contracts by exactly (almost) 1/2.
        report = run_consensus(
            **build_dac_execution(n=15, f=0, epsilon=1e-4, seed=2, selector="nearest")
        )
        assert report.correct
        assert max(report.convergence_rates) > 0.4


class TestRoundComplexity:
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_rounds_within_paper_bound(self, window):
        # Worst case T * p_end (Section VII), with slack for start-up.
        epsilon = 1e-3
        report = run_consensus(
            **build_dac_execution(n=9, f=0, epsilon=epsilon, seed=1, window=window)
        )
        assert report.correct
        bound = rounds_upper_bound(window, dac_end_phase(epsilon))
        assert report.rounds <= bound + 2 * window

    def test_last_minute_adversary_forces_full_windows(self):
        # With all delivery on window boundaries, rounds ~ T * phases.
        window = 4
        report = run_consensus(
            **build_dac_execution(n=7, f=0, epsilon=1e-2, seed=5, window=window)
        )
        assert report.correct
        assert report.rounds >= window * 2  # several full windows used


class TestCrashRobustness:
    def test_partial_broadcast_crash(self):
        # A node dying mid-broadcast (message reaches a strict subset)
        # must not break agreement among survivors.
        n, f = 9, 4
        ports = random_ports(n, child_rng(11, "ports"))
        inputs = spawn_inputs(11, n)
        crashes = {
            8: partial_crash(8, 2, receivers={0, 1}),
            7: CrashEvent(7, 4),
        }
        plan = FaultPlan(n, crashes=crashes)
        procs = {
            v: DACProcess(n, f, inputs[v], ports.self_port(v), epsilon=1e-3)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            LastMinuteQuorumAdversary(1, n // 2),
            ports,
            epsilon=1e-3,
            f=f,
            fault_plan=plan,
            max_rounds=400,
        )
        assert report.correct, report.summary()

    def test_all_f_crash_in_round_zero(self):
        n, f = 9, 4
        ports = random_ports(n, child_rng(13, "ports"))
        inputs = spawn_inputs(13, n)
        plan = FaultPlan(n, crashes={v: CrashEvent(v, 0) for v in range(5, 9)})
        procs = {
            v: DACProcess(n, f, inputs[v], ports.self_port(v), epsilon=1e-3)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            LastMinuteQuorumAdversary(1, n // 2),
            ports,
            epsilon=1e-3,
            f=f,
            fault_plan=plan,
            max_rounds=400,
        )
        assert report.correct, report.summary()
        # Dead-on-arrival nodes never output; survivors all do.
        assert set(report.outputs) == set(range(5))


class TestJumpRule:
    def test_jump_rescues_skewed_nodes(self):
        n = 9
        ports = random_ports(n, child_rng(17, "ports"))
        inputs = spawn_inputs(17, n)

        def run(jump):
            procs = {
                v: DACProcess(
                    n, 0, inputs[v], ports.self_port(v), epsilon=1e-2, enable_jump=jump
                )
                for v in range(n)
            }
            return run_consensus(
                procs,
                PhaseSkewAdversary(n // 2, slow={6, 7, 8}, window=3),
                ports,
                epsilon=1e-2,
                max_rounds=200,
            )

        with_jump = run(True)
        without_jump = run(False)
        assert with_jump.correct
        assert not without_jump.terminated  # the ablation stalls


class TestFigure1Network:
    def test_dac_converges_on_figure1_adversary(self):
        # n=3 needs D = floor(3/2) = 1 over some window; Figure 1's
        # adversary provides exactly (2, 1), so DAC (f=0) must work.
        n = 3
        ports = random_ports(n, child_rng(19, "ports"))
        inputs = [0.0, 0.5, 1.0]
        procs = {
            v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-2)
            for v in range(n)
        }
        report = run_consensus(
            procs, figure1_adversary(), ports, epsilon=1e-2, max_rounds=200
        )
        assert report.correct, report.summary()
        assert report.dynadegree_promise == (2, 1)
        assert report.dynadegree_verified is True
