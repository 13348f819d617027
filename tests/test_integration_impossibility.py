"""Integration tests: the impossibility results, executed.

Corollary 1 via the model checker and the concrete mobile-omission
adversary; Theorems 9 and 10 via their split constructions. Each test
also confirms the *trace* satisfied the stability property the theorem
says is insufficient -- the violations happen under the claimed
conditions, not because the adversary cheated.
"""

import pytest

from repro.adversary.mobile import MobileOmissionAdversary
from repro.analysis.agreement import cross_group_gap, groupwise_spread
from repro.analysis.guarantees import shows_necessity_horn
from repro.core.baselines import FloodMinProcess, MajorityVoteProcess
from repro.mc.explorer import BoundedExplorer, mobile_omission_choices
from repro.net.dynadegree import check_dynadegree
from repro.net.ports import identity_ports
from repro.sim.runner import run_consensus
from repro.workloads import (
    dac_degree,
    dbac_degree,
    theorem9_part2_execution,
    theorem9_split_execution,
    theorem10_split_execution,
)


class TestCorollary1:
    """Exact consensus impossible with (1, n-2)-dynaDegree."""

    @pytest.mark.parametrize(
        "factory_name, factory",
        [
            ("floodmin", lambda n: lambda v, x: FloodMinProcess(n, 0, x, v, num_rounds=2)),
            ("majority", lambda n: lambda v, x: MajorityVoteProcess(n, 0, x, v, num_rounds=2)),
        ],
    )
    def test_checker_breaks_every_candidate(self, factory_name, factory):
        n = 3
        explorer = BoundedExplorer(
            n,
            factory(n),
            [0.0, 1.0, 1.0],
            mobile_omission_choices(n),
            horizon=2,
            cache_choices=True,
        )
        violation = explorer.search()
        assert violation is not None, factory_name
        assert violation.kind == "disagreement"
        # Every graph in the witness schedule respects (1, n-2).
        for graph in violation.schedule:
            for v in range(n):
                assert graph.in_degree(v) >= n - 2

    def test_concrete_adversary_scales_to_larger_n(self):
        n = 7
        ports = identity_ports(n)
        inputs = [0.0] + [1.0] * (n - 1)
        procs = {
            v: FloodMinProcess(n, 0, inputs[v], ports.self_port(v))
            for v in range(n)
        }
        report = run_consensus(
            procs,
            MobileOmissionAdversary("block_min"),
            ports,
            epsilon=0.0,
            max_rounds=2 * n,
        )
        assert report.terminated
        assert not report.epsilon_agreement
        # The trace really did satisfy (1, n-2).
        assert report.dynadegree_promise == (1, n - 2)
        assert report.dynadegree_verified is True


class TestTheorem9:
    """(T, floor(n/2)) and n >= 2f+1 are necessary (crash model)."""

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_degree_one_short_forces_the_dilemma(self, n):
        # Horn 1: the proof's hypothetical terminating algorithm
        # (quorum floor(n/2)) disagrees 0 vs 1.
        eager = run_consensus(**theorem9_split_execution(n=n, seed=n))
        assert shows_necessity_horn(eager, eager=True)
        groups = {
            "a": frozenset(range(n // 2)),
            "b": frozenset(range(n // 2, n)),
        }
        spreads = groupwise_spread(eager.outputs, groups)
        assert spreads["a"] <= 1e-9 and spreads["b"] <= 1e-9
        assert cross_group_gap(eager.outputs, groups["a"], groups["b"]) >= 1.0 - 1e-9

        # Horn 2: the real DAC (quorum floor(n/2)+1) never terminates.
        stalled = run_consensus(
            **theorem9_split_execution(n=n, seed=n, eager_quorum=False, max_rounds=120)
        )
        assert shows_necessity_horn(stalled, eager=False)

    def test_trace_satisfies_claimed_degree(self):
        n = 8
        report = run_consensus(**theorem9_split_execution(n=n, seed=1))
        trace = report.trace.dynamic_graph()
        # (1, floor(n/2)-1) holds; (1, floor(n/2)) does not.
        assert check_dynadegree(trace, 1, dac_degree(n) - 1).holds
        assert not check_dynadegree(trace, 1, dac_degree(n)).holds

    def test_part2_n_le_2f_beats_any_window(self):
        # With n = 2f, maximal eventual stability cannot save the
        # algorithm: it decided during the isolation prefix.
        report = run_consensus(**theorem9_part2_execution(n=8, seed=2))
        assert shows_necessity_horn(report, eager=True)
        # After reconnection the trace is (isolation+1, n-1)-stable.
        trace = report.trace.dynamic_graph()
        window = 33  # isolation_rounds + 1
        if len(trace) >= 2 * window:
            assert check_dynadegree(trace, window, 7).holds


class TestTheorem10:
    """(T, floor((n+3f)/2)) and n >= 5f+1 are necessary (Byzantine)."""

    @pytest.mark.parametrize("f", [1, 2])
    def test_degree_one_short_forces_the_dilemma(self, f):
        n = 5 * f + 1
        eager = run_consensus(**theorem10_split_execution(f=f, seed=f))
        assert shows_necessity_horn(eager, eager=True)

        # Listener groups agree internally, disagree across.
        low_end = (n - f) // 2
        high_start = (n + f) // 2
        listeners_a = frozenset(range(low_end))
        listeners_b = frozenset(range(high_start, n))
        spreads = groupwise_spread(
            eager.outputs, {"a": listeners_a, "b": listeners_b}
        )
        assert spreads["a"] <= 0.05 and spreads["b"] <= 0.05
        assert cross_group_gap(eager.outputs, listeners_a, listeners_b) >= 0.9

        stalled = run_consensus(
            **theorem10_split_execution(f=f, seed=f, eager_quorum=False, max_rounds=120)
        )
        assert shows_necessity_horn(stalled, eager=False)

    def test_trace_is_exactly_one_below_threshold(self):
        f = 1
        n = 6
        report = run_consensus(**theorem10_split_execution(f=f, seed=3))
        trace = report.trace.dynamic_graph()
        need = dbac_degree(n, f)
        fault_free = sorted(report.outputs)
        assert check_dynadegree(trace, 1, need - 1, fault_free=fault_free).holds
        assert not check_dynadegree(trace, 1, need, fault_free=fault_free).holds

    def test_equivocation_is_undetectable_by_construction(self):
        # The two faces are real honest executions: group A's view of
        # the Byzantine node is a valid input-0 run, group B's a valid
        # input-1 run. We check the faces' states stayed within their
        # pretended worlds.
        ex = theorem10_split_execution(f=1, seed=4)
        plan = ex["fault_plan"]
        report = run_consensus(**ex)
        assert report.terminated
        strategy = plan.byzantine[2]
        assert strategy._face_a.value <= 1.0
        assert strategy._face_b.value >= 0.0
        assert abs(strategy._face_a.value - 0.0) < 0.2
        assert abs(strategy._face_b.value - 1.0) < 0.2
