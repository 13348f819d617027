"""Property-based tests (hypothesis) on the core invariants.

Safety first: whatever the adversary, the fault schedule, or the port
numbering, DAC/DBAC must never violate validity, and if they terminate
they must agree to epsilon. Plus structural invariants of the
dynaDegree checker, the port layer, and the engine's determinism.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.constrained import RotatingQuorumAdversary
from repro.adversary.random_adv import RandomLinkAdversary
from repro.core.dac import DACProcess
from repro.core.dbac import DBACProcess
from repro.faults.base import FaultPlan
from repro.faults.byzantine import RandomByzantine
from repro.faults.crash import staggered_crashes
from repro.net.dynadegree import check_dynadegree, max_degree_for_window
from repro.net.dynamic import DynamicGraph
from repro.net.generators import random_edges
from repro.net.ports import random_ports
from repro.net.topology import Topology
from repro.sim.rng import child_rng
from repro.sim.runner import run_consensus
from repro.workloads import dbac_degree

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_trace(n: int, rounds: int, p: float, seed: int) -> DynamicGraph:
    rng = random.Random(seed)
    dyn = DynamicGraph(n)
    for _ in range(rounds):
        dyn.record(Topology(n, random_edges(n, p, rng)))
    return dyn


class TestDynaDegreeProperties:
    @RELAXED
    @given(
        n=st.integers(3, 8),
        rounds=st.integers(3, 12),
        p=st.floats(0.1, 0.9),
        seed=st.integers(0, 10_000),
        window=st.integers(1, 4),
    )
    def test_max_degree_is_tight(self, n, rounds, p, seed, window):
        trace = random_trace(n, rounds, p, seed)
        best = max_degree_for_window(trace, window)
        if best >= 1:
            assert check_dynadegree(trace, window, best).holds
        if best < n - 1:
            assert not check_dynadegree(trace, window, best + 1).holds

    @RELAXED
    @given(
        n=st.integers(3, 7),
        rounds=st.integers(4, 10),
        p=st.floats(0.2, 0.8),
        seed=st.integers(0, 10_000),
    )
    def test_monotone_in_window(self, n, rounds, p, seed):
        trace = random_trace(n, rounds, p, seed)
        degrees = [max_degree_for_window(trace, w) for w in range(1, rounds + 1)]
        assert degrees == sorted(degrees)


class TestPortProperties:
    @RELAXED
    @given(n=st.integers(1, 20), seed=st.integers(0, 10_000))
    def test_bijection_round_trip(self, n, seed):
        ports = random_ports(n, random.Random(seed))
        for receiver in range(n):
            assert {ports.port_of(receiver, s) for s in range(n)} == set(range(n))
            for sender in range(n):
                assert ports.sender_of(receiver, ports.port_of(receiver, sender)) == sender


class TestDACSafetyProperties:
    @RELAXED
    @given(
        n=st.integers(5, 11),
        seed=st.integers(0, 10_000),
        p=st.floats(0.05, 0.9),
    )
    def test_safety_under_arbitrary_random_adversary(self, n, seed, p):
        # No stability promise at all: termination may fail, but
        # validity must hold and, if all output, so must agreement.
        ports = random_ports(n, child_rng(seed, "ports"))
        rng = child_rng(seed, "inputs")
        inputs = [rng.random() for _ in range(n)]
        procs = {
            v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-2)
            for v in range(n)
        }
        report = run_consensus(
            procs,
            RandomLinkAdversary(p),
            ports,
            epsilon=1e-2,
            max_rounds=120,
            seed=seed,
        )
        assert report.validity
        if report.terminated:
            assert report.epsilon_agreement

    @RELAXED
    @given(n=st.integers(5, 11), seed=st.integers(0, 10_000))
    def test_liveness_at_the_boundary(self, n, seed):
        # With the promise met and f = (n-1)/2 crashes, everything holds.
        if n % 2 == 0:
            n += 1
        f = (n - 1) // 2
        ports = random_ports(n, child_rng(seed, "ports"))
        rng = child_rng(seed, "inputs")
        inputs = [rng.random() for _ in range(n)]
        plan = FaultPlan(
            n, crashes=staggered_crashes(range(n - f, n), first_round=1)
        )
        procs = {
            v: DACProcess(n, f, inputs[v], ports.self_port(v), epsilon=1e-2)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            RotatingQuorumAdversary(n // 2, selector="random"),
            ports,
            epsilon=1e-2,
            f=f,
            fault_plan=plan,
            max_rounds=300,
            seed=seed,
        )
        assert report.correct, report.summary()
        for rate in report.convergence_rates:
            assert rate <= 0.5 + 1e-9


class TestDBACSafetyProperties:
    @RELAXED
    @given(seed=st.integers(0, 10_000))
    def test_validity_under_random_byzantine(self, seed):
        n, f = 6, 1
        ports = random_ports(n, child_rng(seed, "ports"))
        rng = child_rng(seed, "inputs")
        inputs = [rng.random() for _ in range(n)]
        plan = FaultPlan(n, byzantine={5: RandomByzantine(low=-10.0, high=10.0)})
        procs = {
            v: DBACProcess(n, f, inputs[v], ports.self_port(v), end_phase=6)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            RotatingQuorumAdversary(dbac_degree(n, f), selector="random"),
            ports,
            epsilon=1e-2,
            f=f,
            fault_plan=plan,
            stop_mode="output",
            max_rounds=250,
            seed=seed,
        )
        assert report.terminated
        honest = [inputs[v] for v in plan.non_byzantine]
        lo, hi = min(honest), max(honest)
        for value in report.outputs.values():
            assert lo - 1e-9 <= value <= hi + 1e-9
        bound = 1.0 - 2.0**-n
        for rate in report.convergence_rates:
            assert rate <= bound + 1e-9


class TestDeterminismProperties:
    @RELAXED
    @given(seed=st.integers(0, 10_000), p=st.floats(0.1, 0.9))
    def test_identical_seeds_identical_traces(self, seed, p):
        def run_once():
            n = 6
            ports = random_ports(n, child_rng(seed, "ports"))
            rng = child_rng(seed, "inputs")
            inputs = [rng.random() for _ in range(n)]
            procs = {
                v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-2)
                for v in range(n)
            }
            report = run_consensus(
                procs,
                RandomLinkAdversary(p),
                ports,
                epsilon=1e-2,
                max_rounds=60,
                seed=seed,
            )
            trace = report.trace
            return (
                report.rounds,
                tuple(report.outputs.items()),
                tuple(tuple(sorted(s.graph.edges)) for s in trace.rounds),
            )

        assert run_once() == run_once()
