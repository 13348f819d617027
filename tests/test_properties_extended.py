"""Second round of hypothesis property tests: temporal reachability,
DBAC safety under fault mixtures, piggyback/DAC equivalence, and
persistence round-trips."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.base import StaticAdversary
from repro.adversary.random_adv import RandomLinkAdversary
from repro.core.dac import DACProcess
from repro.core.dbac import DBACProcess
from repro.core.piggyback import PiggybackDACProcess
from repro.faults.base import FaultPlan
from repro.faults.byzantine import RandomByzantine
from repro.faults.crash import CrashEvent
from repro.net.dynadegree import max_degree_for_window
from repro.net.dynamic import DynamicGraph
from repro.net.generators import random_edges
from repro.net.ports import identity_ports, random_ports
from repro.net.temporal import max_reach_for_window, window_reach_sets
from repro.net.topology import Topology
from repro.sim.persistence import replay_adversary, trace_from_dict, trace_to_dict
from repro.sim.rng import child_rng
from repro.sim.runner import run_consensus

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_trace(n, rounds, p, seed):
    rng = random.Random(seed)
    dyn = DynamicGraph(n)
    for _ in range(rounds):
        dyn.record(Topology(n, random_edges(n, p, rng)))
    return dyn


class TestTemporalProperties:
    @RELAXED
    @given(
        n=st.integers(3, 7),
        rounds=st.integers(2, 8),
        p=st.floats(0.1, 0.7),
        seed=st.integers(0, 9999),
        window=st.integers(1, 4),
    )
    def test_reach_dominates_degree(self, n, rounds, p, seed, window):
        trace = random_trace(n, rounds, p, seed)
        assert max_reach_for_window(trace, window) >= max_degree_for_window(
            trace, window
        )

    @RELAXED
    @given(
        n=st.integers(3, 6),
        p=st.floats(0.2, 0.8),
        seed=st.integers(0, 9999),
    )
    def test_reach_monotone_in_window(self, n, p, seed):
        trace = random_trace(n, 6, p, seed)
        values = [max_reach_for_window(trace, w) for w in range(1, 6)]
        assert values == sorted(values)

    @RELAXED
    @given(
        n=st.integers(2, 6),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 9999),
    )
    def test_reach_sets_always_contain_self(self, n, p, seed):
        trace = random_trace(n, 3, p, seed)
        reach = window_reach_sets(trace.window(0, 3))
        for v in range(n):
            assert v in reach[v]


class TestDBACMixedFaultSafety:
    @RELAXED
    @given(
        seed=st.integers(0, 9999),
        p=st.floats(0.2, 0.9),
        crash_round=st.integers(0, 6),
    )
    def test_safety_with_one_crash_one_byzantine(self, seed, p, crash_round):
        # Arbitrary random adversary (no promise): termination may fail
        # but validity must never break.
        n, f = 11, 2
        ports = random_ports(n, child_rng(seed, "ports"))
        rng = child_rng(seed, "inputs")
        inputs = [rng.random() for _ in range(n)]
        plan = FaultPlan(
            n,
            crashes={10: CrashEvent(10, crash_round)},
            byzantine={9: RandomByzantine(low=-3.0, high=3.0)},
        )
        procs = {
            v: DBACProcess(n, f, inputs[v], ports.self_port(v), end_phase=5)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            RandomLinkAdversary(p),
            ports,
            epsilon=1e-1,
            f=f,
            fault_plan=plan,
            stop_mode="output",
            max_rounds=80,
            seed=seed,
        )
        honest = [inputs[v] for v in plan.fault_free]
        lo, hi = min(honest), max(honest)
        for v, value in report.outputs.items():
            assert lo - 1e-9 <= value <= hi + 1e-9


class TestPiggybackEquivalence:
    @RELAXED
    @given(seed=st.integers(0, 9999), n=st.integers(4, 9))
    def test_k0_equals_dac_on_any_random_network(self, seed, n):
        ports = identity_ports(n)
        rng = child_rng(seed, "inputs")
        inputs = [rng.random() for _ in range(n)]

        def run(factory):
            procs = {v: factory(v) for v in range(n)}
            report = run_consensus(
                procs,
                RandomLinkAdversary(0.5),
                ports,
                epsilon=1e-2,
                max_rounds=40,
                seed=seed,
            )
            return (report.rounds, tuple(sorted(report.outputs.items())))

        dac = run(lambda v: DACProcess(n, 0, inputs[v], v, epsilon=1e-2))
        pb0 = run(
            lambda v: PiggybackDACProcess(n, 0, inputs[v], v, epsilon=1e-2, k=0)
        )
        assert dac == pb0


class TestPersistenceProperties:
    @RELAXED
    @given(seed=st.integers(0, 9999), p=st.floats(0.1, 0.9))
    def test_round_trip_preserves_replayability(self, seed, p):
        n = 5
        ports = identity_ports(n)
        rng = child_rng(seed, "inputs")
        inputs = [rng.random() for _ in range(n)]

        def procs():
            return {v: DACProcess(n, 0, inputs[v], v, epsilon=1e-2) for v in range(n)}

        original = run_consensus(
            procs(), RandomLinkAdversary(p), ports, epsilon=1e-2,
            max_rounds=30, seed=seed,
        )
        rebuilt_trace = trace_from_dict(trace_to_dict(original.trace))
        replayed = run_consensus(
            procs(), replay_adversary(rebuilt_trace), ports, epsilon=1e-2,
            max_rounds=30, seed=seed,
        )
        assert replayed.outputs == original.outputs


class TestDACStaticNetworkProperty:
    @RELAXED
    @given(n=st.integers(3, 12), seed=st.integers(0, 9999))
    def test_complete_graph_always_correct(self, n, seed):
        ports = identity_ports(n)
        rng = child_rng(seed, "inputs")
        inputs = [rng.random() for _ in range(n)]
        procs = {v: DACProcess(n, 0, inputs[v], v, epsilon=1e-3) for v in range(n)}
        report = run_consensus(
            procs, StaticAdversary(), ports, epsilon=1e-3, max_rounds=60
        )
        assert report.correct
        # On a complete graph every phase takes one round.
        assert report.rounds <= procs[0].end_phase + 1
