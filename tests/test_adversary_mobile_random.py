"""Unit tests for the mobile-omission and stochastic adversaries."""

import pytest

from repro.adversary.mobile import MobileOmissionAdversary
from repro.adversary.random_adv import EventuallyStableAdversary, RandomLinkAdversary
from repro.core.baselines import FloodMinProcess
from repro.faults.base import FaultPlan
from repro.net.dynadegree import check_dynadegree
from repro.net.ports import identity_ports
from repro.net.topology import Topology
from repro.sim.engine import Engine
from repro.sim.rng import child_rng


def run_floodmin(adversary, n, inputs, rounds):
    ports = identity_ports(n)
    procs = {
        v: FloodMinProcess(n, 0, inputs[v], ports.self_port(v), num_rounds=rounds)
        for v in range(n)
    }
    engine = Engine(procs, adversary, ports)
    engine.run(rounds)
    return engine, procs


class TestMobileOmission:
    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            MobileOmissionAdversary("chaotic")

    def test_at_most_one_incoming_drop(self):
        n = 5
        engine, _ = run_floodmin(
            MobileOmissionAdversary("rotate"), n, [0.0] * n, rounds=6
        )
        for snap in engine.trace.rounds:
            for v in range(n):
                assert snap.graph.in_degree(v) >= n - 2

    def test_promise_n_minus_2_verified(self):
        n = 5
        adv = MobileOmissionAdversary("block_min")
        engine, _ = run_floodmin(adv, n, [0.0, 1.0, 1.0, 1.0, 1.0], rounds=6)
        assert adv.promised_dynadegree() == (1, 3)
        assert check_dynadegree(engine.trace.dynamic_graph(), 1, 3).holds

    def test_block_min_suppresses_the_minimum(self):
        # The global minimum (node 0) never escapes: everyone else
        # decides 1, node 0 decides 0 -- Corollary 1's forced
        # disagreement made concrete.
        n = 5
        _, procs = run_floodmin(
            MobileOmissionAdversary("block_min"),
            n,
            [0.0, 1.0, 1.0, 1.0, 1.0],
            rounds=n - 1,
        )
        outputs = {v: procs[v].output() for v in range(n)}
        assert outputs[0] == 0.0
        assert all(outputs[v] == 1.0 for v in range(1, n))

    def test_none_mode_drops_nothing(self):
        n = 4
        adv = MobileOmissionAdversary("none")
        engine, procs = run_floodmin(adv, n, [0.0, 1.0, 1.0, 1.0], rounds=3)
        assert engine.trace.at(0) == Topology.complete(n)
        # Sanity: with no omissions FloodMin agrees.
        assert {procs[v].output() for v in range(n)} == {0.0}

    def test_block_max_targets_maximum(self):
        n = 4
        _, procs = run_floodmin(
            MobileOmissionAdversary("block_max"),
            n,
            [0.0, 1.0, 1.0, 1.0],
            rounds=3,
        )
        # Max-blocking doesn't stop min-flooding: all agree on 0.
        assert {procs[v].output() for v in range(n)} == {0.0}


class TestRandomLink:
    def test_probability_validated(self):
        with pytest.raises(ValueError, match="probability"):
            RandomLinkAdversary(-0.1)

    def test_p_one_is_complete(self):
        adv = RandomLinkAdversary(1.0)
        adv.setup(4, FaultPlan.fault_free_plan(4), child_rng(0, "adv"))
        assert adv.choose(0, None) == Topology.complete(4)

    def test_p_zero_is_empty(self):
        adv = RandomLinkAdversary(0.0)
        adv.setup(4, FaultPlan.fault_free_plan(4), child_rng(0, "adv"))
        assert len(adv.choose(0, None)) == 0

    def test_no_promise(self):
        assert RandomLinkAdversary(0.5).promised_dynadegree() is None

    def test_deterministic_per_seed(self):
        def draw():
            adv = RandomLinkAdversary(0.5)
            adv.setup(5, FaultPlan.fault_free_plan(5), child_rng(42, "adv"))
            return [adv.choose(t, None) for t in range(4)]

        assert draw() == draw()


class TestEventuallyStable:
    def test_stabilizes(self):
        adv = EventuallyStableAdversary(stable_round=3, p=0.0)
        adv.setup(4, FaultPlan.fault_free_plan(4), child_rng(0, "adv"))
        assert len(adv.choose(0, None)) == 0
        assert len(adv.choose(2, None)) == 0
        assert adv.choose(3, None) == Topology.complete(4)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventuallyStableAdversary(-1)
        with pytest.raises(ValueError, match="probability"):
            EventuallyStableAdversary(1, p=2.0)
