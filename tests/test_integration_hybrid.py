"""Integration tests for the *hybrid* fault model.

The paper's model statement is "up to f nodes may suffer crash or
Byzantine faults" -- mixtures are legal. DBAC must ride out any split
of its f budget between crashed and Byzantine nodes (a crashed node is
strictly weaker than a Byzantine one), and DAC must tolerate crashes
arriving in every pattern the CrashEvent machinery can express.
"""

import pytest

from repro.adversary.constrained import LastMinuteQuorumAdversary
from repro.core.dac import DACProcess
from repro.core.dbac import DBACProcess
from repro.faults.base import FaultPlan
from repro.faults.byzantine import ExtremeByzantine, PhaseLiarByzantine
from repro.faults.crash import CrashEvent
from repro.net.ports import random_ports
from repro.sim.rng import child_rng, spawn_inputs
from repro.sim.runner import run_consensus
from repro.workloads import dbac_degree


class TestHybridDBAC:
    @pytest.mark.parametrize("crashes, byz", [(1, 1), (2, 0), (0, 2)])
    def test_every_split_of_the_fault_budget(self, crashes, byz):
        n, f = 11, 2
        assert crashes + byz <= f
        ports = random_ports(n, child_rng(71, "ports"))
        inputs = spawn_inputs(71, n)
        crash_events = {
            n - 1 - i: CrashEvent(n - 1 - i, 2 + i) for i in range(crashes)
        }
        byz_nodes = {
            n - 1 - crashes - i: ExtremeByzantine() for i in range(byz)
        }
        plan = FaultPlan(n, crashes=crash_events, byzantine=byz_nodes)
        plan.validate_bound(f)
        procs = {
            v: DBACProcess(n, f, inputs[v], ports.self_port(v), end_phase=7)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            LastMinuteQuorumAdversary(1, dbac_degree(n, f), selector="nearest"),
            ports,
            epsilon=1e-1,
            f=f,
            fault_plan=plan,
            stop_mode="output",
            max_rounds=400,
        )
        assert report.terminated, report.summary()
        assert report.epsilon_agreement
        # Validity against the fault-free hull.
        honest = [inputs[v] for v in plan.fault_free]
        lo, hi = min(honest), max(honest)
        for v in plan.fault_free:
            assert lo - 1e-9 <= report.outputs[v] <= hi + 1e-9

    def test_crash_plus_phase_liar(self):
        # The nastiest mix: one node dies mid-broadcast, one lies about
        # being far in the future.
        n, f = 11, 2
        ports = random_ports(n, child_rng(73, "ports"))
        inputs = spawn_inputs(73, n)
        plan = FaultPlan(
            n,
            crashes={10: CrashEvent(10, 3, receivers=frozenset({0, 1}))},
            byzantine={9: PhaseLiarByzantine(value=0.0, phase_lead=999)},
        )
        procs = {
            v: DBACProcess(n, f, inputs[v], ports.self_port(v), end_phase=7)
            for v in plan.non_byzantine
        }
        report = run_consensus(
            procs,
            LastMinuteQuorumAdversary(1, dbac_degree(n, f)),
            ports,
            epsilon=1e-1,
            f=f,
            fault_plan=plan,
            stop_mode="output",
            max_rounds=400,
        )
        assert report.terminated and report.epsilon_agreement, report.summary()


class TestCrashPatternsDAC:
    @pytest.mark.parametrize(
        "pattern",
        ["all_round_zero", "staggered", "partial_finales", "late"],
    )
    def test_patterns(self, pattern):
        n, f = 9, 4
        ports = random_ports(n, child_rng(79, "ports"))
        inputs = spawn_inputs(79, n)
        victims = list(range(5, 9))
        if pattern == "all_round_zero":
            crashes = {v: CrashEvent(v, 0) for v in victims}
        elif pattern == "staggered":
            crashes = {v: CrashEvent(v, 1 + 2 * i) for i, v in enumerate(victims)}
        elif pattern == "partial_finales":
            crashes = {
                v: CrashEvent(v, 2 + i, receivers=frozenset({0, 1}))
                for i, v in enumerate(victims)
            }
        else:  # late
            crashes = {v: CrashEvent(v, 8) for v in victims}
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
        assert report.correct, f"{pattern}: {report.summary()}"
