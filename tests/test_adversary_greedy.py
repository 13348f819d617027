"""Tests for the one-step-lookahead adversary.

The headline assertion: even an adversary that *simulates the
algorithm's response* before choosing links cannot push DAC past the
proven worst case -- rate stays <= 1/2 and correctness holds.
"""

import copy

import pytest

from repro.adversary.greedy import LookaheadQuorumAdversary, _StateOverlay
from repro.core.dac import DACProcess
from repro.faults.base import FaultPlan
from repro.faults.crash import CrashEvent, partial_crash
from repro.net.dynadegree import check_dynadegree
from repro.net.ports import random_ports
from repro.net.topology import Topology
from repro.sim.engine import Engine, EngineView
from repro.sim.node import Delivery
from repro.sim.rng import child_rng, spawn_inputs
from repro.sim.runner import run_consensus


def run_dac_against(adversary, n=9, f=0, fault_plan=None, seed=5, max_rounds=200):
    ports = random_ports(n, child_rng(seed, "ports"))
    inputs = spawn_inputs(seed, n)
    plan = fault_plan or FaultPlan.fault_free_plan(n)
    procs = {
        v: DACProcess(n, f, inputs[v], ports.self_port(v), epsilon=1e-3)
        for v in plan.non_byzantine
    }
    return run_consensus(
        procs,
        adversary,
        ports,
        epsilon=1e-3,
        f=f,
        fault_plan=plan,
        max_rounds=max_rounds,
    )


class TestConstruction:
    def test_objective_validated(self):
        with pytest.raises(ValueError, match="objective"):
            LookaheadQuorumAdversary(3, objective="chaos")

    def test_portfolio_validated(self):
        with pytest.raises(ValueError, match="portfolio"):
            LookaheadQuorumAdversary(3, portfolio=())

    def test_promise(self):
        assert LookaheadQuorumAdversary(4).promised_dynadegree() == (1, 4)


class TestBehaviour:
    def test_keeps_its_promise(self):
        adv = LookaheadQuorumAdversary(4)
        report = run_dac_against(adv)
        assert report.dynadegree_verified is True
        trace = report.trace.dynamic_graph()
        assert check_dynadegree(trace, 1, 4).holds

    def test_cannot_beat_the_half_rate(self):
        # The tightness claim with teeth: simulated-lookahead search
        # still contracts at most 1/2 per phase.
        adv = LookaheadQuorumAdversary(4, objective="max_range")
        report = run_dac_against(adv)
        assert report.correct, report.summary()
        assert report.convergence_rates
        for rate in report.convergence_rates:
            assert rate <= 0.5 + 1e-9

    def test_discovers_the_nearest_policy(self):
        # Against midpoint averaging, nearest-value delivery maximizes
        # retained range; the search should figure that out on its own.
        adv = LookaheadQuorumAdversary(4, objective="max_range")
        run_dac_against(adv)
        assert adv.chosen_policies
        nearest_share = adv.chosen_policies.count("nearest") / len(adv.chosen_policies)
        assert nearest_share >= 0.5

    def test_min_progress_objective_still_cannot_block(self):
        # With (1, D) delivered every round, progress is unavoidable:
        # the run still terminates within p_end + slack rounds.
        adv = LookaheadQuorumAdversary(4, objective="min_progress")
        report = run_dac_against(adv)
        assert report.correct
        assert report.rounds <= 12

    def test_correct_with_crashes(self):
        n, f = 9, 4
        plan = FaultPlan(n, crashes={v: CrashEvent(v, 1 + v) for v in range(5, 9)})
        adv = LookaheadQuorumAdversary(4)
        report = run_dac_against(adv, f=f, fault_plan=plan)
        assert report.correct, report.summary()


class TestOverlayReplacesDeepcopy:
    def test_candidate_loop_never_deepcopies(self, monkeypatch):
        # The acceptance contract of the Topology PR: candidate
        # evaluation runs against the copy-on-write overlay, not
        # per-candidate process deep copies.
        def forbidden(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("copy.deepcopy called in the candidate loop")

        monkeypatch.setattr(copy, "deepcopy", forbidden)
        adv = LookaheadQuorumAdversary(4)
        report = run_dac_against(adv, max_rounds=6)
        assert report.rounds == 6

    def test_overlay_leaves_live_state_untouched_between_rounds(self):
        # Choosing must not perturb the real processes: two engines,
        # one under lookahead and one replaying its chosen graphs,
        # stay in lockstep (indirectly asserted by determinism tests);
        # here we pin the direct invariant that a single choose() call
        # is state-neutral.
        n = 9
        ports = random_ports(n, child_rng(3, "ports"))
        inputs = spawn_inputs(3, n)
        procs = {
            v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-3)
            for v in range(n)
        }
        adv = LookaheadQuorumAdversary(4)
        engine = Engine(procs, adv, ports, record_trace=False)
        before = {v: proc.state_key() for v, proc in engine.processes.items()}
        broadcasts = {v: proc.broadcast() for v, proc in engine.processes.items()}
        adv.choose(0, EngineView(engine, 0, broadcasts))
        after = {v: proc.state_key() for v, proc in engine.processes.items()}
        assert after == before


def _deepcopy_simulate(
    adversary: LookaheadQuorumAdversary,
    graph: Topology,
    t: int,
    view: EngineView,
) -> tuple[float, int]:
    """The pre-Topology candidate evaluation, kept as the overlay's
    reference: deep-copy every fault-free process, deliver to the clones."""
    plan = view.fault_plan
    clones = {}
    before_phases = {}
    for v in plan.fault_free:
        proc = view.process(v)
        clones[v] = copy.deepcopy(proc)
        before_phases[v] = proc.phase
    for v, clone in clones.items():
        pairs = []
        for u in graph.in_row(v):
            if plan.is_byzantine(u):
                continue
            message = view.broadcast_of(u)
            if message is None:
                continue
            targets = plan.send_targets(u, t)
            if targets is not None and v not in targets:
                continue
            pairs.append((u, message))
        own = view.broadcast_of(v)
        if own is not None:
            pairs.append((v, own))
        batch = [Delivery(view.ports.port_of(v, u), message) for u, message in pairs]
        batch.sort(key=lambda d: d.port)
        clone.deliver(batch)
    values = [clone.value for clone in clones.values()]
    spread = (max(values) - min(values)) if values else 0.0
    advances = sum(1 for v, c in clones.items() if c.phase > before_phases[v])
    return spread, advances


def _round_broadcasts(engine, t):
    """The round-``t`` view's broadcast map: every transmitting process's message."""
    silent = engine.fault_plan.sender_masks(t)[0]
    return {
        v: proc.broadcast() for v, proc in engine.processes.items() if v not in silent
    }


class TestOverlayMatchesDeepcopyReference:
    @pytest.mark.parametrize("crashes", [False, True])
    def test_every_candidate_every_round(self, crashes):
        # The overlay's (spread, advances) for each candidate must equal
        # the deep-copy reference's, so every chosen policy is too.
        # Degree 3 is one below the paper's floor(n/2): a phase can take
        # more than one round of traffic, so port sets carry over
        # between rounds and candidates differ in advances as well as
        # spread. The crash leg shrinks the fault-free set both
        # implementations simulate and silences senders mid-run.
        n, f = 9, 4
        plan = FaultPlan(
            n,
            crashes={
                7: partial_crash(7, 2, range(3)),
                8: partial_crash(8, 4, range(2, 6)),
            }
            if crashes
            else None,
        )
        ports = random_ports(n, child_rng(11, "ports"))
        inputs = spawn_inputs(11, n)
        procs = {
            v: DACProcess(n, f, inputs[v], ports.self_port(v), epsilon=1e-12)
            for v in range(n)
        }
        adv = LookaheadQuorumAdversary(3)
        engine = Engine(procs, adv, ports, fault_plan=plan, f=f, record_trace=False)
        differing_rounds = 0
        for t in range(10):
            broadcasts = _round_broadcasts(engine, t)
            view = EngineView(engine, t, broadcasts)
            adv.choose(t, view)  # builds the port rows; state-neutral
            graphs = [adv._candidate(sel, t, view) for sel in adv._selectors]
            # Every reference first, from the untouched pre-round state.
            expected = [_deepcopy_simulate(adv, g, t, view) for g in graphs]
            processes = {v: view.process(v) for v in plan.fault_free}
            before = {v: proc.phase for v, proc in processes.items()}
            overlay = _StateOverlay(processes)
            sender_info = adv._sender_info(t, view)
            actual = [
                adv._simulate(g, sender_info, processes, before, overlay)
                for g in graphs
            ]
            assert actual == expected, f"round {t}"
            differing_rounds += len(set(expected)) > 1
            engine.run_round()
        # The candidates genuinely differed, so the comparison has teeth.
        assert differing_rounds >= 8


class TestStateOverlayExactness:
    def test_restore_preserves_attribute_aliasing_and_drops_new_attrs(self):
        class Proc:
            def __init__(self):
                self.shared = [1, 2]
                self.alias = self.shared  # two names, one container
                self.scalar = 0.5

        proc = Proc()
        overlay = _StateOverlay({0: proc})
        proc.shared.append(3)
        proc.scalar = 9.9
        proc.lazily_added = ["leak"]
        overlay.restore()
        assert proc.shared == [1, 2] and proc.scalar == 0.5
        assert proc.alias is proc.shared  # aliasing survives the rewind
        assert not hasattr(proc, "lazily_added")
        # A second candidate gets an equally pristine rewind.
        proc.alias.append(4)
        overlay.restore()
        assert proc.shared == [1, 2] and proc.alias is proc.shared
