"""Gap-filling tests for small paths not covered elsewhere."""


from repro.adversary.base import StaticAdversary
from repro.adversary.mobile import MobileOmissionAdversary
from repro.core.dac import DACProcess
from repro.core.piggyback import PiggybackDACProcess
from repro.faults.base import FaultPlan
from repro.net.dynadegree import DynaDegreeProfile, min_window_for_degree
from repro.net.dynamic import DynamicGraph
from repro.net.ports import identity_ports
from repro.net.topology import Topology
from repro.sim.engine import Engine, EngineView
from repro.sim.messages import StateMessage
from repro.sim.node import Delivery
from repro.sim.rng import child_rng
from repro.workloads import build_dbac_execution

from tests.helpers import spread_inputs


class TestEngineOdds:
    def make_engine(self, n=4):
        ports = identity_ports(n)
        inputs = spread_inputs(n)
        procs = {v: DACProcess(n, 0, inputs[v], v, epsilon=0.25) for v in range(n)}
        return Engine(procs, StaticAdversary(), ports)

    def test_state_snapshots_shape(self):
        engine = self.make_engine()
        snaps = engine.state_snapshots()
        assert set(snaps) == {0, 1, 2, 3}
        assert set(snaps[0]) == {"value", "phase", "output"}

    def test_view_exposes_ports(self):
        engine = self.make_engine()
        view = EngineView(engine, 0, {})
        assert view.ports is engine.ports
        assert view.ports.port_of(1, 2) == 2

    def test_stop_condition_true_after_last_round(self):
        engine = self.make_engine()
        executed = engine.run(100, stop_when=Engine.all_fault_free_output)
        assert engine.all_fault_free_output()
        assert executed < 100


class TestDynaDegreeOdds:
    def test_min_window_respects_cap(self):
        # Figure-1-like trace needs T=2; with max_window=1 we must get None.
        dyn = DynamicGraph(3)
        for t in range(6):
            edges = [(0, 1), (1, 0), (1, 2), (2, 1)] if t % 2 == 0 else []
            dyn.record(Topology(3, edges))
        assert min_window_for_degree(dyn, 1, max_window=1) is None
        assert min_window_for_degree(dyn, 1, max_window=3) == 2

    def test_profile_with_senders_filter(self):
        dyn = DynamicGraph(2)
        for _ in range(4):
            dyn.record(Topology(2, [(0, 1), (1, 0)]))
        profile = DynaDegreeProfile.from_trace(
            dyn, windows=[1], fault_free=[1], senders_at=lambda t: {1}
        )
        # Node 1's only sender (node 0) is filtered out everywhere.
        assert profile.max_degree_by_window[1] == 0


class TestMobileOmissionOdds:
    def test_no_promise_below_three_nodes(self):
        adv = MobileOmissionAdversary("rotate")
        adv.setup(2, FaultPlan.fault_free_plan(2), child_rng(0, "adv"))
        assert adv.promised_dynadegree() is None

    def test_rotate_skips_self_victim(self):
        adv = MobileOmissionAdversary("rotate")
        adv.setup(3, FaultPlan.fault_free_plan(3), child_rng(0, "adv"))

        class View:
            n = 3

            def value(self, u):
                return 0.0

        # At t=0, receiver 0's rotate victim would be node 0 itself ->
        # no drop for node 0 that round.
        g = adv.choose(0, View())
        assert g.in_degree(0) == 2


class TestPiggybackBuffer:
    def test_buffer_deduplicates(self):
        p = PiggybackDACProcess(5, 0, 0.0, 0, epsilon=0.25, k=4)
        msg = StateMessage(0.5, 0)
        p.deliver([Delivery(1, msg)])
        p.deliver([Delivery(2, msg)])  # same (value, phase) from elsewhere
        history = p.broadcast().history
        assert history.count((0.5, 0)) == 1

    def test_buffer_prefers_high_phases(self):
        p = PiggybackDACProcess(9, 0, 0.0, 0, epsilon=2.0, k=1)
        # end_phase 0: node is frozen; feed buffer via _remember directly.
        p._remember(0.1, 0)
        p._remember(0.2, 5)
        p._remember(0.3, 2)
        assert p._relay_buffer[0] == (0.2, 5)


class TestWorkloadsOdds:
    def test_dbac_execution_with_window(self):
        ex = build_dbac_execution(n=6, f=1, window=3)
        assert ex["adversary"].promised_dynadegree() == (3, 4)

    def test_dbac_end_phase_passthrough(self):
        ex = build_dbac_execution(n=6, f=1, end_phase=4)
        proc = next(iter(ex["processes"].values()))
        assert proc.end_phase == 4
