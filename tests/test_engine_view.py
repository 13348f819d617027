"""Unit tests for EngineView -- the adversary's window into the system."""

from repro.adversary.base import MessageAdversary, StaticAdversary
from repro.core.dac import DACProcess
from repro.faults.base import FaultPlan
from repro.faults.byzantine import FixedValueByzantine
from repro.faults.crash import CrashEvent
from repro.net.ports import identity_ports
from repro.net.topology import Topology
from repro.sim.engine import Engine, EngineView

from tests.helpers import spread_inputs


class ViewProbe(MessageAdversary):
    """Adversary that records what it saw each round."""

    def __init__(self):
        super().__init__()
        self.observations = []

    def choose(self, t, view: EngineView):
        self.observations.append(
            {
                "round": view.round,
                "values": [view.value(v) for v in range(view.n)],
                "phases": [view.phase(v) for v in range(view.n)],
                "max_phase": view.max_fault_free_phase(),
                "live": view.live_senders(),
                "undecided": view.undecided_fault_free(),
                "broadcast0": view.broadcast_of(0),
            }
        )
        return Topology.complete(self.n)


def build(n=5, plan=None, f=0, epsilon=0.25):
    ports = identity_ports(n)
    plan = plan or FaultPlan.fault_free_plan(n)
    inputs = spread_inputs(n)
    procs = {
        v: DACProcess(n, f, inputs[v], v, epsilon=epsilon)
        for v in plan.non_byzantine
    }
    probe = ViewProbe()
    engine = Engine(procs, probe, ports, fault_plan=plan, f=f)
    return engine, probe


class TestEngineView:
    def test_sees_pre_round_state(self):
        engine, probe = build()
        engine.run(2)
        first = probe.observations[0]
        assert first["round"] == 0
        assert first["values"] == spread_inputs(5)
        assert first["phases"] == [0] * 5

    def test_sees_broadcast_content(self):
        engine, probe = build()
        engine.run(1)
        msg = probe.observations[0]["broadcast0"]
        assert msg.value == 0.0 and msg.phase == 0

    def test_max_phase_advances(self):
        engine, probe = build()
        engine.run(3)
        phases = [obs["max_phase"] for obs in probe.observations]
        assert phases[0] == 0
        assert phases[-1] > 0

    def test_byzantine_nodes_opaque(self):
        plan = FaultPlan(5, byzantine={4: FixedValueByzantine(9.0)})
        engine, probe = build(plan=plan, f=1)
        engine.run(1)
        obs = probe.observations[0]
        assert obs["values"][4] is None
        assert obs["phases"][4] is None

    def test_live_senders_shrink_on_crash(self):
        plan = FaultPlan(5, crashes={3: CrashEvent(3, 1)})
        engine, probe = build(plan=plan, f=1)
        engine.run(2)
        assert 3 in probe.observations[0]["live"]
        assert 3 not in probe.observations[1]["live"]

    def test_undecided_set_empties(self):
        engine, probe = build(epsilon=0.5)  # p_end = 1: fast finish
        engine.run(4)
        assert probe.observations[0]["undecided"] == frozenset(range(5))
        assert probe.observations[-1]["undecided"] == frozenset()

    def test_process_accessor(self):
        engine, _ = build()
        view = EngineView(engine, 0, {})
        assert view.process(0) is engine.processes[0]
        assert view.fault_plan is engine.fault_plan


class TestByzantineInputs:
    def test_byzantine_inputs_forwarded_to_bind(self):
        n = 4
        ports = identity_ports(n)
        strategy = FixedValueByzantine(0.0)
        plan = FaultPlan(n, byzantine={3: strategy})
        procs = {
            v: DACProcess(n, 1, 0.5, v, epsilon=0.25) for v in plan.non_byzantine
        }
        Engine(
            procs,
            StaticAdversary(),
            ports,
            fault_plan=plan,
            f=1,
            byzantine_inputs={3: 0.77},
        )
        assert strategy.input_value == 0.77
