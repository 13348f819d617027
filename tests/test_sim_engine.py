"""Unit tests for the synchronous round engine.

Uses small scripted processes (recorders/echoers) rather than the real
algorithms so each engine behavior is pinned in isolation: delivery
along chosen links, self-delivery, port tagging and ordering, crash
semantics (clean and partial), Byzantine equivocation, and trace
recording.
"""

import pytest

from repro.adversary.base import ScheduleAdversary, StaticAdversary
from repro.faults.base import FaultPlan
from repro.faults.byzantine import ByzantineStrategy
from repro.faults.crash import CrashEvent, partial_crash
from repro.net.dynamic import EdgeSchedule
from repro.net.ports import PortNumbering, identity_ports
from repro.net.topology import Topology
from repro.sim.engine import Engine
from repro.sim.messages import StateMessage
from repro.sim.node import ConsensusProcess
from repro.workloads import build_dac_execution, build_dbac_execution


class RecorderProcess(ConsensusProcess):
    """Broadcasts its ID-tagged value; records everything delivered."""

    def __init__(self, n, f, input_value, self_port):
        super().__init__(n, f, input_value, self_port)
        self.inbox_log: list[list] = []

    def broadcast(self):
        return StateMessage(self.input_value, 0)

    def deliver(self, deliveries):
        self.inbox_log.append(list(deliveries))

    def has_output(self):
        return False

    def output(self):
        raise RuntimeError("recorder never outputs")

    @property
    def value(self):
        return self.input_value

    @property
    def phase(self):
        return 0


def make_engine(n, adversary, fault_plan=None, ports=None, f=0):
    ports = ports or identity_ports(n)
    plan = fault_plan or FaultPlan.fault_free_plan(n)
    processes = {
        v: RecorderProcess(n, f, float(v), ports.self_port(v))
        for v in plan.non_byzantine
    }
    engine = Engine(processes, adversary, ports, fault_plan=plan, f=f)
    return engine, processes


class TestDelivery:
    def test_messages_follow_chosen_links(self):
        sched = EdgeSchedule.from_table(3, [[(0, 2)]])
        engine, procs = make_engine(3, ScheduleAdversary(sched))
        engine.run_round()
        # Node 2 hears node 0 (port 0) plus itself (port 2).
        ports_seen = [d.port for d in procs[2].inbox_log[0]]
        assert ports_seen == [0, 2]
        # Node 1 hears only itself.
        assert [d.port for d in procs[1].inbox_log[0]] == [1]

    def test_none_broadcast_is_a_silent_round(self):
        # Regression: a process returning None from broadcast() sends
        # nothing -- no (sender, None) deliveries, no self-delivery,
        # no bits charged -- matching the self-delivery convention.
        class MuteProcess(RecorderProcess):
            def broadcast(self):
                return None

        ports = identity_ports(3)
        procs = {
            0: MuteProcess(3, 0, 0.0, 0),
            1: RecorderProcess(3, 0, 1.0, 1),
            2: RecorderProcess(3, 0, 2.0, 2),
        }
        engine = Engine(procs, StaticAdversary(), ports)
        record = engine.run_round()
        # Only nodes 1 and 2 put a message on the wire (to 2 receivers
        # each on the complete graph).
        assert record.delivered == 4
        for receiver in range(3):
            batch = procs[receiver].inbox_log[0]
            assert all(d.message is not None for d in batch)
            assert 0 not in [d.port for d in batch]  # identity ports

    def test_self_delivery_is_reliable(self):
        # Even with an empty graph, everyone hears themselves.
        sched = EdgeSchedule.from_table(3, [[]])
        engine, procs = make_engine(3, ScheduleAdversary(sched))
        engine.run_round()
        for v in range(3):
            batch = procs[v].inbox_log[0]
            assert len(batch) == 1
            assert batch[0].port == v
            assert batch[0].message.value == float(v)

    def test_edge_free_round_skips_a_declared_echo(self):
        # Only classes declaring ignores_own_echo skip the own-message
        # batch, and only on rounds without edges; the round is still
        # counted with its broadcasts and nothing delivered.
        class EchoIgnoringRecorder(RecorderProcess):
            ignores_own_echo = True

        sched = EdgeSchedule.from_table(3, [[], [(0, 2)]])
        ports = identity_ports(3)
        procs = {
            0: EchoIgnoringRecorder(3, 0, 0.0, 0),
            1: RecorderProcess(3, 0, 1.0, 1),
            2: EchoIgnoringRecorder(3, 0, 2.0, 2),
        }
        engine = Engine(procs, ScheduleAdversary(sched), ports)
        record = engine.run_round()
        assert (record.delivered, record.bits) == (0, 0)
        assert engine.metrics.broadcasts == 3
        assert procs[0].inbox_log == [] and procs[2].inbox_log == []
        assert [[d.port for d in batch] for batch in procs[1].inbox_log] == [[1]]
        engine.run_round()  # a round with an edge calls deliver on everyone
        assert [d.port for d in procs[2].inbox_log[0]] == [0]  # no echo on port 2
        assert procs[0].inbox_log[0] == []
        assert [[d.port for d in batch] for batch in procs[1].inbox_log] == [[1], [1]]

    @pytest.mark.parametrize("crash", [False, True])
    def test_delivering_round_leaves_out_a_declared_echo(self, crash):
        # On a delivering round an echo-ignoring class gets every
        # other delivered message in port order and never its own, on
        # the all-senders path and (with a crashed sender) the masked
        # one; a class taking its echo still gets it, insorted.
        class EchoIgnoringRecorder(RecorderProcess):
            ignores_own_echo = True

        tables = [[2, 0, 1], [1, 2, 0], [0, 1, 2]]  # self ports 2, 2, 2
        crashes = {0: CrashEvent(0, 0)} if crash else {}
        plan = FaultPlan(3, crashes=crashes)
        procs = {
            0: RecorderProcess(3, 0, 0.0, 2),
            1: EchoIgnoringRecorder(3, 0, 1.0, 2),
            2: RecorderProcess(3, 0, 2.0, 2),
        }
        engine = Engine(procs, StaticAdversary(), PortNumbering(tables), fault_plan=plan)
        engine.run_round()
        heard = [(d.port, d.message.value) for d in procs[1].inbox_log[0]]
        assert heard == ([(0, 2.0)] if crash else [(0, 2.0), (1, 0.0)])
        assert [d.port for d in procs[2].inbox_log[0]] == ([1, 2] if crash else [0, 1, 2])

    def test_deliveries_sorted_by_port(self):
        tables = [
            [2, 1, 0],  # node 0 sees sender 0 on port 2, sender 2 on port 0
            [0, 1, 2],
            [0, 1, 2],
        ]
        ports = PortNumbering(tables)
        engine, procs = make_engine(3, StaticAdversary(), ports=ports)
        engine.run_round()
        batch = procs[0].inbox_log[0]
        assert [d.port for d in batch] == sorted(d.port for d in batch)
        # Port 0 at node 0 is sender 2.
        assert batch[0].message.value == 2.0

    def test_metrics_count_link_deliveries_not_self(self):
        engine, _ = make_engine(3, StaticAdversary())
        engine.run_round()
        # Complete graph on 3 nodes: 6 link deliveries.
        assert engine.metrics.delivered == 6
        assert engine.metrics.bits == 6 * StateMessage(0.0, 0).bits()

    def test_adversary_graph_size_checked(self):
        class BadAdversary(StaticAdversary):
            def choose(self, t, view):
                return Topology(2)

        engine, _ = make_engine(3, BadAdversary(Topology.complete(3)))
        with pytest.raises(ValueError, match="adversary chose"):
            engine.run_round()


class TestCrashSemantics:
    def test_clean_crash_silences_and_freezes(self):
        plan = FaultPlan(3, crashes={2: CrashEvent(2, 1)})
        engine, procs = make_engine(3, StaticAdversary(), fault_plan=plan)
        engine.run_round()  # round 0: node 2 alive
        engine.run_round()  # round 1: node 2 crashed
        # Round 0: node 0 heard 1, 2, self.
        assert len(procs[0].inbox_log[0]) == 3
        # Round 1: node 0 hears 1 and self only.
        assert [d.port for d in procs[0].inbox_log[1]] == [0, 1]
        # Node 2 processed round 0 but not round 1.
        assert len(procs[2].inbox_log) == 1

    def test_dead_on_arrival(self):
        plan = FaultPlan(3, crashes={1: CrashEvent(1, 0)})
        engine, procs = make_engine(3, StaticAdversary(), fault_plan=plan)
        engine.run_round()
        assert [d.port for d in procs[0].inbox_log[0]] == [0, 2]
        assert procs[1].inbox_log == []

    def test_partial_crash_reaches_only_whitelist(self):
        plan = FaultPlan(4, crashes={3: partial_crash(3, 0, receivers={0})})
        engine, procs = make_engine(4, StaticAdversary(), fault_plan=plan)
        engine.run_round()
        # Node 0 got node 3's last message; nodes 1 and 2 did not.
        assert 3 in [d.port for d in procs[0].inbox_log[0]]
        assert 3 not in [d.port for d in procs[1].inbox_log[0]]
        assert 3 not in [d.port for d in procs[2].inbox_log[0]]

    def test_processes_must_cover_non_byzantine(self):
        plan = FaultPlan(3, crashes={2: CrashEvent(2, 1)})
        ports = identity_ports(3)
        procs = {0: RecorderProcess(3, 0, 0.0, 0)}  # missing 1 and 2
        with pytest.raises(ValueError, match="cover exactly"):
            Engine(procs, StaticAdversary(), ports, fault_plan=plan)


class EquivocatorStrategy(ByzantineStrategy):
    """Sends value == receiver id (distinct lie per receiver)."""

    def messages(self, t, view):
        return {
            r: StateMessage(float(r), 0) for r in range(self.n) if r != self.node
        }


class UniformStrategy(ByzantineStrategy):
    """Sends the same fixed message to everyone."""

    def messages(self, t, view):
        return StateMessage(99.0, 0)


class TestByzantineSemantics:
    def test_equivocation_per_receiver(self):
        plan = FaultPlan(3, byzantine={2: EquivocatorStrategy()})
        engine, procs = make_engine(3, StaticAdversary(), fault_plan=plan, f=1)
        engine.run_round()
        v0 = [d.message.value for d in procs[0].inbox_log[0] if d.port == 2]
        v1 = [d.message.value for d in procs[1].inbox_log[0] if d.port == 2]
        assert v0 == [0.0] and v1 == [1.0]

    def test_uniform_strategy_broadcast(self):
        plan = FaultPlan(3, byzantine={2: UniformStrategy()})
        engine, procs = make_engine(3, StaticAdversary(), fault_plan=plan, f=1)
        engine.run_round()
        for v in (0, 1):
            lies = [d.message.value for d in procs[v].inbox_log[0] if d.port == 2]
            assert lies == [99.0]

    def test_byzantine_observe_sees_true_senders(self):
        class Spy(UniformStrategy):
            def __init__(self):
                super().__init__()
                self.seen = []

            def observe(self, t, received):
                self.seen.append([s for s, _ in received])

        spy = Spy()
        plan = FaultPlan(3, byzantine={2: spy})
        engine, _ = make_engine(3, StaticAdversary(), fault_plan=plan, f=1)
        engine.run_round()
        assert spy.seen == [[0, 1]]

    def test_edge_free_round_still_asks_and_tells_byzantine_nodes(self):
        # A strategy drawing per round must draw on silent rounds too.
        class Spy(UniformStrategy):
            def __init__(self):
                super().__init__()
                self.asked, self.seen = [], []

            def messages(self, t, view):
                self.asked.append(t)
                return super().messages(t, view)

            def observe(self, t, received):
                self.seen.append((t, list(received)))

        spy = Spy()
        plan = FaultPlan(3, byzantine={2: spy})
        sched = EdgeSchedule.from_table(3, [[], [(0, 2)]])
        engine, _ = make_engine(3, ScheduleAdversary(sched), fault_plan=plan, f=1)
        engine.run(2)
        assert spy.asked == [0, 1]
        assert [(t, [s for s, _ in got]) for t, got in spy.seen] == [(0, []), (1, [0])]
        assert engine.metrics.broadcasts == 6

    def test_byzantine_strategy_bound_to_node(self):
        strategy = UniformStrategy()
        plan = FaultPlan(4, byzantine={3: strategy})
        make_engine(4, StaticAdversary(), fault_plan=plan, f=1)
        assert strategy.node == 3
        assert strategy.n == 4
        assert strategy.f == 1


class TestRunLoop:
    def test_run_respects_max_rounds(self):
        engine, _ = make_engine(3, StaticAdversary())
        assert engine.run(5) == 5
        assert engine.current_round == 5

    def test_stop_condition_checked_before_rounds(self):
        engine, _ = make_engine(3, StaticAdversary())
        assert engine.run(10, stop_when=lambda e: True) == 0

    def test_stop_condition_mid_run(self):
        engine, _ = make_engine(3, StaticAdversary())
        executed = engine.run(10, stop_when=lambda e: e.current_round >= 3)
        assert executed == 3

    def test_run_result_reports_early_stop(self):
        engine, _ = make_engine(3, StaticAdversary())
        result = engine.run(10, stop_when=lambda e: e.current_round >= 3)
        assert result == 3 and result.rounds == 3
        assert result.stopped

    def test_stop_checked_after_final_round(self):
        # Regression: the docstring always promised a final check, but
        # the loop used to end at max_rounds without one -- callers had
        # to re-evaluate stop_when manually to learn the run succeeded.
        engine, _ = make_engine(3, StaticAdversary())
        result = engine.run(3, stop_when=lambda e: e.current_round >= 3)
        assert result == 3
        assert result.stopped  # the *final* round satisfied the condition

    def test_cap_without_stop_is_not_stopped(self):
        engine, _ = make_engine(3, StaticAdversary())
        result = engine.run(2, stop_when=lambda e: e.current_round >= 99)
        assert result == 2
        assert not result.stopped

    def test_no_stop_condition_never_stopped(self):
        engine, _ = make_engine(3, StaticAdversary())
        result = engine.run(4)
        assert result == 4
        assert not result.stopped

    def test_zero_rounds_still_checks_condition(self):
        engine, _ = make_engine(3, StaticAdversary())
        assert engine.run(0, stop_when=lambda e: True).stopped
        assert not engine.run(0, stop_when=lambda e: False).stopped

    def test_negative_max_rounds_rejected(self):
        engine, _ = make_engine(3, StaticAdversary())
        with pytest.raises(ValueError, match="non-negative"):
            engine.run(-1)

    def test_trace_records_rounds(self):
        engine, _ = make_engine(3, StaticAdversary())
        engine.run(4)
        assert engine.trace is not None
        assert len(engine.trace) == 4
        assert engine.trace.rounds[0].graph == Topology.complete(3)

    def test_trace_disabled(self):
        ports = identity_ports(3)
        procs = {v: RecorderProcess(3, 0, 0.0, v) for v in range(3)}
        engine = Engine(procs, StaticAdversary(), ports, record_trace=False)
        engine.run(3)
        assert engine.trace is None
        assert engine.metrics.rounds == 3

    def test_fast_path_skips_snapshots_but_not_observers(self):
        # With a trace disabled the engine only materializes snapshots
        # when observers are registered -- and those observers still see
        # every round.
        ports = identity_ports(3)
        procs = {v: RecorderProcess(3, 0, 0.0, v) for v in range(3)}
        engine = Engine(procs, StaticAdversary(), ports, record_trace=False)
        seen = []
        engine.observers.append(lambda eng, snap: seen.append(snap.round))
        engine.run(2)
        assert seen == [0, 1]
        engine.observers.clear()
        engine.run(2)  # now truly snapshot-free
        assert seen == [0, 1]
        assert engine.metrics.rounds == 4

    def test_observers_called_per_round(self):
        engine, _ = make_engine(3, StaticAdversary())
        calls = []
        engine.observers.append(lambda eng, snap: calls.append(snap.round))
        engine.run(3)
        assert calls == [0, 1, 2]

    def test_fault_plan_size_checked(self):
        ports = identity_ports(3)
        procs = {v: RecorderProcess(3, 0, 0.0, v) for v in range(3)}
        with pytest.raises(ValueError, match="fault plan"):
            Engine(procs, StaticAdversary(), ports, fault_plan=FaultPlan(4))

    def test_fault_free_values_and_range(self):
        engine, _ = make_engine(3, StaticAdversary())
        assert engine.fault_free_values() == {0: 0.0, 1: 1.0, 2: 2.0}
        assert engine.fault_free_range() == 2.0


# Boundary builds at n=9: fault-free, staggered crashes, a window-2
# schedule and Byzantine DBAC. Their full output (traces included) is
# pinned by tests/test_golden_fingerprints.py.
SWEEP_BUILDS = {
    "enforced": lambda seed: build_dac_execution(n=9, f=4, seed=seed, crash_nodes=0),
    "crash": lambda seed: build_dac_execution(n=9, f=4, seed=seed),
    "window": lambda seed: build_dac_execution(n=9, f=4, seed=seed, window=2),
    "byzantine": lambda seed: build_dbac_execution(n=9, f=1, seed=seed),
}


def _built_engine(kwargs, *, record_trace):
    return Engine(
        kwargs["processes"],
        kwargs["adversary"],
        kwargs["ports"],
        fault_plan=kwargs["fault_plan"],
        f=kwargs["f"],
        seed=kwargs["seed"],
        record_trace=record_trace,
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("build", sorted(SWEEP_BUILDS))
def test_traced_sweep_matches_untraced_metrics(build, seed):
    """Recording a trace changes nothing a round produces.

    Traced rounds assemble their snapshot after the same sweep, so
    states, round counts and the delivered-message and bit counters
    must equal the untraced run's.
    """
    runs = {}
    for traced in (False, True):
        engine = _built_engine(SWEEP_BUILDS[build](seed), record_trace=traced)
        runs[traced] = (engine, int(engine.run(40)))
    (bare, bare_rounds), (traced, traced_rounds) = runs[False], runs[True]
    assert bare_rounds == traced_rounds
    assert {v: p.state_key() for v, p in bare.processes.items()} == {
        v: p.state_key() for v, p in traced.processes.items()
    }
    assert bare.metrics == traced.metrics
    assert bare.metrics.delivered > 0
    assert len(traced.trace) == traced_rounds
